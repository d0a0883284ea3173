"""Tiny-size tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

run.locate_package()


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_runs_and_reports_its_metrics(workload, trace):
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "0",
                  "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _tiny_cells(workload, tmp_path, seed=5):
    return workloads.build(workload, seed, tmp_path, tiny=True)


def test_a_wrong_pinned_rb_counts_as_failed(tmp_path, monkeypatch):
    label, spec, m, pinned, why = workloads.LADDER_TINY[0]
    monkeypatch.setattr(workloads, "LADDER_TINY",
                        ((label, spec, m, pinned + 1, why),) + workloads.LADDER_TINY[1:])
    outcome = run.run_pass(_tiny_cells("ladder", tmp_path))
    assert outcome["failures"] == ["wrong"]
    assert outcome["attempted"] == len(workloads.LADDER_TINY)


def test_a_wrong_pinned_ext_counts_as_failed(tmp_path, monkeypatch):
    label, spec, m, pinned = workloads.EXT_TINY[0]
    monkeypatch.setattr(workloads, "EXT_TINY", ((label, spec, m, pinned - 1),))
    assert run.run_pass(_tiny_cells("certify", tmp_path))["failures"] == ["wrong"]


def test_a_dropped_sweep_cell_counts_as_failed(tmp_path, monkeypatch):
    args, expected = workloads.SWEEP_TINY[0]
    monkeypatch.setattr(workloads, "SWEEP_TINY", ((args, expected + 1),))
    assert run.run_pass(_tiny_cells("sweep", tmp_path))["failures"] == ["error"] * (expected + 1)


def test_the_brute_force_rainbow_check():
    path = ((0, 1), (1, 2), (2, 3), (3, 4))
    cycle = ((0, 1), (1, 2), (2, 3), (3, 0))
    assert workloads.has_rainbow_matching(path, (1, 2, 1, 2), 2)
    assert not workloads.has_rainbow_matching(path, (1, 1, 1, 1), 2)
    assert not workloads.has_rainbow_matching(cycle, (1, 2, 1, 2), 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_sum_to_the_traced_wall_time(workload, tmp_path):
    from spans import Tracer, layer_metrics

    cells = _tiny_cells(workload, tmp_path)
    tracer = Tracer()
    outcome = run.run_pass(cells, tracer)
    metrics = layer_metrics(outcome["spans"], outcome["wall_s"])
    assert 0.9 <= metrics["trace.coverage_frac"] <= 1.0 + 1e-9
    assert outcome["failures"] == []


def test_the_tracer_restores_every_function():
    from rainbowlab import cli, extremal, verify
    from spans import Tracer

    before = (extremal.rb_exact, verify.rb_exact, cli.main, verify.max_matching_size)
    tracer = Tracer()
    tracer.install()
    assert verify.rb_exact is not before[1] and verify.rb_exact.__wrapped__ is before[1]
    tracer.uninstall()
    assert (extremal.rb_exact, verify.rb_exact, cli.main, verify.max_matching_size) == before


def test_the_seed_fixes_the_inputs(tmp_path):
    def inputs(seed, sub):
        _tiny_cells("certify", tmp_path / sub, seed)
        return [p.read_text() for p in sorted((tmp_path / sub).glob("check*"))]

    assert inputs(7, "a") == inputs(7, "b")
    assert inputs(7, "a") != inputs(8, "c")


def test_it_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "ladder", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
