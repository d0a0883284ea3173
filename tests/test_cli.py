import json
import re

import pytest

from rainbowlab import Coloring, make_path, rb_exact, save_coloring
from rainbowlab.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, main

# The shared flags each subcommand reads; every other shared flag is rejected.
HONOURED = {
    "gen": {"--out", "--seed"},
    "rb": {"--format", "--out", "--budget-edges", "--timeout-ms"},
    "ext": {"--format", "--out"},
    "check": set(),
    "construct": {"--format", "--out"},
    "verify": {"--format", "--out", "--workers", "--seed", "--budget-edges",
               "--timeout-ms", "--allowlist"},
    "monotonicity": {"--format", "--out", "--workers", "--seed", "--budget-edges",
                     "--timeout-ms", "--allowlist"},
}
# Options that belong to one subcommand's own arguments, not to the shared set.
OWN_OPTIONS = {"--help", "--n", "--k", "--m", "--samples"}


@pytest.fixture
def files(tmp_path):
    graph = tmp_path / "p6.txt"
    assert main(["gen", "path", "6", "--out", str(graph)]) == EXIT_OK
    coloring = tmp_path / "p6.col"
    save_coloring(Coloring((1, 2, 3, 1, 2, 3), 3), coloring)
    return str(graph), str(coloring)


@pytest.mark.parametrize("command", sorted(HONOURED))
def test_help_lists_exactly_the_honoured_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed - OWN_OPTIONS == HONOURED[command]


@pytest.mark.parametrize(
    ("args", "flag"),
    [
        (["gen", "path", "4"], ["--format", "json"]),
        (["rb", "{graph}", "2"], ["--workers", "2"]),
        (["ext", "{graph}", "2"], ["--timeout-ms", "5"]),
        (["check", "{graph}", "{coloring}", "2"], ["--format", "json"]),
        (["construct", "path_simple", "5", "3"], ["--budget-edges", "20"]),
    ],
    ids=["gen", "rb", "ext", "check", "construct"],
)
def test_unhonoured_flag_is_a_usage_error(args, flag, files, capsys):
    graph, coloring = files
    argv = [a.format(graph=graph, coloring=coloring) for a in args]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_rb_json_reports_value_and_node_count(files, capsys):
    graph, _ = files
    assert main(["rb", graph, "3", "--format", "json"]) == EXIT_OK
    [record] = json.loads(capsys.readouterr().out)
    expected = rb_exact(make_path(6), 3)
    assert record["rb_value"] == expected.rb_value == 5
    assert record["colorings_examined"] == expected.colorings_examined
    assert record["agrees"] is True


def test_rb_honours_its_budget_and_timeout(tmp_path, capsys):
    graph = str(tmp_path / "p14.txt")
    assert main(["gen", "path", "14", "--out", graph]) == EXIT_OK
    assert main(["rb", graph, "4", "--budget-edges", "13"]) == EXIT_BUDGET
    assert main(["rb", graph, "4", "--timeout-ms", "0"]) == EXIT_BUDGET
    capsys.readouterr()
    assert main(["rb", graph, "4", "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)[0]["rb_value"] == 6


def test_construct_json_has_no_duplicate_bound_column(capsys):
    assert main(["construct", "path_simple", "5", "3", "--format", "json"]) == EXIT_OK
    [record] = json.loads(capsys.readouterr().out)
    assert set(record) == {"construction", "colors_used", "rainbow_free_certified", "pattern"}
    assert record["colors_used"] == 3


def test_verify_records_do_not_depend_on_worker_count(capsys):
    outputs = []
    for workers in ("1", "2"):
        code = main(["verify", "T3.5", "--n", "2..8", "--format", "json", "--workers", workers])
        assert code == EXIT_OK
        records = json.loads(capsys.readouterr().out)
        for record in records:
            del record["elapsed_ms"]
        outputs.append(records)
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) > 1
