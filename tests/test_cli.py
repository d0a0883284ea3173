import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rainbowlab import Coloring, cli, make_path, rb_exact, save_coloring
from rainbowlab.cli import (
    EXIT_BUDGET,
    EXIT_CERTIFICATION,
    EXIT_DISCREPANCY,
    EXIT_OK,
    EXIT_USAGE,
    main,
)

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "known_discrepancies.allow"

# The shared flags each subcommand reads; every other shared flag is rejected.
HONOURED = {
    "gen": {"--out", "--seed"},
    "rb": {"--format", "--out", "--budget-edges", "--timeout-ms"},
    "ext": {"--format", "--out"},
    "check": set(),
    "construct": {"--format", "--out"},
    "verify": {"--format", "--out", "--seed", "--budget-edges", "--timeout-ms", "--allowlist"},
    "monotonicity": {"--format", "--out", "--seed", "--budget-edges", "--timeout-ms",
                     "--allowlist"},
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
        (["verify", "T3.5", "--n", "2..3"], ["--workers", "2"]),
    ],
    ids=["gen", "rb", "ext", "check", "construct", "verify"],
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


@pytest.mark.parametrize(
    ("args", "header"),
    [
        (["path", "6"], "graph 7 6"),
        (["cycle", "6"], "graph 6 6"),
        (["complete_bipartite", "3"], "bipartite 3 3 9"),
        (["circulant", "4", "3"], "bipartite 4 4 12"),
        (["random_regular", "5", "2"], "bipartite 5 5 10"),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_gen_writes_the_header_of_each_family(args, header, capsys):
    assert main(["gen", *args]) == EXIT_OK
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert lines[0] == header


@pytest.mark.parametrize(
    ("args", "message"),
    [
        (["circulant", "4"], "family 'circulant' needs both n and k"),
        (["random_regular", "4"], "family 'random_regular' needs both n and k"),
        (["cycle", "6", "2"], "family 'cycle' takes only n"),
    ],
    ids=["circulant", "random_regular", "cycle"],
)
def test_gen_with_the_wrong_parameters_is_a_usage_error(args, message, capsys):
    assert main(["gen", *args]) == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_rb_json_reports_value_and_node_count(files, capsys):
    graph, _ = files
    assert main(["rb", graph, "3", "--format", "json"]) == EXIT_OK
    [record] = json.loads(capsys.readouterr().out)
    expected = rb_exact(make_path(6), 3)
    assert record["rb_value"] == expected.rb_value == 5
    assert record["colorings_examined"] == expected.colorings_examined
    assert record["agrees"] is True


@pytest.mark.parametrize(
    ("family", "m", "formula"),
    [
        (["cycle", "4"], 2, [3, 2, "cycle_two_branch (disputed cell)", False]),
        (["cycle", "6"], 3, [5, 5, "cycle_two_branch", True]),
        (["complete_bipartite", "3"], 3, [5, 5, "complete_bipartite", True]),
        (["circulant", "7", "3"], 3, [5, 5, "regular_exact", True]),
        # T2.5 needs n > 3(m-1), so it says nothing on circulant(3, 3) with m = 2
        (["circulant", "3", "3"], 2, [2, None, None, None]),
        # the path formula rejects m = 1
        (["path", "6"], 1, [1, None, None, None]),
        (["path", "6"], 3, [5, 5, "path_two_branch", True]),
        (["random_regular", "7", "3"], 3, [5, 5, "regular_exact", True]),
    ],
    ids=["cycle4_disputed", "cycle6", "complete_bipartite3", "circulant7_3", "circulant3_3",
         "path6_m1", "path6", "random_regular7_3"],
)
def test_rb_json_reports_the_family_formula(family, m, formula, tmp_path, capsys):
    graph = str(tmp_path / "g.txt")
    assert main(["gen", *family, "--out", graph]) == EXIT_OK
    assert main(["rb", graph, str(m), "--budget-edges", "21", "--format", "json"]) == EXIT_OK
    [record] = json.loads(capsys.readouterr().out)
    assert [record[key] for key in ("rb_value", "formula_value", "formula_source",
                                    "agrees")] == formula


def test_rb_reads_the_graph_file_once(tmp_path, monkeypatch, capsys):
    graph = tmp_path / "p6.txt"
    assert main(["gen", "path", "6", "--out", str(graph)]) == EXIT_OK
    reads = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(graph):
            reads.append(file)
        return real_open(file, *args, **kwargs)

    # builtins.open and pathlib's io.open are the same function under two names
    monkeypatch.setattr("builtins.open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    assert main(["rb", str(graph), "3", "--format", "json"]) == EXIT_OK
    assert len(reads) == 1
    assert json.loads(capsys.readouterr().out)[0]["formula_source"] == "path_two_branch"


def test_rb_json_reports_no_formula_when_the_header_lacks_a_parameter(tmp_path, capsys):
    graph = tmp_path / "k22.txt"
    graph.write_text("# rainbowlab family=complete_bipartite\n"
                     "bipartite 2 2 4\n0 2\n0 3\n1 2\n1 3\n", encoding="utf-8")
    assert main(["rb", str(graph), "2", "--format", "json"]) == EXIT_OK
    [record] = json.loads(capsys.readouterr().out)
    assert (record["family"], record["n"], record["rb_value"]) == ("complete_bipartite", 4, 3)
    assert [record["formula_value"], record["formula_source"], record["agrees"]] == [None] * 3


def test_ext_json_reports_the_cover(tmp_path, capsys):
    path, cycle = str(tmp_path / "p6.txt"), str(tmp_path / "c5.txt")
    assert main(["gen", "path", "6", "--out", path]) == EXIT_OK
    assert main(["gen", "cycle", "5", "--out", cycle]) == EXIT_OK
    capsys.readouterr()
    assert main(["ext", path, "3", "--format", "json"]) == EXIT_OK
    [record] = json.loads(capsys.readouterr().out)
    assert (record["value"], record["method"]) == (4, "cover_based")
    assert record["witness_edges"] == [1, 2, 3, 4]
    assert record["cover"] == [1, 3]
    # C5 has a 5-cycle, 2m - 1 long at m = 3: the branch-and-bound route, which has no cover
    assert main(["ext", cycle, "3", "--format", "json"]) == EXIT_OK
    [record] = json.loads(capsys.readouterr().out)
    assert (record["method"], record["cover"], record["value"]) == ("branch_and_bound", None, 5)
    # at m = 2 its odd girth exceeds 2m - 1, so the cover route answers
    assert main(["ext", cycle, "2", "--format", "json"]) == EXIT_OK
    [record] = json.loads(capsys.readouterr().out)
    assert (record["method"], record["cover"]) == ("cover_based", [0])


def test_rb_honours_its_budget_and_timeout(tmp_path, capsys):
    graph = str(tmp_path / "p14.txt")
    assert main(["gen", "path", "14", "--out", graph]) == EXIT_OK
    assert main(["rb", graph, "4", "--budget-edges", "13"]) == EXIT_BUDGET
    assert main(["rb", graph, "4", "--timeout-ms", "0"]) == EXIT_BUDGET
    capsys.readouterr()
    assert main(["rb", graph, "4", "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)[0]["rb_value"] == 6


@pytest.mark.parametrize(
    "args",
    [["rb", "{graph}", "3"], ["verify", "T3.5", "--n", "2..8"], ["verify", "T2.3", "--n", "3..4"]],
    ids=["rb", "verify", "verify_ext_only"],
)
def test_a_nan_timeout_is_a_usage_error(files, args, capsys):
    # a NaN deadline would compare false with every time and never stop a search
    graph, _ = files
    argv = [arg.format(graph=graph) for arg in args] + ["--timeout-ms", "nan"]
    assert main(argv) == EXIT_USAGE
    assert "got NaN" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("args", "limit", "message"),
    [(args, limit, message)
     for args in (["rb", "{graph}", "3"], ["verify", "T3.5", "--n", "2..4"],
                  ["verify", "T2.3", "--n", "3..4"])
     for limit, message in ((["--timeout-ms", "-1"], "timeout must be at least 0"),
                            (["--budget-edges", "-1"], "edge budget must be at least 0"))],
    ids=["rb_timeout", "rb_budget", "verify_timeout", "verify_budget",
         "verify_ext_only_timeout", "verify_ext_only_budget"],
)
def test_a_negative_limit_is_a_usage_error(files, args, limit, message, capsys):
    # a negative limit used to refuse every cell as over budget: rb exited 2,
    # and verify exited 0 with every cell not_applicable.  T2.3's cells run
    # no rb search, so verify must check the limits before its first cell.
    graph, _ = files
    assert main([arg.format(graph=graph) for arg in args] + limit) == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_check_prints_the_witness_of_a_planted_coloring(files, capsys):
    graph, coloring = files
    assert main(["check", graph, coloring, "3"]) == EXIT_OK
    assert capsys.readouterr().out == "witness edges=e1,e3,e5 colors=1,3,2\n"


def test_check_prints_none_on_a_construction_coloring(tmp_path, capsys):
    graph, coloring = str(tmp_path / "p9.txt"), str(tmp_path / "p9.col")
    assert main(["gen", "path", "9", "--out", graph]) == EXIT_OK
    assert main(["construct", "path_tight", "9", "4", "--out", coloring]) == EXIT_OK
    capsys.readouterr()
    assert main(["check", graph, coloring, "4"]) == EXIT_OK
    assert capsys.readouterr().out == "none\n"


def test_check_rejects_a_coloring_of_another_edge_count(files, tmp_path, capsys):
    graph, _ = files
    coloring = tmp_path / "short.col"
    save_coloring(Coloring((1, 2, 1, 2, 1), 2), coloring)
    assert main(["check", graph, str(coloring), "2"]) == EXIT_USAGE
    assert "coloring covers 5 edges but graph has 6" in capsys.readouterr().err


def test_construct_json_has_no_duplicate_bound_column(capsys):
    assert main(["construct", "path_simple", "5", "3", "--format", "json"]) == EXIT_OK
    [record] = json.loads(capsys.readouterr().out)
    assert set(record) == {"construction", "colors_used", "rainbow_free_certified", "pattern"}
    assert record["colors_used"] == 3


def test_construct_regular_reads_a_graph_file(tmp_path, capsys):
    graph, coloring = tmp_path / "circ53.txt", tmp_path / "circ53.col"
    assert main(["gen", "circulant", "5", "3", "--out", str(graph)]) == EXIT_OK
    assert main(["construct", "regular", str(graph), "3", "--format", "json",
                 "--out", str(coloring)]) == EXIT_OK
    [record] = json.loads(capsys.readouterr().out)
    assert record["construction"] == "regular graph=circ53.txt m=3"
    assert (record["colors_used"], record["rainbow_free_certified"]) == (4, True)
    assert main(["check", str(graph), str(coloring), "3"]) == EXIT_OK
    assert capsys.readouterr().out == "none\n"


@pytest.mark.parametrize(
    "params", [["path_tight", "9"], ["path_tight", "9", "4", "2"], ["regular", "g.txt"]],
    ids=["too_few", "too_many", "regular_too_few"],
)
def test_construct_with_the_wrong_arity_is_a_usage_error(params, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", *params])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("kind", ["path_simple", "path_tight", "cycle_tight"])
def test_construct_with_a_non_integer_n_names_the_kind(kind, capsys):
    assert main(["construct", kind, "x", "3"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"construct {kind} takes N, which must be an integer, got 'x'" in err
    assert "invalid literal" not in err


def test_regular_claim_without_samples_is_a_usage_error(capsys):
    assert main(["verify", "T2.4", "--samples", "0"]) == EXIT_USAGE
    assert "samples must be at least 1" in capsys.readouterr().err
    # monotonicity reads --samples 0 as "no random identifications"
    assert main(["monotonicity", "--samples", "0", "--format", "json"]) == EXIT_OK
    families = {record["family"] for record in json.loads(capsys.readouterr().out)}
    assert families == {"path_vs_cycle"}


def test_monotonicity_with_a_negative_sample_count_is_a_usage_error(capsys):
    assert main(["monotonicity", "--samples", "-1"]) == EXIT_USAGE
    assert "samples must be at least 0" in capsys.readouterr().err


def test_verify_csv_has_the_record_columns(capsys):
    assert main(["verify", "T3.2/C3.3", "--n", "3..4", "--samples", "0",
                 "--format", "csv"]) == EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == cli.RECORD_COLUMNS
    [record] = [dict(zip(rows[0], row)) for row in rows[1:]]
    assert (record["family"], record["n"], record["m"]) == ("path_vs_cycle", "4", "2")
    assert (record["oracle_value"], record["claimed"], record["status"]) == ("2", "..3", "match")


@pytest.mark.parametrize(
    "args",
    [[], ["--n", "3..6", "--samples", "3", "--seed", "4"], ["--m", "2..2", "--samples", "0"],
     ["--budget-edges", "5", "--samples", "2"], ["--samples", "-1"]],
    ids=["defaults", "samples", "m_only", "budget", "negative_samples"],
)
def test_monotonicity_is_verify_t32_c33(args, capsys):
    def run(argv):
        rc = main(argv + args + ["--format", "json"])
        out, err = capsys.readouterr()
        rows = json.loads(out) if out else []
        return rc, [dict(row, elapsed_ms=0.0) for row in rows], err

    assert run(["monotonicity"]) == run(["verify", "T3.2/C3.3"])


def test_monotonicity_budget_refusal_is_a_record(capsys):
    # every path above 4 edges is refused, the random identifications included
    assert main(["monotonicity", "--budget-edges", "4", "--format", "json"]) == EXIT_OK
    records = json.loads(capsys.readouterr().out)
    assert [r["status"] for r in records] == ["match"] + ["not_applicable"] * 13
    assert [r["family"] for r in records[9:]] == ["random_identification"] * 5
    assert all(r["note"].startswith("budget refusal: ") for r in records[1:])


@pytest.mark.parametrize(
    "argv",
    [["verify", "T3.5", "--n", "9..2"], ["monotonicity", "--m", "3..2"]],
    ids=["verify_n", "monotonicity_m"],
)
def test_reversed_range_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "empty range" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["x", "3..y", "3..", "..5", "2.5"])
def test_a_range_that_is_not_integers_names_the_expected_form(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "T3.5", "--n", value])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "A or A..B" in err and repr(value) in err
    assert "_parse_range" not in err


def test_a_sweep_that_selects_no_cell_is_a_usage_error(capsys):
    # k = 9 exceeds n = 3, so no regular graph exists: the sweep would check nothing
    assert main(["verify", "T2.3", "--n", "3", "--k", "9..9"]) == EXIT_USAGE
    assert "select no cell" in capsys.readouterr().err
    # no path has a cell at m = 9, and the random identifications are at m = 2
    assert main(["verify", "T3.2/C3.3", "--m", "9..9", "--samples", "1"]) == EXIT_USAGE
    assert "select no cell" in capsys.readouterr().err
    # no path with 3 edges has a cell, but the random identifications are records
    assert main(["monotonicity", "--n", "3..3", "--format", "json"]) == EXIT_OK
    families = {record["family"] for record in json.loads(capsys.readouterr().out)}
    assert families == {"random_identification"}


def test_k_range_on_a_path_claim_is_a_usage_error(capsys):
    assert main(["verify", "T3.5", "--n", "2..3", "--k", "7..9"]) == EXIT_USAGE
    assert "k range cannot be honoured" in capsys.readouterr().err


def test_samples_on_a_path_claim_is_a_usage_error(capsys):
    argv = ["verify", "T3.5", "--n", "2..3", "--format", "json"]
    # the seed is accepted by every claim, read or not
    assert main(argv + ["--seed", "3"]) == EXIT_OK
    capsys.readouterr()
    assert main(argv + ["--samples", "5"]) == EXIT_USAGE
    assert "sample count cannot be honoured" in capsys.readouterr().err


def test_samples_default_to_five_graphs_per_regular_cell(capsys):
    argv = ["verify", "T2.3", "--n", "3", "--k", "2", "--m", "2", "--format", "json"]
    assert main(argv) == EXIT_OK
    records = json.loads(capsys.readouterr().out)
    assert [r["family"] for r in records] == ["circulant"] + ["random_regular"] * 4
    assert main(argv + ["--samples", "2"]) == EXIT_OK
    assert len(json.loads(capsys.readouterr().out)) == 2


def test_gen_writes_a_dense_random_regular_graph(capsys):
    # seed 19 meets a dead end while drawing; the draw must still end in a graph
    assert main(["gen", "random_regular", "16", "12", "--seed", "19"]) == EXIT_OK
    assert "\nbipartite 16 16 192\n" in capsys.readouterr().out


def test_gen_seed_on_a_family_that_is_not_random_is_a_usage_error(capsys):
    assert main(["gen", "path", "4", "--seed", "7"]) == EXIT_USAGE
    assert "family 'path' is not random" in capsys.readouterr().err
    assert main(["gen", "random_regular", "5", "2", "--seed", "7"]) == EXIT_OK
    assert "seed=7" in capsys.readouterr().out
    assert main(["gen", "random_regular", "5", "2"]) == EXIT_OK
    assert "seed=0" in capsys.readouterr().out


def test_known_discrepancy_exits_3_unless_allowlisted(capsys):
    argv = ["verify", "T3.6", "--n", "4", "--m", "2", "--format", "json"]
    assert main(argv) == EXIT_DISCREPANCY
    [record] = json.loads(capsys.readouterr().out)
    assert record["status"] == "discrepancy" and record["acknowledged"] is False
    assert main(argv + ["--allowlist", str(ALLOWLIST)]) == EXIT_OK
    [record] = json.loads(capsys.readouterr().out)
    assert record["acknowledged"] is True


def test_verify_summary_counts_every_status(capsys):
    assert main(["verify", "T2.4", "--format", "json"]) == EXIT_OK
    assert capsys.readouterr().err == (
        "matches=0 within_bounds=70 discrepancies=0 (acknowledged=0) not_applicable=20\n")


@pytest.mark.parametrize(
    ("extra", "stream"),
    [
        ([], "out"),
        (["--format", "json"], "err"),
        (["--format", "csv"], "err"),
        (["--out", "{out}"], "out"),
        (["--format", "json", "--out", "{out}"], "out"),
        (["--format", "csv", "--out", "{out}"], "out"),
    ],
    ids=["table", "json", "csv", "table_out", "json_out", "csv_out"],
)
@pytest.mark.parametrize("allowlisted", [False, True], ids=["bare", "allowlisted"])
def test_summary_line_stays_off_the_stream_that_carries_json_or_csv(
        extra, stream, allowlisted, tmp_path, capsys):
    argv = ["verify", "T3.6", "--n", "3..6", "--m", "2"]
    argv += [a.format(out=tmp_path / "records") for a in extra]
    if allowlisted:
        argv += ["--allowlist", str(ALLOWLIST)]
    assert main(argv) == (EXIT_OK if allowlisted else EXIT_DISCREPANCY)
    captured = capsys.readouterr()
    line = ("matches=2 within_bounds=0 discrepancies=1 "
            f"(acknowledged={int(allowlisted)}) not_applicable=0")
    assert getattr(captured, stream).splitlines()[-1] == line
    assert line not in (captured.err if stream == "out" else captured.out)


@pytest.mark.parametrize("line", ["T3.6 colour=red", "T3.6 n4", "T3.7 n=4"],
                         ids=["unknown_key", "no_equals", "unknown_theorem"])
def test_malformed_allowlist_is_a_usage_error(line, tmp_path, capsys):
    allowlist = tmp_path / "bad.allow"
    allowlist.write_text(line + "\n", encoding="utf-8")
    assert main(["verify", "T3.6", "--n", "4", "--m", "2",
                 "--allowlist", str(allowlist)]) == EXIT_USAGE
    assert "allowlist" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "bad_file", "text", "message"),
    [
        (["rb", "{bad}", "2"], "bad.txt", "graph 2 1\n0 x\n", "bad edge line: '0 x'"),
        (["check", "{graph}", "{bad}", "2"], "bad.col", "coloring 6 2\n1 1\n2 x\n",
         "bad coloring line: '2 x'"),
        (["verify", "T3.6", "--n", "4", "--m", "2", "--allowlist", "{bad}"], "bad.allow",
         "T3.6 n=four\n", "non-integer field in line 'T3.6 n=four'"),
    ],
    ids=["rb_graph", "check_coloring", "verify_allowlist"],
)
def test_a_malformed_line_file_is_named_in_the_error(argv, bad_file, text, message, files,
                                                      tmp_path, capsys):
    graph, _ = files
    bad = tmp_path / bad_file
    bad.write_text(text, encoding="utf-8")
    assert main([a.format(graph=graph, bad=bad) for a in argv]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"rainbowlab: error: {bad}: {message}\n"
    assert graph not in err


@pytest.fixture
def no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("searched a graph whose metadata is a file error")

    monkeypatch.setattr(cli, "rb_exact", refuse)
    monkeypatch.setattr(cli, "ext_exact", refuse)


@pytest.mark.parametrize("command", ["rb", "ext"])
def test_non_integer_metadata_is_a_file_error_before_any_search(command, tmp_path, no_search,
                                                                 capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("# rainbowlab family=circulant n=3 k=z\nbipartite 3 3 3\n0 3\n1 4\n2 5\n",
                   encoding="utf-8")
    assert main([command, str(bad), "2"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"rainbowlab: error: {bad}: non-integer field in line "
        "'# rainbowlab family=circulant n=3 k=z'\n")


@pytest.mark.parametrize(
    ("family", "edit", "message"),
    [
        (["circulant", "7", "3"], ("k=3", "k=4"),
         "circulant k=4 does not describe a graph with degrees [3]"),
        (["circulant", "7", "3"], ("n=7", "n=9"),
         "circulant n=9 does not describe a graph on 14 vertices"),
        (["random_regular", "6", "3"], ("k=3", "k=2"),
         "random_regular k=2 does not describe a graph with degrees [3]"),
        (["complete_bipartite", "3"], ("n=3", "n=3 k=2"),
         "complete_bipartite has k = n, got n=3 k=2"),
        (["path", "6"], ("n=6", "n=7"), "path n=7 does not describe a graph with 6 edges"),
        (["cycle", "6"], ("n=6", "n=5"), "cycle n=5 does not describe a graph with 6 edges"),
    ],
    ids=["circulant_k", "circulant_n", "random_regular_k", "complete_bipartite_k", "path_n",
         "cycle_n"],
)
@pytest.mark.parametrize("command", ["rb", "ext"])
def test_metadata_that_does_not_describe_the_graph_is_a_file_error(command, family, edit,
                                                                   message, tmp_path, capsys):
    graph = tmp_path / "g.graph"
    budget = ["--budget-edges", "21"] if command == "rb" else []
    assert main(["gen", *family, "--out", str(graph)]) == EXIT_OK
    assert main([command, str(graph), "3", *budget]) == EXIT_OK  # the file as written
    text = graph.read_text(encoding="utf-8")
    graph.write_text(text.replace(*edit, 1), encoding="utf-8")
    capsys.readouterr()
    assert main([command, str(graph), "3"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"rainbowlab: error: {graph}: {message}\n"


# Graphs with the vertex count and the degrees of the family they claim, and an
# odd cycle: the triangular prism as K_{3,3}, and the 8-cycle with its four
# long chords as a 3-regular graph on 4 + 4 vertices.
ODD_CYCLE_GRAPHS = {
    "prism": ("complete_bipartite n=3", 6,
              [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
    "chorded_8_cycle": ("circulant n=4 k=3", 8,
                        [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]),
}


@pytest.mark.parametrize("graph", sorted(ODD_CYCLE_GRAPHS))
@pytest.mark.parametrize("command", ["rb", "ext"])
def test_a_bipartite_family_with_an_odd_cycle_is_a_file_error_before_any_search(
        command, graph, tmp_path, no_search, capsys):
    label, vertex_count, edges = ODD_CYCLE_GRAPHS[graph]
    bad = tmp_path / f"{graph}.graph"
    bad.write_text(f"# rainbowlab family={label}\ngraph {vertex_count} {len(edges)}\n"
                   + "".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")
    assert main([command, str(bad), "2"]) == EXIT_USAGE
    family = label.split()[0]
    assert capsys.readouterr().err == (
        f"rainbowlab: error: {bad}: {family} graphs are bipartite, but this graph has an "
        "odd cycle\n")


# Graphs with the edge count of the path or cycle they claim and another shape:
# a tree with a vertex of degree 3, a 2-edge path beside a triangle (the degrees
# of a 5-edge path, but two components) and two disjoint 4-cycles.
MISSHAPEN_GRAPHS = {
    "tree": ("path n=7", 8, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (6, 7)]),
    "path_beside_a_triangle": ("path n=5", 6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]),
    "two_4_cycles": ("cycle n=8", 8,
                     [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]),
}


@pytest.mark.parametrize("graph", sorted(MISSHAPEN_GRAPHS))
@pytest.mark.parametrize("command", ["rb", "ext"])
def test_a_misshapen_path_or_cycle_is_a_file_error_before_any_search(command, graph, tmp_path,
                                                                     no_search, capsys):
    label, vertex_count, edges = MISSHAPEN_GRAPHS[graph]
    bad = tmp_path / f"{graph}.graph"
    bad.write_text(f"# rainbowlab family={label}\ngraph {vertex_count} {len(edges)}\n"
                   + "".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")
    assert main([command, str(bad), "3"]) == EXIT_USAGE
    family = label.split()[0]
    degrees = "1, 1, 2, ..., 2" if family == "path" else "2, ..., 2"
    assert capsys.readouterr().err == (
        f"rainbowlab: error: {bad}: {family} graphs are connected with degrees {degrees}, "
        "but this graph is not\n")


def test_uncertified_construction_exits_4(monkeypatch, capsys):
    real = cli.extremal_coloring_path_tight

    def uncertified(n, m):
        return dataclasses.replace(real(n, m), rainbow_free_certified=False)

    monkeypatch.setattr(cli, "extremal_coloring_path_tight", uncertified)
    assert main(["construct", "path_tight", "6", "3", "--format", "json"]) == EXIT_CERTIFICATION
    [record] = json.loads(capsys.readouterr().out)
    assert record["rainbow_free_certified"] is False


def _run_module(*args: str) -> subprocess.CompletedProcess:
    """The CLI as a user runs it: a fresh `python -m rainbowlab.cli` process."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "rainbowlab.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120, check=False)


def test_the_module_entry_point_runs_a_sweep():
    done = _run_module("verify", "T3.5", "--n", "2..5", "--format", "json")
    assert done.returncode == EXIT_OK, done.stderr
    assert [record["status"] for record in json.loads(done.stdout)] == ["match"] * 4


def test_the_module_entry_point_exits_with_the_budget_refusal_code(tmp_path):
    graph = tmp_path / "p17.txt"
    assert main(["gen", "path", "17", "--out", str(graph)]) == EXIT_OK
    done = _run_module("rb", str(graph), "3")
    assert done.returncode == EXIT_BUDGET
    assert "budget refusal:" in done.stderr
