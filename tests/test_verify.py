import re

import pytest

from rainbowlab import (
    THEOREM_IDS,
    BudgetExceededError,
    apply_allowlist,
    ext_exact,
    identify_vertices,
    make_family,
    make_path,
    rb_exact,
    rb_bounds,
    verify_theorem,
)
from rainbowlab import verify
from rainbowlab.verify import VerificationRecord
from rainbowlab.cli import main

# Records of each claim on its default grid: T2.x sweep n = 3..5, k = 2..n,
# m = 2..3 with m <= n and 5 realizations; T3.1/T3.5 paths with 2..9 edges,
# T3.4/T3.6 cycles with 3..9 edges, T3.2/C3.3 paths with 3..8 edges and 5
# random identifications.
DEFAULT_GRID_SIZE = {
    "T2.3": 90,
    "T2.4": 90,
    "T2.5": 90,
    "T3.1": 16,
    "T3.2/C3.3": 14,
    "T3.4": 12,
    "T3.5": 16,
    "T3.6": 12,
}


def test_every_claim_has_a_default_grid():
    assert set(DEFAULT_GRID_SIZE) == set(THEOREM_IDS)


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_default_grid_record_count(theorem_id):
    records = verify_theorem(theorem_id)
    assert len(records) == DEFAULT_GRID_SIZE[theorem_id]
    assert {r.theorem_id for r in records} == {theorem_id}


def test_monotonicity_default_record_count():
    records = verify_theorem("T3.2/C3.3")
    assert len(records) == 9 + 5
    assert [r.family for r in records[9:]] == ["random_identification"] * 5


def test_default_t24_refuses_exactly_the_cells_over_the_edge_budget():
    records = verify_theorem("T2.4")
    refused = [r for r in records if r.note.startswith("budget refusal:")]
    assert len(refused) == 20
    assert all(r.status == "not_applicable" and r.oracle_value is None for r in refused)
    assert all(r.n * r.k > 16 for r in refused)


def test_a_dense_random_regular_sweep_matches_on_every_seed():
    # seed 19 meets a dead end while drawing its graph, and must still be checked
    records = verify_theorem("T2.3", n_range=(16, 16), k_range=(12, 12), m_range=(2, 2),
                             samples=21)
    assert [r.seed for r in records] == [None, *range(20)]
    assert all(r.status == "match" for r in records)


def test_unknown_claim_id_lists_the_known_ones():
    with pytest.raises(ValueError) as exc:
        verify_theorem("T9.9")
    assert all(theorem_id in str(exc.value) for theorem_id in THEOREM_IDS)


def test_regular_grid_rejects_fewer_than_one_sample():
    with pytest.raises(ValueError, match="samples"):
        verify_theorem("T2.4", samples=0)


def test_verify_help_lists_exactly_the_claim_ids(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    positional = capsys.readouterr().out.split("positional arguments:")[1]
    choices = re.search(r"\{([^}]*)\}", positional).group(1)
    assert tuple(choices.split(",")) == THEOREM_IDS


@pytest.mark.parametrize("theorem_id", ["T3.1", "T3.2/C3.3", "T3.4", "T3.5", "T3.6"])
def test_path_and_cycle_claims_refuse_a_k_range(theorem_id):
    with pytest.raises(ValueError, match="k range cannot be honoured"):
        verify_theorem(theorem_id, k_range=(2, 3))


@pytest.mark.parametrize("theorem_id", ["T3.1", "T3.4", "T3.5", "T3.6"])
def test_path_and_cycle_claims_refuse_a_sample_count(theorem_id):
    with pytest.raises(ValueError, match="sample count cannot be honoured"):
        verify_theorem(theorem_id, samples=5)
    # the seed is accepted by every claim, read or not
    assert verify_theorem(theorem_id, n_range=(4, 4), seed=3)


def _masked(records):
    return [dict(vars(r), elapsed_ms=0.0) for r in records]


@pytest.mark.parametrize("seed", [0, 7, 1000])
def test_each_random_identification_is_the_record_of_its_own_seed(seed):
    records = verify_theorem("T3.2/C3.3", n_range=(3, 11), samples=10, seed=seed)
    drawn = [r for r in records if r.family == "random_identification"]
    assert [r.seed for r in drawn] == list(range(seed, seed + 10))
    for r in drawn:
        alone = verify_theorem("T3.2/C3.3", n_range=(3, 3), samples=1, seed=r.seed)
        assert _masked(alone) == _masked([r])


@pytest.mark.parametrize(("m_range", "drawn"), [((3, 3), 0), ((9, 9), 0), ((2, 3), 2),
                                               ((1, 2), 2), (None, 2)])
def test_random_identifications_run_only_when_the_m_range_includes_2(m_range, drawn):
    records = verify_theorem("T3.2/C3.3", n_range=(6, 8), m_range=m_range, samples=2)
    families = [r.family for r in records]
    assert families.count("random_identification") == drawn
    assert families.count("path_vs_cycle") == len(verify_theorem(
        "T3.2/C3.3", n_range=(6, 8), m_range=m_range, samples=0))
    assert all(r.m == 2 for r in records if r.family == "random_identification")


NOTE = re.compile(r"merged vertices (\d+) and (\d+) of a path with (\d+) edges")


def test_random_identifications_merge_pairs_at_least_three_apart():
    records = verify_theorem("T3.2/C3.3", n_range=(3, 3), samples=400)
    drawn = [(r.n, *map(int, NOTE.fullmatch(r.note).groups())) for r in records]
    assert all(v - u >= 3 and edges == n for n, u, v, edges in drawn)
    # every pair that identify_vertices accepts on a path with 5..8 edges is drawn
    assert {(n, u, v) for n, u, v, _ in drawn} == {
        (n, u, v) for n in range(5, 9) for u in range(n + 1) for v in range(u + 3, n + 1)}
    assert all(r.status == "match" for r in records)
    # the default sweep's draws, which the record's seed reproduces
    assert [r.note for r in verify_theorem("T3.2/C3.3")[9:]] == [
        f"merged vertices {u} and {v} of a path with {n} edges"
        for n, u, v in [(8, 2, 7), (6, 3, 6), (5, 0, 3), (6, 3, 6), (6, 1, 4)]]


def test_allowlist_entry_for_another_claim_acknowledges_nothing():
    entries = [{"theorem_id": "T3.5", "family": "cycle", "n": 4, "m": 2}]
    record = VerificationRecord("T3.6", "cycle", 4, None, 2, None, 2, 3, "discrepancy", 0.0)
    apply_allowlist([record], entries)
    assert not record.acknowledged
    entries.append({"theorem_id": "T3.6", "family": "cycle", "n": 4, "m": 2})
    match = VerificationRecord("T3.6", "cycle", 4, None, 2, None, 3, 3, "match", 0.0)
    apply_allowlist([match, record], entries)
    assert record.acknowledged and not match.acknowledged


@pytest.mark.parametrize("theorem_id", ["T3.1", "T3.4"])
def test_path_and_cycle_bound_records_claim_rb_bounds(theorem_id):
    records = verify_theorem(theorem_id)
    assert {r.family for r in records} == {"path" if theorem_id == "T3.1" else "cycle"}
    for r in records:
        assert r.claimed == rb_bounds(r.family, r.n, None, r.m) == (2 * r.m - 2, 2 * r.m - 1)
        assert r.status == "within_bounds", r


def test_formula_notes_name_the_silent_t25_cells_and_the_disputed_c4_cell():
    [silent] = verify_theorem("T2.5", n_range=(3, 3), k_range=(3, 3), m_range=(2, 2),
                              samples=1)
    assert (silent.status, silent.claimed, silent.oracle_value, silent.note) == (
        "not_applicable", None, None, "needs k >= 3 and n > 3(m-1)")
    cycles = verify_theorem("T3.6", n_range=(4, 6), m_range=(2, 2))
    assert [(r.n, r.status, r.note) for r in cycles] == [
        (4, "discrepancy", "formula cell flagged as disputed"), (5, "match", ""),
        (6, "match", "")]
    # the path with 4 edges shares (n, m) = (4, 2) with the C4 cell but is not disputed
    [path] = verify_theorem("T3.5", n_range=(4, 4), m_range=(2, 2))
    assert (path.status, path.note) == ("match", "")


# The first cell of the benchmark's sweep: 20 (n, k) pairs times 5 realizations
# are 100 graphs, and with m = 2..min(5, n) they make 365 cells.
T23_SWEEP = dict(n_range=(3, 7), k_range=(2, 7), m_range=(2, 5), seed=1)


def test_a_sweep_builds_each_graph_once_per_call(monkeypatch):
    builds = []

    def counting(family, n, k=None, seed=0):
        builds.append((family, n, k, seed))
        return make_family(family, n, k, seed)

    monkeypatch.setattr(verify, "make_family", counting)
    records = verify_theorem("T2.3", **T23_SWEEP)
    assert len(records) == 365
    assert len(builds) == len(set(builds)) == 100
    # a second call keeps nothing from the first, so it builds every graph again
    verify_theorem("T2.3", **T23_SWEEP)
    assert len(builds) == 200 and set(builds[100:]) == set(builds[:100])


def test_a_sweep_that_builds_each_graph_once_gives_the_records_of_a_build_per_cell():
    records = verify_theorem("T2.3", **T23_SWEEP)
    expected = []
    for n in range(3, 8):
        for k in range(2, n + 1):
            for m in range(2, min(5, n) + 1):
                for family, seed in [("circulant", None)] + [("random_regular", 1 + i)
                                                             for i in range(4)]:
                    oracle = ext_exact(make_family(family, n, k, seed), m).value
                    expected.append(("T2.3", family, n, k, m, seed, oracle, k * (m - 1),
                                     "match" if oracle == k * (m - 1) else "discrepancy",
                                     "", False))
    assert [(r.theorem_id, r.family, r.n, r.k, r.m, r.seed, r.oracle_value, r.claimed,
             r.status, r.note, r.acknowledged) for r in records] == expected


def test_a_graph_whose_build_is_refused_gives_one_record_per_m(monkeypatch):
    def refuse_random(family, n, k=None, seed=0):
        if family == "random_regular":
            raise BudgetExceededError("retry budget exhausted")
        return make_family(family, n, k, seed)

    monkeypatch.setattr(verify, "make_family", refuse_random)
    records = verify_theorem("T2.4", n_range=(4, 4), k_range=(2, 2), m_range=(2, 4), samples=2)
    assert [(r.family, r.m, r.status, r.note) for r in records] == [
        (family, m, status, note)
        for m in (2, 3, 4)
        for family, status, note in [
            ("circulant", "within_bounds", ""),
            ("random_regular", "not_applicable", "budget refusal: retry budget exhausted")]]


def test_the_path_vs_cycle_check_builds_each_path_and_cycle_once(monkeypatch):
    builds, identifications = [], []

    def counting_build(family, n, k=None, seed=0):
        builds.append((family, n))
        return make_family(family, n, k, seed)

    def counting_identify(g, u, v):
        identifications.append((g.edge_count, u, v))
        return identify_vertices(g, u, v)

    monkeypatch.setattr(verify, "make_family", counting_build)
    monkeypatch.setattr(verify, "identify_vertices", counting_identify)
    records = verify_theorem("T3.2/C3.3", n_range=(3, 11), samples=0, seed=11)
    # n = 4..11 with 2 <= m <= n // 2 are 20 cells on 8 paths and their 8 cycles
    assert len(records) == 20
    assert sorted(builds) == sorted((family, n) for family in ("cycle", "path")
                                    for n in range(4, 12))
    assert identifications == []


def test_the_path_vs_cycle_records_are_those_of_the_identified_path():
    records = verify_theorem("T3.2/C3.3", n_range=(3, 11), samples=0, seed=11)
    expected = []
    for n in range(4, 12):
        path = make_path(n)
        for m in range(2, n // 2 + 1):
            rb_path = rb_exact(path, m).rb_value
            rb_cycle = rb_exact(identify_vertices(path, 0, n), m).rb_value
            expected.append(("T3.2/C3.3", "path_vs_cycle", n, None, m, None, rb_path,
                             (None, rb_cycle), "match" if rb_path <= rb_cycle else "discrepancy",
                             "path value must not exceed the identified-cycle value"))
    assert [(r.theorem_id, r.family, r.n, r.k, r.m, r.seed, r.oracle_value, r.claimed,
             r.status, r.note) for r in records] == expected
