"""Witness-bounded search and the YES/NO experiment drivers."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tilejep.core import ColoredGraph, complete_graph, disjoint_union
from tilejep.encoding import compile_colored_class
from tilejep.harness import (
    FOUND,
    NONE,
    _grid_tile_cross_pairs,
    ground_clauses,
    jep_witness_search,
    run_no_experiment,
    run_yes_experiment,
)
from tilejep.hereditary import HereditaryClass, INDETERMINATE
from tilejep.matching import ConstraintPattern, SearchBudget, contains_induced, induced_pattern
from tilejep.tiling import PeriodicTiling, TilingProblem
from tilejep.unary import canonical_A, canonical_B, compile_unary_class

EVERYTHING = HereditaryClass("everything", ())


def test_two_points_jointly_embed_in_everything():
    a = ColoredGraph(["x"])
    b = ColoredGraph(["y"])
    res = jep_witness_search(a, b, EVERYTHING)
    assert res.status == FOUND and len(res.witness) in (1, 2)


def test_color_mismatch_forces_two_vertex_witness():
    cls = HereditaryClass(
        "no-red-blue-edge",
        ("red", "blue"),
        (ConstraintPattern(
            ColoredGraph(["u", "v"], [("u", "v")], {"u": {"red"}, "v": {"blue"}}),
            name="red-blue-edge",
        ),),
    )
    a = ColoredGraph(["x"], [], {"x": {"red"}})
    b = ColoredGraph(["y"], [], {"y": {"blue"}})
    res = jep_witness_search(a, b, cls)
    assert res.status == FOUND
    assert len(res.witness) == 2 and len(res.witness.edges) == 0


def test_witness_search_indeterminate_on_tiny_budget():
    a = canonical_A(1, TilingProblem(1))
    b = canonical_B(1, TilingProblem(1))
    cls = compile_unary_class(TilingProblem(1))
    res = jep_witness_search(a, b, cls, budget=SearchBudget(3))
    assert res.status == INDETERMINATE


def test_canonical_depth_one_witness_exists():
    t = TilingProblem(1, h_forbidden={(1, 1)})
    cls = compile_unary_class(t)
    res = jep_witness_search(canonical_A(1, t), canonical_B(1, t), cls)
    assert res.status == FOUND
    # the witness must encode a tiling of the single cell
    from tilejep.unary import extract_tiling

    patch = extract_tiling(res.witness, 1, t)
    assert patch.tile_at(0, 0) == 1


def _all_graphs(n, palette):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        yield ColoredGraph(range(n), edges)


def _naive_jep(a, b, cls, max_n):
    for n in range(max(len(a), len(b)), max_n + 1):
        for c in _all_graphs(n, ()):
            if not cls.check(c, budget=SearchBudget(10**7)).ok:
                continue
            if contains_induced(a, c) and contains_induced(b, c):
                return True
    return False


def test_search_agrees_with_naive_enumeration_on_toy_classes(rng):
    # uncolored toy classes over at most two forbidden patterns, one of
    # them an induced path with a forbidden pair
    path = ColoredGraph(range(3), [(0, 1), (1, 2)])
    shapes = [ConstraintPattern(f) for f in (complete_graph(3), complete_graph(2), path, complete_graph(4))]
    shapes.append(induced_pattern(path))
    checked = 0
    while checked < 25:
        k = rng.randint(0, 2)
        forb = rng.sample(shapes, k)
        cls = HereditaryClass(
            f"toy{checked}", (),
            tuple(ConstraintPattern(f.pattern, f.forbidden, name=f"f{i}") for i, f in enumerate(forb)),
        )
        na, nb = rng.randint(1, 2), rng.randint(1, 3)
        a = rng.choice(list(_all_graphs(na, ())))
        b = rng.choice(list(_all_graphs(nb, ())))
        if not cls.check(a).ok or not cls.check(b).ok:
            continue
        checked += 1
        res = jep_witness_search(a, b, cls, budget=SearchBudget(10**7))
        naive = _naive_jep(a, b, cls, len(a) + len(b))
        assert res.status in (FOUND, NONE)
        assert (res.status == FOUND) == naive
        if res.status == FOUND:
            assert cls.check(res.witness).ok
            assert contains_induced(a, res.witness) and contains_induced(b, res.witness)
        # the pattern clauses are exact: a completion of the cross pairs
        # falsifies one iff it is not a member
        glued, ia, ib = disjoint_union(a, b)
        keys = [frozenset((ia[x], ib[y])) for x in a.vertices for y in b.vertices]
        clauses = ground_clauses(cls, glued, keys, SearchBudget(10**7))
        for mask in range(1 << len(keys)):
            value = [bool(mask >> i & 1) for i in range(len(keys))]
            completion = glued.with_edges(k for k, v in zip(keys, value) if v)
            assert _clauses_hold(clauses, value) == cls.check(completion).ok


def test_yes_experiment_unary_depths():
    t = TilingProblem(1)
    for n in (1, 2, 3):
        rep = run_yes_experiment(t, n, "unary")
        assert rep.ok, rep.to_text()
        assert rep.roundtrip_ok


def test_yes_experiment_rejects_invalid_theta():
    t = TilingProblem(1, h_forbidden={(1, 1)})
    bad = PeriodicTiling(1, 1, ((1,),))
    rep = run_yes_experiment(t, 1, "unary", theta=bad)
    assert rep.status == "failure"


def test_yes_experiment_reports_indeterminate_without_periodic_solution():
    # no periodic solution below the cap: the aperiodic-or-unsolvable case
    t = TilingProblem(1, h_forbidden={(1, 1)})
    rep = run_yes_experiment(t, 1, "unary", max_period=3)
    assert rep.status == "indeterminate"


def test_no_experiment_refutes_with_both_paths():
    t = TilingProblem(1, h_forbidden={(1, 1)})
    rep = run_no_experiment(t, 2)
    assert rep.ok
    assert len(rep.refutation_paths) == 2
    assert any("witness-search" in p for p in rep.refutation_paths)
    assert any("readout" in p for p in rep.refutation_paths)


def test_no_experiment_precondition_failure_on_yes_instance():
    rep = run_no_experiment(TilingProblem(1), 2)
    assert rep.status == "failure"
    assert any("precondition" in n for n in rep.notes)


def test_no_experiment_all_pairs_instance():
    t = TilingProblem(2, h_forbidden={(1, 1), (1, 2), (2, 1), (2, 2)})
    rep = run_no_experiment(t, 2)
    assert rep.ok and rep.refutation_paths


def test_report_serialization():
    rep = run_yes_experiment(TilingProblem(1), 1, "unary")
    text = rep.to_text()
    assert "status:     success" in text
    import json

    data = json.loads(rep.to_json())
    assert data["status"] == "success" and data["depth"] == 1


def test_experiments_are_deterministic():
    t = TilingProblem(1)
    r1 = run_yes_experiment(t, 2, "unary")
    r2 = run_yes_experiment(t, 2, "unary")
    assert (r1.status, r1.extracted, r1.memberships) == (r2.status, r2.extracted, r2.memberships)
    hard = TilingProblem(1, h_forbidden={(1, 1)})
    n1 = run_no_experiment(hard, 2)
    n2 = run_no_experiment(hard, 2)
    assert (n1.status, n1.refutation_paths) == (n2.status, n2.refutation_paths)


SPECS = {
    "h11": TilingProblem(1, h_forbidden={(1, 1)}),
    "three": TilingProblem(2, h_forbidden={(1, 1), (1, 2), (2, 2)}),
    "checker": TilingProblem(2, h_forbidden={(1, 1), (2, 2)}, v_forbidden={(1, 1), (2, 2)}),
}


def test_no_experiment_readout_alone_is_indeterminate():
    # three (no 3-wide row) at depth 3: a tiny budget stops the search, so
    # only the argued readout concludes, which is not a computed refutation
    t = SPECS["three"]
    rep = run_no_experiment(t, 3, budget=SearchBudget(50))
    assert rep.status == "indeterminate" and not rep.ok
    assert len(rep.refutation_paths) == 1 and rep.refutation_paths[0].startswith("readout")
    assert any("inconclusive" in n for n in rep.notes)
    assert run_no_experiment(t, 3).status == "success"


# -- the search loop: deep orders, grounding, determinism -------------------


def test_reduced_search_with_more_pairs_than_the_recursion_limit():
    # rule-free tiles 1 at d6: 1,296 grid-tile pairs, found without recursion
    t = TilingProblem(1)
    a, b = canonical_A(6, t), canonical_B(6, t)
    pairs = _grid_tile_cross_pairs(a, b)
    assert len(pairs) > sys.getrecursionlimit()
    res = jep_witness_search(a, b, compile_unary_class(t), budget=SearchBudget(10**5),
                             cross_pairs=pairs, identifications=False)
    assert res.status == FOUND


def test_generic_search_with_more_pairs_than_the_recursion_limit():
    # the loop without clauses: 40 x 30 cross pairs, each decided absent
    a, b = ColoredGraph(range(40)), ColoredGraph(range(30))
    res = jep_witness_search(a, b, EVERYTHING, budget=SearchBudget(10**6), identifications=False)
    assert res.status == FOUND and res.explored == 1200
    assert len(res.witness) == 70 and not res.witness.edges


def test_search_builds_one_graph_per_leaf_check(monkeypatch):
    # 2,200 decisions and one leaf: no graph is built or colour-scanned per decision
    calls = {"with_edges": 0, "multicolored_vertices": 0, "check": 0}

    def counted(owner, name):
        plain = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return plain(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(ColoredGraph, "with_edges")
    counted(ColoredGraph, "multicolored_vertices")
    counted(HereditaryClass, "check")
    res = jep_witness_search(ColoredGraph(range(2200)), ColoredGraph(["y"]), HereditaryClass("e", ()))
    assert res.status == FOUND and res.explored == 2200
    assert calls["check"] >= 1
    assert calls["with_edges"] <= calls["check"] and calls["multicolored_vertices"] <= calls["check"]


def test_colored_class_gets_the_unary_verdicts():
    # the colored class grounds the same c1..c9 rules (plus grid-edge) and
    # leaves wheel-shape to the leaf check
    for name, depth in [("h11", 1), ("h11", 2), ("checker", 2), ("three", 2)]:
        t = SPECS[name]
        a, b = canonical_A(depth, t), canonical_B(depth, t)
        pairs = _grid_tile_cross_pairs(a, b)
        verdicts = []
        for cls in (compile_unary_class(t), compile_colored_class(t)):
            res = jep_witness_search(a, b, cls, budget=SearchBudget(10**5),
                                     cross_pairs=pairs, identifications=False)
            if res.status == FOUND:
                assert cls.check(res.witness).ok
            verdicts.append(res.status)
        assert verdicts == [NONE if name == "h11" and depth == 2 else FOUND] * 2, (name, depth)


def test_identifications_deeper_than_the_recursion_limit():
    # one a-vertex per level of the identification search, consumed lazily
    res = jep_witness_search(ColoredGraph(range(1100)), ColoredGraph(["y"]), HereditaryClass("e", ()))
    assert res.status == FOUND


def _reduced_space(name, depth):
    t = SPECS[name]
    a, b = canonical_A(depth, t), canonical_B(depth, t)
    cls = compile_unary_class(t)
    glued, ia, ib = disjoint_union(a, b)
    keys = [frozenset((ia[x], ib[y])) for x, y in _grid_tile_cross_pairs(a, b)]
    return a, b, cls, glued, keys, ground_clauses(cls, glued, keys, SearchBudget(10**8))


def _clauses_hold(clauses, value):
    return all(any((lit > 0) == value[abs(lit) - 1] for lit in c) for c in clauses)


def _c7_c9_clean(cls, glued, keys, value):
    g = glued.with_edges(tuple(k) for k, v in zip(keys, value) if v)
    rules = [r for r in cls.rules if r.constraint in ("c7", "c8", "c9")]
    assert [r.name for r in rules] == ["sem:c7", "sem:c8", "sem:c9"]
    return not any(r.check(g, SearchBudget(10**8)) for r in rules)


@pytest.mark.parametrize("name,depth", [("checker", 2), ("checker", 3), ("h11", 2), ("three", 2)])
def test_grounded_clauses_agree_with_the_c7_c9_rules(name, depth, rng):
    a, b, cls, glued, keys, clauses = _reduced_space(name, depth)
    assert () not in clauses

    def agree(assignments):
        verdicts = set()
        for value in assignments:
            holds = _clauses_hold(clauses, value)
            assert holds == _c7_c9_clean(cls, glued, keys, value)
            verdicts.add(holds)
        return verdicts

    agree([[rng.random() < p for _ in keys] for p in (0.05, 0.2, 0.5) for _ in range(5)])
    res = jep_witness_search(a, b, cls, budget=SearchBudget(10**5),
                             cross_pairs=_grid_tile_cross_pairs(a, b), identifications=False)
    assert res.status == (NONE if name == "h11" else FOUND)
    if res.status == FOUND:
        # the witness, every single flip of it, and a few triple flips
        wit = [res.witness.has_edge(*k) for k in keys]
        flips = [{i} for i in range(len(keys))] + [set(rng.sample(range(len(keys)), 3)) for _ in range(10)]
        assert agree([wit] + [[v != (i in f) for i, v in enumerate(wit)] for f in flips]) == {False, True}


@pytest.mark.parametrize("name,depth", [("checker", 3), ("h11", 3), ("three", 3)])
def test_falsified_clause_iff_partial_scan_fires(name, depth, rng):
    # on partial assignments the clause test matches the c7..c9 scans run
    # with decided-present edges and definite absence, as a pruner would
    from tilejep.unary import _c7_scan, _c8_scan, _c9_scan, derive_relations

    _, _, cls, glued, keys, clauses = _reduced_space(name, depth)
    t = SPECS[name]
    rules = [("h", l, k) for (l, k) in sorted(t.h_forbidden)] + [("v", l, k) for (l, k) in sorted(t.v_forbidden)]
    budget = SearchBudget(10**8)
    rel = derive_relations(glued, t.tiles, budget)
    outcomes = set()
    for _ in range(60):
        cut = rng.randrange(len(keys) + 1)
        value = [rng.random() < 0.3 if i < cut else None for i in range(len(keys))]
        state = dict(zip(keys, value))

        def present(x, y):
            return glued.has_edge(x, y) or state.get(frozenset((x, y))) is True

        def absent(x, y):
            return not glued.has_edge(x, y) and state.get(frozenset((x, y)), False) is False

        fires = bool(_c7_scan(glued, rel, rules, budget, present)
                     or _c8_scan(glued, rel, budget, present, absent)
                     or _c9_scan(glued, rel, t.tiles, budget, present, absent))
        falsified = any(all(value[abs(lit) - 1] == (lit < 0) for lit in c) for c in clauses)
        assert fires == falsified
        outcomes.add(fires)
    assert outcomes == {False, True}


def _brute_force_satisfiable(clauses):
    """Every assignment of the clause variables at once: bit j of the truth
    table of variable v is bit v's position of j, and the clauses are ANDed
    over all 2^k assignments as big-integer bit vectors."""
    used = sorted({abs(lit) for c in clauses for lit in c})
    size = 1 << len(used)
    full = (1 << size) - 1
    table = {}
    for pos, v in enumerate(used):
        period = 1 << pos
        mask = ((1 << period) - 1) << period
        width = 2 * period
        while width < size:
            mask |= mask << width
            width *= 2
        table[v] = mask
    sat = full
    for c in clauses:
        sat &= functools.reduce(
            lambda acc, lit: acc | (table[lit] if lit > 0 else full ^ table[-lit]), c, 0)
    return sat != 0


@pytest.mark.parametrize("name,answer", [("h11", NONE), ("three", FOUND)])
def test_search_verdict_matches_brute_force_over_the_clauses(name, answer):
    # variables in no clause are free either way, so enumerating the others suffices
    a, b, cls, _, _, clauses = _reduced_space(name, 2)
    assert _brute_force_satisfiable(clauses) == (answer == FOUND)
    res = jep_witness_search(a, b, cls, budget=SearchBudget(10**5),
                             cross_pairs=_grid_tile_cross_pairs(a, b), identifications=False)
    assert res.status == answer


SEARCH_COUNT_SCRIPT = """
from tilejep.harness import _grid_tile_cross_pairs, jep_witness_search
from tilejep.matching import SearchBudget
from tilejep.tiling import TilingProblem
from tilejep.unary import canonical_A, canonical_B, compile_unary_class

for t in (TilingProblem(2, h_forbidden={(1, 1), (1, 2), (2, 2)}),
          TilingProblem(2, h_forbidden={(1, 1), (2, 2)}, v_forbidden={(1, 1), (2, 2)})):
    a, b = canonical_A(3, t), canonical_B(3, t)
    budget = SearchBudget(10**5)
    res = jep_witness_search(a, b, compile_unary_class(t), budget=budget,
                             cross_pairs=_grid_tile_cross_pairs(a, b), identifications=False)
    print(res.status, budget.used, res.explored)
"""


def test_search_node_counts_do_not_depend_on_the_hash_seed():
    # three d3 is refuted and checker d3 found under every seed, in the same counts
    src = str(Path(__file__).resolve().parents[1] / "src")
    counts = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", SEARCH_COUNT_SCRIPT], env=env, check=True,
                             capture_output=True, text=True, timeout=300).stdout
        counts.add(tuple(out.split()))
    assert counts == {("none", "397", "1", "found", "746", "145")}, counts
