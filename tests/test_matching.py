"""Pattern matching, induced containment, homomorphisms, expansion oracle."""

import pytest

from tilejep.core import ColoredGraph, complete_graph, cycle_graph, path_graph
from tilejep.encoding import wheel
from tilejep.matching import (
    BudgetExceededError,
    ConstraintPattern,
    ExpansionCapError,
    SearchBudget,
    contains_induced,
    expand_noninduced,
    homomorphisms,
    induced_pattern,
    is_hom,
    match_pattern,
)
from tests.conftest import random_colored_graph

import random
from itertools import combinations, permutations, product


def test_single_edge_on_triangle_has_six_embeddings():
    p = ConstraintPattern(ColoredGraph(["u", "v"], [("u", "v")]))
    ms = match_pattern(p, complete_graph(3))
    assert len(ms) == 6


def test_forbidden_edge_on_complete_graph_matches_nothing():
    p = ConstraintPattern(ColoredGraph(["u", "v"]), forbidden=[("u", "v")])
    assert match_pattern(p, complete_graph(3)) == []


def test_match_respects_color_containment():
    host = ColoredGraph([0, 1], [(0, 1)], {0: {"red", "blue"}, 1: {"red"}})
    p = ConstraintPattern(ColoredGraph(["u"], [], {"u": {"blue"}}))
    ms = match_pattern(p, host)
    assert [m["u"] for m in ms] == [0]
    # an uncolored pattern vertex matches anything
    q = ConstraintPattern(ColoredGraph(["u"]))
    assert len(match_pattern(q, host)) == 2


def test_match_output_is_lexicographic():
    p = ConstraintPattern(ColoredGraph(["u", "v"], [("u", "v")]))
    ms = match_pattern(p, path_graph(3))
    images = [(m["u"], m["v"]) for m in ms]
    assert images == sorted(images)


def test_forbidden_overlap_rejected():
    with pytest.raises(ValueError):
        ConstraintPattern(ColoredGraph(["u", "v"], [("u", "v")]), forbidden=[("u", "v")])


def test_contains_induced_examples():
    assert contains_induced(ColoredGraph([]), complete_graph(3))
    assert not contains_induced(wheel(5), wheel(7))
    assert not contains_induced(complete_graph(3), cycle_graph(4))


def test_budget_exhaustion_raises():
    g = complete_graph(8)
    p = induced_pattern(complete_graph(4))
    with pytest.raises(BudgetExceededError):
        match_pattern(p, g, budget=SearchBudget(5))


def test_homomorphisms_bipartite_collapse():
    c4 = cycle_graph(4)
    k2 = complete_graph(2)
    ms = homomorphisms(c4, k2)
    assert len(ms) == 2
    for m in ms:
        assert is_hom(c4, k2, m)


def test_homomorphisms_surjective_flag():
    c4 = cycle_graph(4)
    k2 = complete_graph(2)
    all_ms = homomorphisms(c4, k2)
    onto = homomorphisms(c4, k2, surjective_on=True)
    assert len(onto) == len(all_ms) == 2
    p3 = path_graph(3)
    assert len(homomorphisms(p3, k2)) == 2
    # a 1-vertex target cannot be hit by any edge-preserving map from K2
    assert homomorphisms(k2, complete_graph(1)) == []


def test_wheel_endomorphisms_are_the_ten_automorphisms():
    w5 = wheel(5)
    ms = homomorphisms(w5, w5)
    assert len(ms) == 10
    assert all(m[0] == 0 for m in ms)  # hub fixed


def test_no_homomorphism_from_smaller_to_larger_odd_wheel():
    assert homomorphisms(wheel(5), wheel(7)) == []


def test_descending_wheel_homomorphism_exists():
    # the rim of a larger odd wheel wraps onto a smaller one; this is the
    # computational fact that forces the deformed-image reading of the
    # stage-3 prohibitions (see the jhp module docstring)
    ms = homomorphisms(wheel(7), wheel(5), limit=1)
    assert ms, "wrap homomorphism from the 7-rim wheel onto the 5-rim wheel"
    m = ms[0]
    assert is_hom(wheel(7), wheel(5), m)
    assert set(m.values()) == set(wheel(5).vertices)


def test_expand_noninduced_trivial_and_path():
    p = ConstraintPattern(ColoredGraph(["u", "v"], [("u", "v")]))
    assert len(expand_noninduced(p)) == 1
    p3 = ConstraintPattern(ColoredGraph(["a", "b", "c"], [("a", "b"), ("b", "c")]))
    exp = expand_noninduced(p3)
    assert len(exp) == 2  # the path itself and the triangle completion


def test_expand_cap_errors_with_pattern_name():
    p = ConstraintPattern(ColoredGraph(range(8)), name="bigdc")
    with pytest.raises(ExpansionCapError) as ei:
        expand_noninduced(p, cap=5)
    assert "bigdc" in str(ei.value)


def test_exact_vertex_outside_the_pattern_rejected():
    with pytest.raises(ValueError, match="exact vertices not in pattern"):
        ConstraintPattern(ColoredGraph(["u", "v"]), exact=["w"])


def test_exact_vertices_imply_their_non_edges():
    g = ColoredGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c")])
    p = ConstraintPattern(g, [("c", "d")], exact=["a"])
    assert p.explicit == {frozenset("cd")}
    assert p.forbidden == {frozenset("cd"), frozenset("ac"), frozenset("ad")}


def test_exact_pattern_matches_like_its_explicit_twin():
    # hosts up to the pure class's pattern host cap: wedged random graphs,
    # some with a few extra edges touching the rims
    from tilejep.encoding import EncodingScheme, compile_pure_class, wedge, wedge_pattern
    from tilejep.tiling import TilingProblem
    from tests.conftest import random_single_colored

    rng = random.Random(7)
    cap = compile_pure_class(TilingProblem(1)).meta["pattern_host_cap"]
    scheme = EncodingScheme(("c0", "c1", "d"))
    found = set()
    for _ in range(40):
        col = random_single_colored(rng, n_max=2, palette=("c0", "c1"))
        nonedges = [(u, v) for u, v in combinations(col.vertices, 2) if not col.has_edge(u, v)]
        wp = wedge_pattern(ConstraintPattern(col, nonedges[: rng.randint(0, len(nonedges))]), scheme)
        twin = ConstraintPattern(wp.pattern, wp.forbidden)
        assert wp.exact and not twin.exact and twin.forbidden == wp.forbidden
        host = wedge(random_single_colored(rng, n_max=3, palette=("c0", "c1")), scheme)
        assert len(host) <= cap
        extra = [e for e in combinations(host.vertices, 2) if not host.has_edge(*e)]
        host = host.with_edges(rng.sample(extra, rng.choice((0, 0, 1, 3))))
        ms = match_pattern(wp, host)
        assert ms == match_pattern(twin, host)
        found.add(bool(ms))
    assert found == {True, False}


def test_match_equals_expansion_oracle_on_random_graphs():
    # match_pattern(p, g) nonempty iff some induced completion of p occurs in g
    rng = random.Random(7)
    pal = ("red", "blue")
    for _ in range(60):
        n = rng.randint(2, 4)
        verts = list(range(n))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        left = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
        forb = [e for e in left if rng.random() < 0.3]
        colors = {v: [rng.choice(pal)] for v in verts if rng.random() < 0.7}
        p = ConstraintPattern(ColoredGraph(verts, edges, colors), forbidden=forb)
        g = random_colored_graph(rng, n_max=7, palette=pal, multicolor_p=0, uncolored_p=0.3)
        direct = bool(match_pattern(p, g, limit=1))
        via_expansion = any(
            bool(match_pattern(q, g, limit=1)) for q in expand_noninduced(p)
        )
        assert direct == via_expansion


def test_connected_pattern_matches_stay_inside_one_factor():
    from tilejep.core import disjoint_union

    rng = random.Random(11)
    tri = induced_pattern(complete_graph(3))
    for _ in range(20):
        a = random_colored_graph(rng, n_max=6, multicolor_p=0, uncolored_p=1.0)
        b = random_colored_graph(rng, n_max=6, multicolor_p=0, uncolored_p=1.0)
        u, ia, ib = disjoint_union(a, b)
        aset = {ia[v] for v in a.vertices}
        for m in match_pattern(tri, u):
            img = set(m.map.values())
            assert img <= aset or img.isdisjoint(aset)


def test_double_predecessor_pattern_expansion_equivalence():
    # the level-0 double-predecessor base pattern: its direct matches, the
    # matches of its explicit induced completions, and the semantic verdict
    # coincide on random hosts realizing injective witnesses
    import random

    from tilejep.tiling import TilingProblem
    from tilejep.unary import compile_unary_class

    cls = compile_unary_class(TilingProblem(1))
    base = next(p for p in cls.patterns
                if p.constraint == "c2" and "/q" not in p.name and len(p) == 7)
    completions = expand_noninduced(base, cap=15)
    assert len(completions) > 1000
    rng = random.Random(22)
    sem = next(r for r in cls.rules if r.name == "sem:c2:lvl0")
    for _ in range(12):
        g = random_colored_graph(rng, n_max=9, multicolor_p=0.0)
        direct = bool(match_pattern(base, g, limit=1))
        via = any(match_pattern(q, g, limit=1) for q in completions)
        assert direct == via
        if direct:
            assert sem.check(g, SearchBudget(10**7))


def test_homomorphisms_contain_all_induced_embeddings():
    # every induced embedding is in particular a homomorphism, and every
    # returned homomorphism sends each edge to an edge
    import random

    rng = random.Random(31)
    for _ in range(25):
        h = random_colored_graph(rng, n_max=4, multicolor_p=0, uncolored_p=0.5)
        g = random_colored_graph(rng, n_max=6, multicolor_p=0, uncolored_p=0.5)
        homs = homomorphisms(h, g, budget=SearchBudget(5_000_000))
        hom_keys = {tuple(sorted(m.items(), key=lambda kv: str(kv[0]))) for m in homs}
        for m in match_pattern(induced_pattern(h), g, budget=SearchBudget(5_000_000)):
            key = tuple(sorted(m.map.items(), key=lambda kv: str(kv[0])))
            assert key in hom_keys
        for m in homs:
            assert is_hom(h, g, m)


NODE_COUNT_SCRIPT = """
from tilejep.matching import SearchBudget
from tilejep.tiling import TilingProblem
from tilejep.unary import canonical_A, canonical_B, compile_unary_class

t = TilingProblem(2, h_forbidden={(1, 1), (2, 2)}, v_forbidden={(1, 1), (2, 2)})
cls = compile_unary_class(t)
for g in (canonical_A(2, t), canonical_B(3, t)):
    budget = SearchBudget(10**8)
    cls.check(g, budget=budget, use_rules=False)
    print(budget.used)
"""


def test_pattern_route_node_counts_do_not_depend_on_the_hash_seed():
    # candidates come from the smallest matched neighbour's neighbourhood,
    # chosen in plan order, never in edge-set iteration order
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    counts = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", NODE_COUNT_SCRIPT], env=env, check=True,
                             capture_output=True, text=True, timeout=300).stdout
        counts.add(tuple(out.split()))
    assert len(counts) == 1, counts


def _random_small(rng, n_max):
    n = rng.randint(1, n_max)
    return ColoredGraph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45],
                        {v: {rng.choice("ab")} for v in range(n) if rng.random() < 0.4})


def test_match_pattern_and_homomorphisms_agree_with_brute_force():
    # no limit: the same maps in the same order as itertools' lexicographic
    # enumeration of host images
    rng = random.Random(15)
    for _ in range(150):
        h, g = _random_small(rng, 4), _random_small(rng, 6)
        hv = list(h.vertices)
        nonedges = [(u, v) for i, u in enumerate(hv) for v in hv[i + 1:] if not h.has_edge(u, v)]
        p = ConstraintPattern(h, [e for e in nonedges if rng.random() < 0.5])

        def fits(m):
            return all(h.colors(v) <= g.colors(m[v]) for v in hv) and all(
                g.has_edge(*(m[u] for u in e)) for e in h.edges
            )

        want = [m for m in (dict(zip(hv, img)) for img in permutations(g.vertices, len(hv)))
                if fits(m) and not any(g.has_edge(*(m[u] for u in e)) for e in p.forbidden)]
        assert [m.map for m in match_pattern(p, g)] == want
        homs = [m for m in (dict(zip(hv, img)) for img in product(g.vertices, repeat=len(hv))) if fits(m)]
        assert homomorphisms(h, g) == homs
        assert homomorphisms(h, g, surjective_on=True) == [m for m in homs if set(m.values()) == set(g.vertices)]


def test_homomorphisms_deeper_than_the_recursion_limit():
    (m,) = homomorphisms(path_graph(1100), complete_graph(2), limit=1)
    assert is_hom(path_graph(1100), complete_graph(2), m)
