"""Stage-1 compiler and runtime: relations, canonical models, coordinates,
constraint checking, the joint-embedding procedure, and the tiling readout."""

import random
from itertools import product

import pytest

from tilejep.core import ColoredGraph, disjoint_union
from tilejep.hereditary import MembershipError
from tilejep.matching import ConstraintPattern, SearchBudget, match_pattern
from tilejep.tiling import Patch, PeriodicTiling, TilingProblem, check_patch, solve_periodic
from tilejep.unary import (
    AmbiguityError,
    canonical_A,
    canonical_B,
    compile_unary_class,
    coordinates,
    derive_relations,
    extract_tiling,
    joint_embed_unary,
    _quotient_patterns,
)
from tests.conftest import random_colored_graph

T1 = TilingProblem(1)
T1H = TilingProblem(1, h_forbidden={(1, 1)})


# -- derived relations ------------------------------------------------------


def test_relations_on_canonical_path():
    a3 = canonical_A(3, T1)
    rel = derive_relations(a3, 1)
    assert sorted(rel.arrow[0]) == [("p0", "p1"), ("p1", "p2")]
    assert rel.arrow[1] == {}


def test_relation_needs_coding_colors():
    # x - a - b - y chain with a not tail-colored yields no arrow
    g = ColoredGraph(
        ["x", "a", "b", "y"],
        [("x", "a"), ("a", "b"), ("b", "y")],
        {"x": {"origin0"}, "y": {"path0"}, "b": {"arrow_head"}},
    )
    rel = derive_relations(g, 1)
    assert rel.arrow[0] == {}


def test_tile_chains_on_canonical_B():
    t2 = TilingProblem(2)
    b2 = canonical_B(2, t2)
    rel = derive_relations(b2, 2)
    assert sum(1 for (_, _, i) in rel.tau_triples if i == 1) == 4
    assert sum(1 for (_, _, i) in rel.tau_triples if i == 2) == 4
    for h in rel.chains:
        assert len(rel.full_chains(h)) == 1


def test_canonical_sizes():
    # formula: n + 2(n-1) + n^2 + 2n^2 for the grid side, plus t*n^2 tiles
    assert len(canonical_A(1, T1)) == 4
    assert len(canonical_A(2, T1)) == 16
    assert len(canonical_A(3, T1)) == 34
    assert len(canonical_B(1, T1)) == 5
    assert len(canonical_B(2, TilingProblem(2))) == 24


def test_coordinates_of_canonical_grid():
    a3 = canonical_A(3, T1)
    coords = coordinates(a3)
    assert coords["g2_1"] == (2, 1)
    assert coords["g0_0"] == (0, 0)
    assert len([v for v in coords if str(v).startswith("g")]) == 9


def test_vertex_without_projection_has_no_coordinates():
    g = ColoredGraph(["g"], [], {"g": {"grid0"}})
    assert coordinates(g) == {}


def test_unrooted_path_gives_no_coordinates():
    # a path vertex not reachable from any origin yields nothing for grids
    g = ColoredGraph(
        ["p", "g", "c", "d"],
        [("g", "c"), ("c", "p"), ("g", "d"), ("d", "p")],
        {"p": {"path0"}, "g": {"grid0"}, "c": {"xproj"}, "d": {"yproj"}},
    )
    assert coordinates(g) == {}


def test_ambiguous_coordinates_raise():
    # two origins project onto the same grid vertex at different distances
    g = ColoredGraph(
        ["o", "o2", "p", "a", "b", "g", "c", "d"],
        [("o", "a"), ("a", "b"), ("b", "p"),
         ("g", "c"), ("c", "p"), ("g", "d"), ("d", "p"),
         ("o2", "c"), ("o2", "d")],
        {"o": {"origin0"}, "o2": {"origin0"}, "p": {"path0"},
         "a": {"arrow_tail"}, "b": {"arrow_head"},
         "g": {"grid0"}, "c": {"xproj"}, "d": {"yproj"}},
    )
    # p is at distance 1 from o; o2 is adjacent to the coding vertices making
    # it a projection target at distance 0
    with pytest.raises(AmbiguityError):
        coordinates(g)


# -- compiled constraints ---------------------------------------------------


def test_constraint7_contributes_nothing_without_rules():
    cls = compile_unary_class(T1)
    assert not [p for p in cls.patterns if p.constraint == "c7"]


def test_constraint8_base_shape():
    cls = compile_unary_class(T1)
    base = next(p for p in cls.patterns if p.name == "c8")
    assert len(base) == 9  # origins, grids, one tile, four coding vertices
    assert len(base.forbidden) == 1


def test_canonical_models_are_members():
    cls = compile_unary_class(T1H)
    for g in (canonical_A(1, T1H), canonical_A(2, T1H), canonical_B(2, T1H)):
        assert cls.check(g).ok


def test_multicolor_vertex_violates_c1():
    cls = compile_unary_class(T1)
    g = ColoredGraph(["v"], [], {"v": {"origin0", "grid0"}})
    rep = cls.check(g)
    assert not rep.ok and "c1" in rep.constraint_ids()


def test_double_predecessor_violates_c2():
    b = ColoredGraph(
        ["p", "q", "r", "a1", "b1", "a2", "b2"],
        [("p", "a1"), ("a1", "b1"), ("b1", "r"),
         ("q", "a2"), ("a2", "b2"), ("b2", "r")],
        {"p": {"path0"}, "q": {"path0"}, "r": {"path0"},
         "a1": {"arrow_tail"}, "b1": {"arrow_head"},
         "a2": {"arrow_tail"}, "b2": {"arrow_head"}},
    )
    cls = compile_unary_class(T1)
    rep = cls.check(b)
    assert not rep.ok and "c2" in rep.constraint_ids()


def test_shared_coding_double_predecessor_still_violates_c2():
    # the two arrow chains share their head coding vertex
    b = ColoredGraph(
        ["p", "q", "r", "a1", "a2", "b"],
        [("p", "a1"), ("a1", "b"), ("b", "r"),
         ("q", "a2"), ("a2", "b")],
        {"p": {"path0"}, "q": {"path0"}, "r": {"path0"},
         "a1": {"arrow_tail"}, "a2": {"arrow_tail"}, "b": {"arrow_head"}},
    )
    cls = compile_unary_class(T1)
    rep = cls.check(b)
    assert "c2" in rep.constraint_ids()
    # both routes agree
    pv = cls.check(b, budget=SearchBudget(10**7), use_rules=False)
    sv = cls.check(b, budget=SearchBudget(10**7), use_patterns=False)
    assert "c2" in pv.constraint_ids() and "c2" in sv.constraint_ids()


def test_origin_predecessor_violates_c3():
    g = ColoredGraph(
        ["p", "o", "a", "b"],
        [("p", "a"), ("a", "b"), ("b", "o")],
        {"p": {"path0"}, "o": {"origin0"}, "a": {"arrow_tail"}, "b": {"arrow_head"}},
    )
    assert "c3" in compile_unary_class(T1).check(g).constraint_ids()


def test_double_projection_violates_c4():
    g = ColoredGraph(
        ["g", "w", "w2", "c", "c2"],
        [("g", "c"), ("c", "w"), ("g", "c2"), ("c2", "w2")],
        {"g": {"grid0"}, "w": {"path0"}, "w2": {"path0"}, "c": {"xproj"}, "c2": {"xproj"}},
    )
    assert "c4" in compile_unary_class(T1).check(g).constraint_ids()


def test_tile_owned_twice_violates_c5():
    g = ColoredGraph(
        ["g", "h", "t"],
        [("g", "t"), ("h", "t")],
        {"g": {"grid1"}, "h": {"grid1"}, "t": {"tile"}},
    )
    assert "c5" in compile_unary_class(T1).check(g).constraint_ids()


def test_two_chain_lengths_violely_c6():
    t2 = TilingProblem(2)
    g = ColoredGraph(
        ["g", "u", "t"],
        [("g", "u"), ("u", "t"), ("g", "t")],
        {"g": {"grid1"}, "u": {"tile"}, "t": {"tile"}},
    )
    assert "c6" in compile_unary_class(t2).check(g).constraint_ids()


def test_pattern_vs_semantic_verdicts_agree_on_random_graphs(rng):
    t = TilingProblem(2, h_forbidden={(1, 1)}, v_forbidden={(2, 2)})
    cls = compile_unary_class(t).subset([f"c{i}" for i in range(1, 8)])
    for _ in range(120):
        g = random_colored_graph(rng, n_max=12)
        pv = cls.check(g, budget=SearchBudget(10**8), use_rules=False)
        sv = cls.check(g, budget=SearchBudget(10**8), use_patterns=False)
        assert {v.constraint for v in pv.violations} == {v.constraint for v in sv.violations}


# -- joint embedding and readout --------------------------------------------


def test_joint_embedding_adds_single_edge_at_depth_one():
    cls = compile_unary_class(T1)
    theta = solve_periodic(T1, 1)
    a, b = canonical_A(1, T1), canonical_B(1, T1)
    joint = joint_embed_unary(a, b, theta, T1, cls)
    assert len(joint.edges) == len(a.edges) + len(b.edges) + 1
    assert cls.check(joint).ok


def test_factors_without_grids_give_plain_union():
    cls = compile_unary_class(T1)
    theta = solve_periodic(T1, 1)
    a = ColoredGraph(["p"], [], {"p": {"origin0"}})
    b = ColoredGraph(["q"], [], {"q": {"origin1"}})
    joint = joint_embed_unary(a, b, theta, T1, cls)
    assert len(joint.edges) == 0 and len(joint) == 2


def test_joint_embedding_rejects_nonmembers():
    cls = compile_unary_class(T1)
    theta = solve_periodic(T1, 1)
    bad = ColoredGraph(["v"], [], {"v": {"origin0", "origin1"}})
    with pytest.raises(MembershipError):
        joint_embed_unary(bad, canonical_B(1, T1), theta, T1, cls)


def test_joint_embedding_requires_theta_defined():
    cls = compile_unary_class(T1)
    partial = Patch(1, 1, {})  # defined nowhere
    with pytest.raises(ValueError):
        joint_embed_unary(canonical_A(1, T1), canonical_B(1, T1), partial, T1, cls)


def test_constraint8_pattern_empty_on_procedure_output():
    cls = compile_unary_class(T1)
    theta = solve_periodic(T1, 1)
    joint = joint_embed_unary(canonical_A(2, T1), canonical_B(2, T1), theta, T1, cls)
    for p in cls.patterns:
        if p.constraint == "c8":
            assert match_pattern(p, joint, limit=1) == []


def test_extract_round_trip_depths():
    theta = solve_periodic(T1, 1)
    cls = compile_unary_class(T1)
    for n in (1, 2, 3):
        joint = joint_embed_unary(canonical_A(n, T1), canonical_B(n, T1), theta, T1, cls)
        patch = extract_tiling(joint, n, T1)
        assert patch.is_total()
        assert all(patch.tile_at(x, y) == theta.tile_at(x, y) for x in range(n) for y in range(n))


def test_extract_empty_without_cross_edges():
    u, _, _ = disjoint_union(canonical_A(2, T1), canonical_B(2, T1))
    assert extract_tiling(u, 2, T1).cells == {}


def test_figure_row_reproduction():
    t = TilingProblem(2, h_forbidden={(1, 1)})
    theta = PeriodicTiling(3, 1, ((2, 2, 1),))
    assert check_patch(t, theta)[0]
    cls = compile_unary_class(t)
    joint = joint_embed_unary(canonical_A(3, t), canonical_B(3, t), theta, t, cls)
    assert cls.check(joint).ok
    patch = extract_tiling(joint, 3, t)
    assert [patch.tile_at(x, 0) for x in range(3)] == [2, 2, 1]


def test_procedure_soundness_on_random_members(rng):
    # random class members: rejection-sampled small colored graphs plus
    # induced fragments of canonical models (hereditary, so still members)
    t = TilingProblem(2, h_forbidden={(1, 1)})
    cls = compile_unary_class(t)
    theta = solve_periodic(t, 2)
    assert theta is not None
    members = []
    while len(members) < 8:
        g = random_colored_graph(rng, n_max=8, multicolor_p=0.0)
        if cls.check(g).ok:
            members.append(g)
    full_a, full_b = canonical_A(2, t), canonical_B(2, t)
    for base in (full_a, full_b):
        keep = [v for v in base.vertices if rng.random() < 0.7]
        members.append(base.induced(keep))
    for i in range(0, len(members) - 1, 2):
        a, b = members[i], members[i + 1]
        assert cls.check(a).ok and cls.check(b).ok
        joint = joint_embed_unary(a, b, theta, t, cls, check=False)
        rep = cls.check(joint)
        assert rep.ok, rep.summary()


def test_readout_of_class_members_respects_rules(rng):
    t = TilingProblem(2, h_forbidden={(1, 1)}, v_forbidden={(2, 2)})
    cls = compile_unary_class(t)
    theta = solve_periodic(t, 2)
    joint = joint_embed_unary(canonical_A(2, t), canonical_B(2, t), theta, t, cls)
    assert cls.check(joint).ok
    patch = extract_tiling(joint, 2, t)
    ok, bad = check_patch(t, patch)
    assert ok, bad


def test_coordinates_never_ambiguous_on_members(rng):
    t = TilingProblem(1)
    cls = compile_unary_class(t)
    theta = solve_periodic(t, 1)
    for n in (1, 2):
        joint = joint_embed_unary(canonical_A(n, t), canonical_B(n, t), theta, t, cls)
        coordinates(joint)  # must not raise


def test_quotient_partitions_agree_with_brute_force():
    # each vertex carries a color of its own, so the colors of a quotient
    # vertex name its block; the reference enumerates block-index strings
    # with itertools, whose lexicographic order is the search order
    rng = random.Random(15)
    for _ in range(120):
        n = rng.randint(1, 6)
        g = ColoredGraph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3],
                         {v: {f"c{v}"} for v in range(n)})
        principals = [v for v in range(n) if rng.random() < 0.3]
        cliques = [frozenset(rng.sample(range(n), 2))] if n >= 2 and rng.random() < 0.5 else []
        others = [v for v in range(n) if v not in principals]
        s = len(principals)

        def conflict(u, v):
            return g.has_edge(u, v) or any(u in c and v in c for c in cliques)

        want = []
        for code in product(range(s + len(others)), repeat=len(others)):
            blocks = [[p] for p in principals]
            for v, k in zip(others, code):
                if k == len(blocks):
                    blocks.append([])
                if k >= len(blocks):
                    break  # not a block-index string: k skips a block
                blocks[k].append(v)
            else:
                if not any(conflict(u, v) for b in blocks for i, u in enumerate(b) for v in b[i + 1:]):
                    want.append({frozenset(b) for b in blocks})
        base = ConstraintPattern(g, name="base")
        got = _quotient_patterns(base, principals, cliques)
        assert [{frozenset(int(c[1:]) for c in q.pattern.colors(v)) for v in q.pattern.vertices}
                for q in got] == want
        assert [q.name for q in got] == ["base" if len(q) == n else f"base/q{i}" for i, q in enumerate(got)]
