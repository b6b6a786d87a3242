"""Core graph type, block decomposition, unions and joins, isomorphism,
and the one backtracking core."""

import ast
import random
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tilejep.core import (
    ColoredGraph,
    blocks,
    complete_graph,
    connected_components,
    cycle_graph,
    dedupe_isomorphic,
    disjoint_union,
    free_join,
    is_biconnected,
    is_isomorphic,
    path_graph,
)
from tilejep.encoding import neighborhood_profile, wheel
from tilejep.hereditary import HereditaryClass


def test_basic_invariants():
    g = ColoredGraph([0, 1, 2], [(0, 1)], {0: {"red"}})
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.colors(0) == {"red"} and g.colors(2) == frozenset()
    assert g.degree(0) == 1


def test_loops_rejected():
    with pytest.raises(ValueError):
        ColoredGraph([0, 1], [(0, 0)])


def test_undeclared_endpoint_rejected():
    with pytest.raises(ValueError):
        ColoredGraph([0, 1], [(0, 2)])


def test_blocks_two_triangles_sharing_vertex():
    # two triangles glued at vertex 0: two blocks of 3 vertices
    g = ColoredGraph(range(5), [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    bs = blocks(g)
    assert sorted(len(b) for b in bs) == [3, 3]


def test_blocks_wheel_is_single_block():
    assert len(blocks(wheel(7))) == 1
    assert is_biconnected(wheel(7))


def test_blocks_path_splits_into_edges():
    bs = blocks(path_graph(3))
    assert sorted(len(b) for b in bs) == [2, 2]


def test_blocks_partition_edges():
    g = ColoredGraph(range(7), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (6, 0)])
    bs = blocks(g)
    for e in g.edges:
        assert sum(1 for b in bs if e <= b) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8), st.data())
def test_blocks_partition_edges_random(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if data.draw(st.booleans())]
    g = ColoredGraph(range(n), edges)
    bs = blocks(g)
    for e in g.edges:
        assert sum(1 for b in bs if e <= b) == 1
    for v in g.vertices:
        assert any(v in b for b in bs)


def test_non_cut_vertex_removal_keeps_block_connected():
    # brute-force spot check promised for graphs <= 8 vertices
    g = ColoredGraph(range(6), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4), (4, 5), (5, 3)])
    for b in blocks(g):
        if len(b) < 3:
            continue
        sub = g.induced(b)
        for v in b:
            rest = sub.induced(set(b) - {v})
            assert len(connected_components(rest)) == 1


def test_with_edges_equals_a_rebuild_and_carries_no_memo():
    g = ColoredGraph(["a", "b", "c", "d"], [("a", "b")], {"a": {"red"}, "d": {"blue"}}, name="g")
    g.adjacency
    neighborhood_profile(g)
    HereditaryClass("all", (), (), (), {}).check(g)
    extra = [("b", "c"), ("c", "a"), ("b", "a")]
    h = g.with_edges(extra)
    assert h == ColoredGraph(g.vertices, set(g.edges) | set(extra), g.color_map)
    assert h.name == "g" and g.with_edges([], name="h").name == "h"
    for memo in ("_neighborhood_profile", "_membership_memo", "adjacency"):
        assert memo in g.__dict__ and memo not in h.__dict__
    assert h.neighbors("c") == ("a", "b") and g.neighbors("c") == ()
    with pytest.raises(ValueError):
        g.with_edges([("a", "a")])
    with pytest.raises(ValueError):
        g.with_edges([("a", "z")])


def test_disjoint_union_counts():
    k1 = complete_graph(1)
    u, _, _ = disjoint_union(k1, k1)
    assert len(u) == 2 and len(u.edges) == 0
    k3 = complete_graph(3)
    u, ia, ib = disjoint_union(k3, k3)
    assert len(u) == 6 and len(u.edges) == 6
    assert sorted(len(b) for b in blocks(u)) == [3, 3]
    # injections are embeddings
    for x, y in (ia.items()):
        assert x == y or y in u.vertices


def test_disjoint_union_renames_collisions():
    a = ColoredGraph(["v"], [], {"v": {"red"}})
    b = ColoredGraph(["v"], [], {"v": {"blue"}})
    u, ia, ib = disjoint_union(a, b)
    assert len(u) == 2
    assert ia["v"] != ib["v"]
    assert u.colors(ia["v"]) == {"red"} and u.colors(ib["v"]) == {"blue"}


def test_free_join_hub_to_vertex():
    v = ColoredGraph(["v"], [], {"v": {"red"}})
    w7 = wheel(7)
    joined, _, inj = free_join(v, w7, [("v", 0)])
    assert len(joined) == 8
    assert joined.degree("v") == 7
    assert joined.colors("v") == {"red"}


def test_free_join_identifying_one_endpoint_gives_path():
    k2a = ColoredGraph(["a", "b"], [("a", "b")])
    k2b = ColoredGraph(["c", "d"], [("c", "d")])
    joined, _, inj = free_join(k2a, k2b, [("b", "c")])
    assert len(joined) == 3 and len(joined.edges) == 2


def test_free_join_nonadjacent_pair_stays_nonadjacent():
    pair_graph = ColoredGraph(["x", "y"], [])
    w5 = wheel(5)
    # rim vertices 1 and 3 are at rim distance two
    joined, _, _ = free_join(pair_graph, w5, [("x", 1), ("y", 3)])
    assert len(joined) == 6
    assert not joined.has_edge("x", "y")


def test_free_join_rejects_same_side_merge():
    k2 = ColoredGraph(["a", "b"], [("a", "b")])
    with pytest.raises(ValueError):
        free_join(k2, k2, [("a", "a"), ("b", "a")])


def test_isomorphism_respects_colors():
    a = ColoredGraph([0, 1], [(0, 1)], {0: {"red"}})
    b = ColoredGraph(["x", "y"], [("x", "y")], {"y": {"red"}})
    c = ColoredGraph([0, 1], [(0, 1)], {0: {"blue"}})
    assert is_isomorphic(a, b)
    assert not is_isomorphic(a, c)


def test_dedupe_isomorphic():
    gs = [path_graph(3), cycle_graph(3), ColoredGraph([5, 6, 7], [(5, 6), (6, 7)])]
    assert len(dedupe_isomorphic(gs)) == 2


def test_induced_accepts_one_shot_iterators():
    g = path_graph(5)
    assert g.induced(v for v in (1, 2, 3)).vertices == (1, 2, 3)
    sub = g.induced(iter([0, 1, 2]))
    assert sub.vertices == (0, 1, 2) and len(sub.edges) == 2


def _iso_by_permutations(g, h):
    if len(g) != len(h):
        return False
    gv = list(g.vertices)
    for img in permutations(h.vertices):
        m = dict(zip(gv, img))
        if all(g.colors(v) == h.colors(m[v]) for v in gv) and all(
            g.has_edge(u, v) == h.has_edge(m[u], m[v]) for i, u in enumerate(gv) for v in gv[i + 1:]
        ):
            return True
    return False


def test_is_isomorphic_agrees_with_all_permutations():
    rng = random.Random(15)
    for _ in range(300):
        n = rng.randint(0, 6)
        g = ColoredGraph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4],
                         {v: {rng.choice("ab")} for v in range(n) if rng.random() < 0.5})
        # a relabelled copy, sometimes with one edge flipped or one color changed
        perm = list(range(n))
        rng.shuffle(perm)
        edges = {frozenset((perm[u], perm[v])) for u, v in map(tuple, g.edges)}
        colors = {perm[v]: g.colors(v) for v in g.vertices if g.colors(v)}
        r = rng.random()
        if n >= 2 and r < 0.3:
            edges ^= {frozenset(rng.sample(range(n), 2))}
        elif n >= 1 and r < 0.5:
            colors[rng.randrange(n)] = {"b"}
        h = ColoredGraph(sorted(range(n), key=lambda v: rng.random()), map(tuple, edges), colors)
        assert is_isomorphic(g, h) == _iso_by_permutations(g, h), (sorted(map(sorted, g.edges)), sorted(map(sorted, h.edges)))
    # two red vertices five or six steps apart on a 12-cycle: the colour
    # refinement signature cannot tell the placements apart, the search must
    c12 = [(i, (i + 1) % 12) for i in range(12)]
    six = ColoredGraph(range(12), c12, {0: {"red"}, 6: {"red"}})
    assert not is_isomorphic(six, ColoredGraph(range(12), c12, {0: {"red"}, 5: {"red"}}))
    assert is_isomorphic(six, ColoredGraph(range(12), c12, {3: {"red"}, 9: {"red"}}))


def test_is_isomorphic_deeper_than_the_recursion_limit():
    assert is_isomorphic(path_graph(1100), path_graph(1100))


def _self_calls(fn):
    """Calls inside ``fn`` (nested functions included) to its own name, as a
    plain name or as a method of self/cls."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                yield node.lineno
            elif (isinstance(f, ast.Attribute) and f.attr == fn.name
                  and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                yield node.lineno


def test_no_function_in_the_package_calls_itself():
    # searches run on core.backtrack; a recursive function would recurse as
    # deep as its input and meet the interpreter's recursion limit
    root = Path(__file__).resolve().parents[1] / "src" / "tilejep"
    found = []
    for path in sorted(root.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{line} {fn.name}" for line in _self_calls(fn)]
    assert found == []
