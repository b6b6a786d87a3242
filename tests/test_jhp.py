"""Stage 3: augmentation gadgets, homomorphic-image prohibitions, rigidity,
and the edge/non-edge language reduction."""

from itertools import combinations

from tilejep.core import ColoredGraph, complete_graph, disjoint_union, is_biconnected, is_isomorphic
from tilejep.encoding import EncodingScheme, wedge, wheel
from tilejep.hereditary import FAIL, PASS
from tilejep.jhp import (
    TwoRelStructure,
    augment,
    compile_jhp_class,
    contains_k4,
    deformed_image_witness,
    edge_nonedge_transform,
    proper_hom_images,
    rigid_homomorphism_check,
    two_rel_homomorphisms,
    with_nonedges,
)
from tilejep.matching import SearchBudget, contains_induced, homomorphisms
from tilejep.tiling import TilingProblem, solve_periodic
from tilejep.unary import GUARD, canonical_A, canonical_B, stage_palette

T1 = TilingProblem(1)
JH = EncodingScheme(stage_palette("jhp"))
# the jhp class's K4 and deformed-image rules, as its check runs them
IMAGE_RULES = compile_jhp_class(T1).subset(["wheel-image"])


# -- augmentation -------------------------------------------------------------


def test_augment_two_isolated_vertices():
    g = ColoredGraph([0, 1], [], {0: {"origin0"}, 1: {"grid0"}})
    am = augment(g)
    assert len(am.graph) == 6
    assert not am.graph.has_edge(0, 1)
    assert len(am.copies) == 1
    guards = [v for v in am.graph.vertices if GUARD in am.graph.colors(v)]
    assert len(guards) == 4


def test_augment_leaves_complete_graphs_alone():
    g = ColoredGraph([0, 1], [(0, 1)], {0: {"origin0"}, 1: {"grid0"}})
    assert len(augment(g).graph) == 2


def test_augmented_copies_are_free_five_wheels():
    g = ColoredGraph([0, 1], [], {0: {"origin0"}, 1: {"grid0"}})
    am = augment(g)
    (pair, copy), = am.copies
    sub = am.graph.induced(copy)
    assert is_isomorphic(sub.recolored({}), wheel(5))


def test_augmented_canonical_has_no_k4_and_no_deformed_images():
    a2 = augment(canonical_A(2, T1)).graph
    assert contains_k4(a2) is None
    for color in JH.palette:
        assert deformed_image_witness(a2, JH.wheel_size(color)) is None


# -- proper homomorphic images -------------------------------------------------


def test_w5_proper_images_all_contain_k4_and_are_biconnected():
    imgs = proper_hom_images(wheel(5))
    assert len(imgs) == 11  # frozen by the enumeration itself
    for h in imgs:
        assert contains_k4(h) is not None
        assert is_biconnected(h)


def test_w7_proper_images_are_biconnected():
    # the raw candidate stream suffices for a universally quantified claim
    imgs = proper_hom_images(wheel(7), dedup=False)
    assert imgs
    for h in imgs:
        assert is_biconnected(h)


def test_image_check_examples():
    chord = wheel(7).with_edges([(1, 3)])
    assert IMAGE_RULES.check(chord).status == FAIL
    dw, _, _ = disjoint_union(wheel(7), wheel(9))
    assert IMAGE_RULES.check(dw).status == PASS
    assert IMAGE_RULES.check(complete_graph(4)).status == FAIL


def test_deformed_witness_agrees_with_hom_enumeration(rng):
    # oracle: enumerate all homomorphisms of the 5- and 7-rim wheels into a
    # small K4-free host; a deformed image exists iff some hom image does
    # not induce a plain wheel
    def is_wheel_set(g, vs):
        sub = g.induced(vs)
        m = len(vs) - 1
        if m < 3:
            return False
        hubs = [v for v in vs if sub.degree(v) == m]
        if len(hubs) != 1:
            return False
        rim = set(vs) - set(hubs)
        return all(sub.degree(v) == 3 for v in rim) or m == 3

    checked = 0
    while checked < 25:
        n = rng.randint(4, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
        g = ColoredGraph(range(n), edges)
        if contains_k4(g) is not None:
            continue
        checked += 1
        for m in (5, 7):
            brute = False
            for hom in homomorphisms(wheel(m), g, budget=SearchBudget(3_000_000)):
                if not is_wheel_set(g, frozenset(hom.values())):
                    brute = True
                    break
            fast = deformed_image_witness(g, m) is not None
            assert brute == fast, (sorted(map(tuple, g.edges)), m, brute, fast)


def test_clean_wrap_images_are_allowed():
    # a larger odd wheel maps onto a smaller one rim-onto-rim; the image is
    # a plain wheel, so the deformed-image rule stays quiet
    host, _, _ = disjoint_union(wheel(5), wheel(9))
    assert IMAGE_RULES.check(host).status == PASS
    assert homomorphisms(wheel(9), wheel(5), limit=1)


# -- the stage-3 class ----------------------------------------------------------


def test_k4_excluded_from_jhp_class():
    cls = compile_jhp_class(T1)
    rep = cls.check(complete_graph(4))
    assert not rep.ok and "K4" in rep.constraint_ids()


def test_wedged_augmented_models_are_members():
    cls = compile_jhp_class(T1)
    scheme = EncodingScheme(tuple(cls.meta["scheme_palette"]))
    for n in (1,):
        for base in (canonical_A(n, T1), canonical_B(n, T1)):
            g = wedge(augment(base).graph, scheme)
            assert cls.check(g).ok


def test_jhp_members_at_depth_two_tiles_two():
    t2 = TilingProblem(2)
    cls = compile_jhp_class(t2)
    scheme = EncodingScheme(tuple(cls.meta["scheme_palette"]))
    g = wedge(augment(canonical_A(2, t2)).graph, scheme)
    assert cls.check(g).ok


def test_jhp_procedure_output_is_member():
    from tilejep.encoding import complete_and_joint_embed_pure

    cls = compile_jhp_class(T1)
    scheme = EncodingScheme(tuple(cls.meta["scheme_palette"]))
    theta = solve_periodic(T1, 1)
    a = wedge(augment(canonical_A(1, T1)).graph, scheme)
    b = wedge(augment(canonical_B(1, T1)).graph, scheme)
    out = complete_and_joint_embed_pure(a, b, T1, theta, stage="jhp", cls=cls, check=False)
    rep = cls.check(out)
    assert rep.ok, rep.summary()
    # no new K4, and every deformed-image scan stays quiet
    assert contains_k4(out) is None


# -- rigidity -------------------------------------------------------------------


def _witness(n=1, model="A"):
    base = canonical_A(n, T1) if model == "A" else canonical_B(n, T1)
    return wedge(augment(base).graph, EncodingScheme(stage_palette("jhp")))


def test_rigid_self_check():
    cls = compile_jhp_class(T1)
    a = _witness()
    assert rigid_homomorphism_check(a, a, cls).status == PASS


def test_rigid_check_with_extra_dummy_component():
    cls = compile_jhp_class(T1)
    scheme = EncodingScheme(tuple(cls.meta["scheme_palette"]))
    a = _witness()
    c, _, _ = disjoint_union(a, wheel(scheme.wheel_size(scheme.dummy)))
    assert rigid_homomorphism_check(a, c, cls).status == PASS


def test_rigid_check_inapplicable_outside_class():
    cls = compile_jhp_class(T1)
    a = _witness()
    bad, _, _ = disjoint_union(a, complete_graph(4))
    rep = rigid_homomorphism_check(a, bad, cls)
    assert rep.status == FAIL
    assert any("precondition" in n for n in rep.notes)


def test_rigid_check_detects_collapsible_target():
    # a target whose decoded shadow merges two same-colored vertices admits a
    # non-embedding homomorphism
    cls = compile_jhp_class(T1)
    scheme = EncodingScheme(tuple(cls.meta["scheme_palette"]))
    two = ColoredGraph([0, 1], [], {0: {"dummy"}, 1: {"dummy"}})
    one = ColoredGraph([0], [], {0: {"dummy"}})
    a, c = wedge(two, scheme), wedge(one, scheme)
    rep = rigid_homomorphism_check(a, c, cls)
    assert rep.status == FAIL and rep.violations


# -- the edge/non-edge reduction -------------------------------------------------


def test_with_nonedges_partition():
    g = complete_graph(3)
    s = with_nonedges(g)
    assert s.is_valid() and not s.npairs
    p3 = ColoredGraph(range(3), [(0, 1), (1, 2)])
    s = with_nonedges(p3)
    assert s.is_valid() and len(s.npairs) == 1


def test_transform_of_triangle_class():
    cls = edge_nonedge_transform([complete_graph(3)])
    assert len(cls.forbidden) == 3  # the triangle plus two sanity structures
    tri = with_nonedges(complete_graph(3))
    assert not cls.member(tri)
    both = TwoRelStructure((0, 1), [(0, 1)], [(0, 1)])
    assert not cls.member(both)
    path = with_nonedges(ColoredGraph(range(3), [(0, 1), (1, 2)]))
    assert cls.member(path)


def test_two_rel_homomorphisms_are_embeddings_between_valid_structures(rng):
    # merging two vertices of a valid structure breaks one relation's
    # irreflexivity, so homomorphisms are injective and induced
    for _ in range(20):
        n = rng.randint(2, 4)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        a = with_nonedges(ColoredGraph(range(n), edges))
        m = rng.randint(2, 4)
        cedges = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.5]
        c = with_nonedges(ColoredGraph(range(m), cedges))
        for hom in two_rel_homomorphisms(a, c):
            vals = list(hom.values())
            assert len(set(vals)) == len(vals)
            for u, v in combinations(a.vertices, 2):
                epair = frozenset((u, v)) in a.epairs
                assert epair == (frozenset((hom[u], hom[v])) in c.epairs)


def _enumerate_graphs(n, rng=None, limit=None):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = 1 << len(pairs)
    for mask in range(total):
        yield ColoredGraph(range(n), [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def _jep_brute(forbidden, a, b, max_n):
    for n in range(max(len(a), len(b)), max_n + 1):
        for c in _enumerate_graphs(n):
            if any(contains_induced(f, c) for f in forbidden):
                continue
            if contains_induced(a, c) and contains_induced(b, c):
                return True
    return False


def _jhp_brute(cls, a_plus, b_plus, max_n):
    for n in range(1, max_n + 1):
        for c in _enumerate_graphs(n):
            s = with_nonedges(c)
            if not cls.member(s):
                continue
            if two_rel_homomorphisms(a_plus, s, limit=1) and two_rel_homomorphisms(b_plus, s, limit=1):
                return True
    return False


def test_jep_matches_jhp_on_triangle_class(rng):
    forbidden = [complete_graph(3)]
    cls = edge_nonedge_transform(forbidden)
    pairs_checked = 0
    while pairs_checked < 12:
        na, nb = rng.randint(1, 2), rng.randint(1, 3)
        a = next(g for g in _enumerate_graphs(na))
        bs = list(_enumerate_graphs(nb))
        b = bs[rng.randrange(len(bs))]
        if contains_induced(complete_graph(3), a) or contains_induced(complete_graph(3), b):
            continue
        pairs_checked += 1
        max_n = min(5, len(a) + len(b))
        jep = _jep_brute(forbidden, a, b, max_n)
        jhp = _jhp_brute(cls, with_nonedges(a), with_nonedges(b), max_n)
        assert jep == jhp


def test_jhp_tile_side_member_at_depth_two():
    cls = compile_jhp_class(T1)
    scheme = EncodingScheme(tuple(cls.meta["scheme_palette"]))
    g = wedge(augment(canonical_B(2, T1)).graph, scheme)
    assert cls.check(g).ok
