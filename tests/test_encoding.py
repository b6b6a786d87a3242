"""Stage-2 encoding: wheels, wedge/vee, guard constraints, the pure class,
and the completion-based joint-embedding procedure."""

from itertools import combinations

import pytest

from tilejep.core import ColoredGraph, blocks, complete_graph, disjoint_union, free_join, is_isomorphic
from tilejep.encoding import (
    WEDGE_CAP,
    EncodingScheme,
    compile_colored_class,
    compile_pure_class,
    complete_and_joint_embed_pure,
    complete_with_dummies,
    find_free_wheel_copies,
    guard_constraints,
    neighborhood_profile,
    vee,
    wedge,
    wedge_detailed,
    wedge_pattern,
    wedged_size,
    wheel,
)
from tilejep.hereditary import INDETERMINATE, HereditaryClass, MembershipError
from tilejep.matching import SearchBudget, contains_induced, match_pattern
from tilejep.textio import pattern_from_text, pattern_to_text
from tilejep.tiling import TilingProblem, solve_periodic
from tilejep.unary import canonical_A, canonical_B, extract_tiling, stage_palette
from tests.conftest import random_single_colored, wheel_copies_by_blocks

SMALL = EncodingScheme(("red", "green", "blue", "dummy"))  # wheels W7..W13


def colored(*colors, edges=()):
    verts = list(range(len(colors)))
    return ColoredGraph(verts, edges, {v: {c} for v, c in zip(verts, colors)})


# -- wheels -------------------------------------------------------------------


def test_wheel_shape():
    w5 = wheel(5)
    assert len(w5) == 6 and len(w5.edges) == 10
    assert w5.degree(0) == 5
    with pytest.raises(ValueError):
        wheel(3)


def test_every_wheel_edge_lies_in_a_triangle():
    w7 = wheel(7)
    for e in w7.edges:
        u, v = tuple(e)
        assert any(w7.has_edge(u, x) and w7.has_edge(v, x) for x in w7.vertices if x not in (u, v))


def test_wheels_embed_into_themselves_but_not_each_other():
    sizes = (5, 7, 9, 11)
    for m in sizes:
        assert contains_induced(wheel(m), wheel(m))
    for m in sizes:
        for k in sizes:
            if m != k:
                assert not contains_induced(wheel(m), wheel(k))


def test_wheel_automorphisms_fix_hub():
    from tilejep.matching import automorphisms

    for m in (5, 7):
        auts = automorphisms(wheel(m))
        assert len(auts) == 2 * m
        assert all(a[0] == 0 for a in auts)


def test_scheme_assigns_first_color_the_seven_rim_wheel():
    assert SMALL.wheel_size("red") == 7
    assert SMALL.wheel_size("dummy") == 13
    assert SMALL.dummy == "dummy"
    pw = SMALL.pointed_wheel("green")
    assert pw.rim_size == 9 and pw.basepoint == 0
    assert pw.rim_size == 2 * pw.index + 5
    assert len(pw.graph) == 2 * pw.index + 6


# -- wedge and vee ------------------------------------------------------------


def test_wedge_single_vertex_is_a_wheel():
    g = colored("red")
    assert is_isomorphic(wedge(g, SMALL), wheel(7))


def test_wedge_requires_partitioned_colors():
    with pytest.raises(MembershipError):
        wedge(ColoredGraph([0]), SMALL)
    with pytest.raises(MembershipError):
        wedge(ColoredGraph([0], [], {0: {"red", "green"}}), SMALL)


def test_wedge_edge_has_three_blocks():
    g = colored("red", "green", edges=[(0, 1)])
    gw = wedge(g, SMALL)
    assert len(gw) == 2 + 7 + 9
    assert len(blocks(gw)) == 3


def test_vee_inverts_wedge():
    g = colored("red", "green", "red", edges=[(0, 1), (1, 2)])
    assert is_isomorphic(vee(wedge(g, SMALL), SMALL), g)


def test_vee_of_lone_wheel_and_triangle():
    got = vee(wheel(7), SMALL)
    assert len(got) == 1 and got.colors(got.vertices[0]) == {"red"}
    assert len(vee(ColoredGraph(range(3), [(0, 1), (1, 2), (0, 2)]), SMALL)) == 0


def test_vee_round_trip_random(rng):
    for _ in range(60):
        g = random_single_colored(rng, n_max=7, palette=("red", "green", "blue"))
        assert is_isomorphic(vee(wedge(g, SMALL), SMALL), g)


def test_wedge_never_contains_unattached_wheel_copies(rng):
    # every wheel copy found in a wedge image is one of the attached ones
    for _ in range(15):
        g = random_single_colored(rng, n_max=5, palette=("red", "green"))
        gw, record = wedge_detailed(g, SMALL)
        copies = find_free_wheel_copies(gw, SMALL.sizes())
        assert {hub for hub, _, _ in copies} == set(g.vertices)
        for hub, blk, _ in copies:
            assert blk == record[hub]


def test_embedding_preservation_both_directions(rng):
    for _ in range(40):
        g = random_single_colored(rng, n_max=5, palette=("red", "green"))
        h = random_single_colored(rng, n_max=6, palette=("red", "green"))
        lhs = contains_induced(g, h)
        rhs = contains_induced(wedge(g, SMALL), wedge(h, SMALL))
        assert lhs == rhs
    # forced-positive direction: g embeds into an extension of itself
    for _ in range(10):
        g = random_single_colored(rng, n_max=4, palette=("red", "green"))
        extra = ColoredGraph(
            list(g.vertices) + ["zz"],
            list(map(tuple, g.edges)) + [("zz", g.vertices[0])],
            dict(g.color_map, zz=frozenset({"blue"})),
        )
        assert contains_induced(g, extra)
        assert contains_induced(wedge(g, SMALL), wedge(extra, SMALL))


def test_image_characterization(rng):
    # a pure graph is a wedge image iff every vertex is covered by a free
    # copy, each basepoint carries exactly one free copy, and copies are
    # disjoint off their basepoints -- operationally: vee followed by wedge
    # reproduces the graph
    for _ in range(20):
        g = random_single_colored(rng, n_max=5, palette=("red", "green"))
        gw = wedge(g, SMALL)
        assert is_isomorphic(wedge(vee(gw, SMALL), SMALL), gw)
    # non-images fail the round trip
    w = wheel(7)
    chord = w.with_edges([(1, 3)])
    assert len(vee(chord, SMALL)) == 0


# -- guards -------------------------------------------------------------------


def test_h2_count_matches_pairs_with_repetition():
    scheme3 = EncodingScheme(("a", "b", "c"))
    gc = guard_constraints(scheme3)
    assert sum(1 for p in gc if p.constraint == "H2") == 6
    assert sum(1 for p in gc if p.constraint == "H1") == 3


def test_wedge_images_never_match_guards(rng):
    gc = guard_constraints(SMALL)
    for _ in range(10):
        g = random_single_colored(rng, n_max=4, palette=("red", "green"))
        gw = wedge(g, SMALL)
        for p in gc:
            assert not match_pattern(p, gw, limit=1)


def test_two_wheels_sharing_hub_match_h2():
    from tilejep.core import free_join

    w1, w2 = wheel(7), wheel(7)
    both, _, _ = free_join(w1, w2, [(0, 0)])
    gc = guard_constraints(SMALL)
    h2 = next(p for p in gc if p.name == "H2:W7+W7")
    assert match_pattern(h2, both, limit=1)


def test_pendant_on_rim_matches_h1():
    w = wheel(7)
    bad = ColoredGraph(list(w.vertices) + ["x"], list(map(tuple, w.edges)) + [("x", 3)])
    gc = guard_constraints(SMALL)
    h1 = next(p for p in gc if p.name == "H1:W7")
    assert match_pattern(h1, bad, limit=1)


# -- the compiled pure class --------------------------------------------------


def test_wedged_canonical_models_are_members():
    t = TilingProblem(1)
    cls = compile_pure_class(t)
    scheme = EncodingScheme(tuple(cls.meta["scheme_palette"]))
    for n in (1, 2):
        for g in (canonical_A(n, t), canonical_B(n, t)):
            assert cls.check(wedge(g, scheme)).ok


def test_k4_not_constrained_at_stage_two():
    from tilejep.core import complete_graph

    t = TilingProblem(1)
    cls = compile_pure_class(t)
    assert cls.check(complete_graph(4)).ok


def test_wedged_pattern_route_agrees_with_decoding_route():
    # host small enough that the wedged patterns are matched directly
    t = TilingProblem(1)
    colored_cls = compile_colored_class(t)
    scheme = EncodingScheme(stage_palette("pure"))
    # a double-projection violator, wedged
    bad = ColoredGraph(
        ["g", "w", "w2", "c", "c2"],
        [("g", "c"), ("c", "w"), ("g", "c2"), ("c2", "w2")],
        {"g": {"grid0"}, "w": {"path0"}, "w2": {"path0"}, "c": {"xproj"}, "c2": {"xproj"}},
    )
    host = wedge(bad, scheme)
    pure = compile_pure_class(t)
    pure_uncapped = HereditaryClass(
        pure.name, pure.palette, pure.patterns, pure.rules,
        dict(pure.meta, pattern_host_cap=10**9),
    )
    pat = pure_uncapped.check(host, budget=SearchBudget(10**8), use_rules=False)
    sem = pure_uncapped.check(host, budget=SearchBudget(10**8), use_patterns=False)
    assert not pat.ok and not sem.ok
    assert {v.constraint for v in pat.violations} == {v.constraint for v in sem.violations} == {"w:c4"}


def test_completion_attaches_dummies_only_outside_copies():
    one = ColoredGraph(["v"])
    done = complete_with_dummies(one, SMALL)
    assert is_isomorphic(done, wheel(13))
    again = complete_with_dummies(done, SMALL)
    assert len(again) == len(done)


def test_pure_joint_embedding_of_two_single_vertices():
    t = TilingProblem(1)
    cls = compile_pure_class(t)
    scheme = EncodingScheme(tuple(cls.meta["scheme_palette"]))
    a = ColoredGraph(["v"])
    b = ColoredGraph(["w"])
    theta = solve_periodic(t, 1)
    out = complete_and_joint_embed_pure(a, b, t, theta, cls=cls)
    dummy_wheel = wheel(scheme.wheel_size(scheme.dummy))
    two, _, _ = disjoint_union(dummy_wheel, dummy_wheel)
    assert is_isomorphic(out, two)


def test_pure_pipeline_commutes_with_colored_pipeline():
    t = TilingProblem(1)
    theta = solve_periodic(t, 1)
    cls = compile_pure_class(t)
    scheme = EncodingScheme(tuple(cls.meta["scheme_palette"]))
    wA, wB = wedge(canonical_A(2, t), scheme), wedge(canonical_B(2, t), scheme)
    out = complete_and_joint_embed_pure(wA, wB, t, theta, cls=cls)
    assert cls.check(out).ok
    shadow = vee(out, scheme)
    patch = extract_tiling(shadow, 2, t)
    assert patch.is_total()
    assert all(patch.tile_at(x, y) == theta.tile_at(x, y) for x in range(2) for y in range(2))


def test_no_triangles_outside_wheel_copies_in_pure_joint():
    t = TilingProblem(1)
    theta = solve_periodic(t, 1)
    cls = compile_pure_class(t)
    scheme = EncodingScheme(tuple(cls.meta["scheme_palette"]))
    wA, wB = wedge(canonical_A(1, t), scheme), wedge(canonical_B(1, t), scheme)
    out = complete_and_joint_embed_pure(wA, wB, t, theta, cls=cls)
    copies = find_free_wheel_copies(out, scheme.sizes())
    cover = [blk for _, blk, _ in copies]
    adj = {v: set(out.neighbors(v)) for v in out.vertices}
    for v in out.vertices:
        ns = sorted(adj[v], key=out.index)
        for i, u in enumerate(ns):
            for w in ns[i + 1:]:
                if w in adj[u]:
                    assert any({u, v, w} <= blk for blk in cover)


def test_transfer_at_witness_level():
    # YES instance: both levels jointly embed; NO instance: the completed
    # disjoint union of the encoded models is already outside the pure class
    tno = TilingProblem(1, h_forbidden={(1, 1)})
    cls = compile_pure_class(tno)
    scheme = EncodingScheme(tuple(cls.meta["scheme_palette"]))
    wA, wB = wedge(canonical_A(2, tno), scheme), wedge(canonical_B(2, tno), scheme)
    u, _, _ = disjoint_union(wA, wB)
    u = complete_with_dummies(u, scheme)
    rep = cls.check(u)
    assert not rep.ok and any(c.startswith("w:c8") for c in rep.constraint_ids())


def test_structural_guard_rule_matches_guard_patterns(rng):
    from tilejep.encoding import _rule_guards
    from tilejep.core import free_join

    rule = _rule_guards(SMALL)
    patterns = guard_constraints(SMALL)

    def pattern_verdict(g):
        out = set()
        for p in patterns:
            if match_pattern(p, g, budget=SearchBudget(10**7), limit=1):
                out.add(p.constraint)
        return out

    hosts = []
    w7, w9 = wheel(7), wheel(9)
    hosts.append(w7)
    hosts.append(w7.with_edges([(1, 4)]))
    hosts.append(ColoredGraph(list(w7.vertices) + ["x"],
                              list(map(tuple, w7.edges)) + [("x", 2)]))
    shared, _, _ = free_join(w7, w9, [(0, 0)])
    hosts.append(shared)
    two, _, _ = disjoint_union(w7, w9)
    hosts.append(two)
    for _ in range(12):
        g = random_single_colored(rng, n_max=4, palette=("red", "green"))
        hosts.append(wedge(g, SMALL))
    for host in hosts:
        pat = pattern_verdict(host)
        sem = {v.constraint for v in rule.check(host, SearchBudget(10**7))}
        assert bool(pat) == bool(sem), (sorted(map(tuple, host.edges)), pat, sem)
        if pat:
            assert pat & sem, (pat, sem)


def test_dummy_color_stays_out_of_nontrivial_constraints():
    # the completion color may appear only in the multicolored-singleton
    # prohibitions (and in no required/forbidden structure of any other
    # compiled constraint)
    t = TilingProblem(1, h_forbidden={(1, 1)})
    cls = compile_colored_class(t, "pure")
    scheme = EncodingScheme(stage_palette("pure"))
    dummy = scheme.dummy
    for p in cls.patterns:
        uses = any(dummy in p.pattern.colors(v) for v in p.pattern.vertices)
        if uses:
            assert p.constraint == "c1" and len(p) == 1


def _wheel_shape_routes(cls):
    """(rule verdict, pattern verdict) functions for the wheel-shape tag."""
    rule = next(r for r in cls.rules if r.name == "sem:wheel-shape")
    patterns = cls.subset(["wheel-shape"])

    def verdicts(g):
        by_rule = bool(rule.check(g, SearchBudget(10**8)))
        by_patterns = not patterns.check(g, budget=SearchBudget(10**8), use_rules=False).ok
        return by_rule, by_patterns

    return verdicts


def _with_outside(g, extra):
    """g plus fresh vertices x0, x1, ... attached to the listed vertices."""
    verts = list(g.vertices) + [f"x{i}" for i in range(len(extra))]
    edges = [tuple(e) for e in g.edges]
    edges += [(f"x{i}", v) for i, vs in enumerate(extra) for v in vs]
    return ColoredGraph(verts, edges, {v: {"tile"} for v in verts})


def test_wheel_shape_rule_agrees_with_wheel_shape_patterns(rng):
    from tests.conftest import random_colored_graph

    t = TilingProblem(1, h_forbidden={(1, 1)})
    for stage in ("pure", "jhp"):
        verdicts = _wheel_shape_routes(compile_colored_class(t, stage))
        sizes = EncodingScheme(stage_palette(stage)).sizes()
        # planted induced W_m for every scheme size, with outside neighbours
        for m in sizes:
            w = _with_outside(wheel(m), [(1,), (0, 3)])
            assert verdicts(w) == (True, True), m
        # rims of non-scheme length; a rim with a chord
        for m in (5, 8, 11 if 11 not in sizes else 6):
            assert verdicts(_with_outside(wheel(m), [(2,)])) == (False, False), m
        assert verdicts(_with_outside(wheel(7).with_edges([(1, 4)]), [])) == (False, False)
        assert verdicts(_with_outside(wheel(9).with_edges([(2, 7)]), [(5,)])) == (False, False)
        # a hub whose neighbourhood component has odd girth 3 and still
        # contains an induced 7-cycle; without the 7-cycle, no wheel shape
        tri = _with_outside(wheel(7), [(0, 1, 2)])
        assert verdicts(tri) == (True, True)
        assert verdicts(_with_outside(wheel(7).with_edges([(1, 3)]), [(0, 1, 2)])) == (False, False)
    verdicts = _wheel_shape_routes(compile_colored_class(t, "pure"))
    for _ in range(60):
        g = random_colored_graph(rng, n_max=14, edge_p=rng.choice((0.3, 0.55, 0.75)), n_min=8)
        assert len(set(verdicts(g))) == 1, sorted(map(tuple, g.edges))
    # planted wheels with random pairs flipped: chords, broken rims, and
    # outside vertices joined to hub and rim
    seen = set()
    for _ in range(150):
        w = _with_outside(wheel(rng.choice((7, 9))), [(), (), ()])
        pairs = [(u, v) for i, u in enumerate(w.vertices) for v in w.vertices[i + 1:]]
        flip = {frozenset(e) for e in rng.sample(pairs, rng.randint(1, 4))}
        g = ColoredGraph(w.vertices, {frozenset(e) for e in w.edges} ^ flip, w.color_map)
        by_rule, by_patterns = verdicts(g)
        assert by_rule == by_patterns, sorted(map(tuple, g.edges))
        seen.add(by_rule)
    assert seen == {True, False}


@pytest.mark.parametrize("stage", ["pure", "jhp"])
def test_wheel_shape_rule_agrees_on_encoded_d1_shadows(stage):
    from tilejep.jhp import augment

    t = TilingProblem(2, h_forbidden={(1, 1), (2, 2)}, v_forbidden={(1, 1), (2, 2)})
    scheme = EncodingScheme(stage_palette(stage))
    pure = compile_pure_class(t, stage)
    a, b = canonical_A(1, t), canonical_B(1, t)
    if stage == "jhp":
        a, b = augment(a).graph, augment(b).graph
    wa, wb = wedge(a, scheme), wedge(b, scheme)
    joint = complete_and_joint_embed_pure(wa, wb, t, solve_periodic(t, 4), stage=stage, cls=pure)
    verdicts = _wheel_shape_routes(compile_colored_class(t, stage))
    for g in (wa, wb, joint):
        assert verdicts(vee(g, scheme)) == (False, False), g.name


# -- wheel attachment and exact rims -------------------------------------------

CHECKER = TilingProblem(2, h_forbidden={(1, 1), (2, 2)}, v_forbidden={(1, 1), (2, 2)})
THREE = TilingProblem(2, h_forbidden={(1, 1), (1, 2), (2, 2)})


def _old_attach_wheel(verts, edges, hub, size, tag):
    # the attachment as it was, rebuilding the taken ids on every call
    rim = [f"{hub}{tag}{j}" for j in range(1, size + 1)]
    taken = set(verts)
    rim = [r if r not in taken else f"{r}&" for r in rim]
    verts.extend(rim)
    for r in rim:
        edges.append((hub, r))
    for j in range(size):
        edges.append((rim[j], rim[(j + 1) % size]))
    return rim


def _old_wedge(g, scheme):
    verts, edges = list(g.vertices), [tuple(e) for e in g.edges]
    interiors = {v: _old_attach_wheel(verts, edges, v, scheme.wheel_size(next(iter(g.colors(v)))), ".r")
                 for v in g.vertices}
    return ColoredGraph(verts, edges), interiors


def _old_completion(g, scheme):
    covered = set().union(*(blk for _, blk, _ in find_free_wheel_copies(g, scheme.sizes())))
    verts, edges = list(g.vertices), [tuple(e) for e in g.edges]
    for v in g.vertices:
        if v not in covered:
            _old_attach_wheel(verts, edges, v, scheme.wheel_size(scheme.dummy), ".d")
    return ColoredGraph(verts, edges)


def _old_wedge_forbidden(p, scheme):
    # the all-pairs construction of a wedged pattern's forbidden pairs
    graph, interiors = _old_wedge(p.pattern, scheme)
    own = {}
    for v, rim in interiors.items():
        own[v] = set(rim) | {v}
        for r in rim:
            own[r] = own[v]
    forb = set(p.forbidden)
    for u, v in combinations(graph.vertices, 2):
        if v in own.get(u, ()):
            if not graph.has_edge(u, v):
                forb.add(frozenset((u, v)))
        elif not (u in interiors and v in interiors):
            forb.add(frozenset((u, v)))
    return forb - graph.edges


def test_a_rim_id_already_in_the_host_gets_the_suffix():
    g = ColoredGraph(["x", "x.r1"], [], {"x": {"red"}, "x.r1": {"red"}})
    w = wedge(g, SMALL)
    assert w.has_edge("x", "x.r1&") and not w.has_edge("x", "x.r1")
    assert w.has_edge("x.r1", "x.r1.r1") and len(w) == 2 + 2 * 7


@pytest.mark.parametrize("stage", ["pure", "jhp"])
def test_wedge_and_completion_ids_match_the_old_attachment(stage):
    from tilejep.jhp import augment

    scheme = EncodingScheme(stage_palette(stage))
    for g in (canonical_A(2, CHECKER), canonical_B(2, CHECKER)):
        if stage == "jhp":
            g = augment(g).graph
        assert wedge(g, scheme) == _old_wedge(g, scheme)[0]
        bare = ColoredGraph(g.vertices, g.edges)
        assert complete_with_dummies(bare, scheme) == _old_completion(bare, scheme)


@pytest.mark.parametrize("stage", ["pure", "jhp"])
@pytest.mark.parametrize("name", ["three", "checker"])
def test_exact_rims_forbid_the_old_all_pairs(name, stage):
    problem = {"three": THREE, "checker": CHECKER}[name]
    scheme = EncodingScheme(stage_palette(stage))
    colored = compile_colored_class(problem, stage)
    seen = 0
    for f in colored.families:
        if f.tag == "wheel-shape":
            continue
        for p in f.patterns:
            size = wedged_size(p, scheme)
            if size is None or size > WEDGE_CAP:
                continue
            wp = wedge_pattern(p, scheme)
            assert wp.explicit == p.forbidden
            assert wp.forbidden == _old_wedge_forbidden(p, scheme), wp.name
            back = pattern_from_text(pattern_to_text(wp))
            assert (back.forbidden, back.pattern.edges) == (wp.forbidden, wp.pattern.edges)
            seen += 1
    pure = compile_pure_class(problem, stage)
    assert seen == sum(f.tag.startswith("w:") and len(f.patterns) for f in pure.families) > 0


# -- wheel copies and K4 from the neighbourhood profile ------------------------


def _encoded_checker_d2(stage):
    from tilejep.jhp import augment

    scheme = EncodingScheme(stage_palette(stage))
    a, b = (canonical_A(2, CHECKER), canonical_B(2, CHECKER))
    if stage == "jhp":
        a, b = augment(a).graph, augment(b).graph
    return scheme, wedge(a, scheme), wedge(b, scheme)


@pytest.mark.parametrize("stage", ["pure", "jhp"])
def test_profile_wheel_copies_match_the_blocks_on_checker_d2(stage):
    scheme, a, b = _encoded_checker_d2(stage)
    joint = complete_and_joint_embed_pure(a, b, CHECKER, solve_periodic(CHECKER, 4), stage=stage, check=False)
    sizes = (5,) + scheme.sizes()
    for g in (a, b, joint):
        got = find_free_wheel_copies(g, sizes)
        assert got and got == wheel_copies_by_blocks(g, sizes), g.name


def _reordered(g, order):
    return ColoredGraph(order, g.edges, g.color_map, name=g.name)


def _hand_wheel_hosts():
    two = free_join(wheel(7), wheel(9), [(0, 0)], name="two-on-one-hub")[0]
    rim_first = [v for v in two.vertices if v != 0]
    pendant = wheel(7)
    pendant = ColoredGraph([*pendant.vertices, "x"], [*map(tuple, pendant.edges), ("x", 3)], name="pendant")
    return [
        two,
        # the 9-rim first, then the hub, then the 7-rim
        _reordered(two, rim_first[7:] + [0] + rim_first[:7]),
        pendant,
        wheel(7).with_edges([(1, 3)], name="chord"),
        wheel(4),
        complete_graph(4),
        _reordered(wheel(7), [3, 1, 0, 2, 4, 5, 6, 7]),
        _reordered(two, rim_first + [0]),
        disjoint_union(wheel(7), wheel(11))[0],
    ]


@pytest.mark.parametrize("sizes", [(5,) + SMALL.sizes(), (3, 4, 5, 7, 9)])
def test_profile_wheel_copies_match_the_blocks_on_hand_cases(sizes):
    hosts = _hand_wheel_hosts()
    for g in hosts:
        assert find_free_wheel_copies(g, sizes) == wheel_copies_by_blocks(g, sizes), g.name
    # one hub, two copies: ordered by each rim's first vertex
    assert [m for _, _, m in find_free_wheel_copies(hosts[0], sizes)] == [m for m in (7, 9) if m in sizes]
    assert [m for _, _, m in find_free_wheel_copies(hosts[1], sizes)] == [m for m in (9, 7) if m in sizes]
    assert find_free_wheel_copies(complete_graph(4), sizes) == []


def test_profile_wheel_copies_match_the_blocks_on_perturbed_wedges(rng):
    for _ in range(40):
        gw = wedge(random_single_colored(rng, n_max=5, palette=("red", "green")), SMALL)
        verts = list(gw.vertices)
        extra = [tuple(rng.sample(verts, 2)) for _ in range(rng.choice((0, 1, 2)))]
        host = _reordered(gw.with_edges(extra), rng.sample(verts, len(verts)))
        sizes = (5,) + SMALL.sizes()
        assert find_free_wheel_copies(host, sizes) == wheel_copies_by_blocks(host, sizes)


def test_odd_girth_of_odd_cycles():
    from tilejep.encoding import _odd_girth_within

    for k in (1, 2, 3, 6, 20):
        n = 2 * k + 1
        adj = {i: [(i - 1) % n, (i + 1) % n] for i in range(n)}
        assert _odd_girth_within(adj, list(adj)) == n
    even = {i: [(i - 1) % 8, (i + 1) % 8] for i in range(8)}
    assert _odd_girth_within(even, list(even)) == float("inf")


@pytest.mark.parametrize("stage", ["pure", "jhp"])
def test_an_exhausted_budget_memoises_no_partial_profile(stage):
    from tilejep.jhp import augment
    from tilejep.stages import STAGES

    cls = STAGES[stage].compile(CHECKER)
    g = canonical_B(1, CHECKER)
    g = wedge(augment(g).graph if stage == "jhp" else g, EncodingScheme(stage_palette(stage)))
    assert cls.check(g, budget=SearchBudget(10)).status == INDETERMINATE
    assert "_neighborhood_profile" not in g.__dict__
    assert cls.check(g).ok
    assert neighborhood_profile(g) is g.__dict__["_neighborhood_profile"]
