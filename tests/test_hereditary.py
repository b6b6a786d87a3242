"""The class route table: which route decides each tag, the default check
that runs only the authoritative route, and the membership memo."""

import random

import pytest

from tilejep import encoding, hereditary, jhp, textio, unary
from tilejep.core import ColoredGraph, complete_graph, disjoint_union
from tilejep.encoding import (
    EncodingScheme,
    compile_colored_class,
    compile_pure_class,
    complete_and_joint_embed_pure,
    wedge,
)
from tilejep.hereditary import HereditaryClass, pattern_tag
from tilejep.jhp import augment, compile_jhp_class, contains_k4
from tilejep.matching import ConstraintPattern, SearchBudget, matches
from tilejep.tiling import PeriodicTiling, TilingProblem, solve_periodic
from tilejep.unary import (
    GRID,
    TILE,
    canonical_A,
    canonical_B,
    compile_unary_class,
    joint_embed_unary,
    stage_palette,
)

H11 = TilingProblem(1, h_forbidden={(1, 1)})
CHECKER = TilingProblem(2, h_forbidden={(1, 1), (2, 2)}, v_forbidden={(1, 1), (2, 2)})


@pytest.fixture(scope="module")
def h11():
    return {
        "unary": compile_unary_class(H11),
        "colored": compile_colored_class(H11),
        "pure": compile_pure_class(H11),
        "jhp": compile_jhp_class(H11),
    }


def test_pattern_routed_tags_per_stage(h11):
    assert h11["unary"].pattern_routed_tags() == set()
    # wheel-shape is decided by sem:wheel-shape, so no tag is pattern-routed
    assert h11["colored"].pattern_routed_tags() == set()
    assert h11["pure"].pattern_routed_tags() == set()
    assert h11["jhp"].pattern_routed_tags() == set()


def test_subset_without_the_rule_falls_back_to_patterns(h11):
    cls = h11["unary"]
    assert cls.subset(["c7"]).pattern_routed_tags() == set()
    only_patterns = HereditaryClass("c7-patterns", cls.palette,
                                    tuple(p for p in cls.patterns if p.constraint == "c7"))
    assert only_patterns.pattern_routed_tags() == {"c7"}


def test_subset_keeps_the_rules_that_decide_its_tags(h11):
    # the h11 d2 joint tiled by tile 1 alone breaks c7; wedged, it breaks w:c7 only
    a, b = canonical_A(2, H11), canonical_B(2, H11)
    joint = joint_embed_unary(a, b, PeriodicTiling(1, 1, ((1,),)), H11, h11["unary"], check=False)
    w = wedge(joint, EncodingScheme(stage_palette("pure")))
    assert len(w) == 772 and h11["pure"].check(w).constraint_ids() == {"w:c7"}
    only_c7 = h11["pure"].subset(["w:c7"])
    assert [r.name for r in only_c7.rules] == ["sem:pure-membership"]
    assert only_c7.check(w).constraint_ids() == {"w:c7"}
    assert h11["pure"].subset(["w:c1"]).check(w).ok
    # sem:guards decides H1 and H2 under its own constraint name
    assert [r.name for r in h11["pure"].subset(["H2"]).rules] == ["sem:guards"]


UNARY_TAGS = {f"c{i}" for i in range(1, 10)}
WHEEL_IMAGES = {f"sem:no-proper-image:W{m}" for m in range(7, 32, 2)}


@pytest.mark.parametrize("stage,grounded,leaf_only", [
    ("unary", UNARY_TAGS, set()),
    ("colored", UNARY_TAGS | {"grid-edge"}, {"sem:wheel-shape"}),
    ("pure", set(), {"sem:pure-membership", "sem:guards"}),
    ("jhp", set(), {"sem:pure-membership", "sem:guards"} | WHEEL_IMAGES),
])
def test_which_rules_declare_a_grounding(h11, stage, grounded, leaf_only):
    # the witness search grounds exactly these rules; the others are left
    # to its leaf check, so a new rule must pick a side here
    rules = h11[stage].rules
    assert {r.constraint for r in rules if r.ground is not None} == grounded
    assert {r.name for r in rules if r.ground is None} == leaf_only


def test_every_family_holds_only_its_tag(h11):
    for cls in h11.values():
        for f in cls.families:
            assert {pattern_tag(p) for p in f.patterns} <= {f.tag}, (cls.name, f.tag)


def test_subset_and_groups_use_the_route_key():
    path = ColoredGraph(range(3), [(0, 1), (1, 2)])
    named = ConstraintPattern(complete_graph(2), name="f0")  # no constraint tag
    tagged = ConstraintPattern(complete_graph(3), name="tri", constraint="T")
    cls = HereditaryClass("toy", (), (named, tagged))
    assert cls.pattern_routed_tags() == {"f0", "T"}
    assert set(cls.constraint_groups()) == {"f0", "T"}
    only = cls.subset(["f0"])
    assert only.patterns == (named,)
    assert not only.check(path).ok and cls.subset(["T"]).check(path).ok


PATTERN_BUILDERS = (
    [(unary, f"_c{i}_patterns") for i in range(1, 10)]
    + [(encoding, name) for name in ("_grid_edge_patterns", "_wheel_shape_patterns",
                                     "_h1_patterns", "_h2_patterns", "wedge_pattern")]
    + [(jhp, "_k4_patterns"), (textio, "pattern_from_text")]
)


def wheel_shape_host() -> ColoredGraph:
    """An induced 7-rim wheel on tile vertices: a colored wheel-shape."""
    w = encoding.wheel(7)
    return ColoredGraph(w.vertices, w.edges, {v: {TILE} for v in w.vertices})


def test_rules_first_compile_and_check_build_no_pattern(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pattern was built")

    for module, name in PATTERN_BUILDERS:
        monkeypatch.setattr(module, name, refuse)
    scheme = EncodingScheme(stage_palette("pure"))
    jscheme = EncodingScheme(stage_palette("jhp"))
    a, b = canonical_A(1, CHECKER), canonical_B(1, CHECKER)
    theta = solve_periodic(CHECKER, 4)
    uni = compile_unary_class(CHECKER)
    assert uni.check(joint_embed_unary(a, b, theta, CHECKER, uni)).ok
    colored = compile_colored_class(CHECKER)
    assert colored.check(a).ok and "wheel-shape" in colored.check(wheel_shape_host()).constraint_ids()
    pure = compile_pure_class(CHECKER)
    wa, wb = wedge(a, scheme), wedge(b, scheme)
    assert pure.check(complete_and_joint_embed_pure(wa, wb, CHECKER, theta, cls=pure)).ok
    jcls = compile_jhp_class(CHECKER)
    assert jcls.check(wedge(augment(a).graph, jscheme)).ok
    assert jcls.check(complete_graph(4)).constraint_ids() == {"K4"}
    for cls in (uni, colored, pure, jcls):
        with pytest.raises(AssertionError, match="a pattern was built"):
            cls.check(a, budget=SearchBudget(10**6), use_rules=False)


def _recording(monkeypatch):
    calls = []
    plain = hereditary.match_pattern

    def record(p, g, **kwargs):
        calls.append(p.constraint or p.name)
        return plain(p, g, **kwargs)

    monkeypatch.setattr(hereditary, "match_pattern", record)
    return calls


def test_default_check_matches_no_rule_decided_pattern(h11, monkeypatch):
    scheme = EncodingScheme(stage_palette("pure"))
    jscheme = EncodingScheme(stage_palette("jhp"))
    a, b = canonical_A(1, H11), canonical_B(1, H11)
    double_projection = ColoredGraph(
        ["g", "w", "w2", "c", "c2"],
        [("g", "c"), ("c", "w"), ("g", "c2"), ("c2", "w2")],
        {"g": {"grid0"}, "w": {"path0"}, "w2": {"path0"}, "c": {"xproj"}, "c2": {"xproj"}},
    )
    cases = [
        (h11["unary"], [a, b, canonical_A(2, H11), double_projection]),
        (h11["pure"], [wedge(a, scheme), wedge(double_projection, scheme)]),
        (h11["jhp"], [wedge(augment(a).graph, jscheme), complete_graph(4)]),
    ]
    calls = _recording(monkeypatch)
    for cls, hosts in cases:
        for g in hosts:
            cls.check(g, budget=SearchBudget(10**8))
            # the colored class the decoding rule checks on the vee shadow
            # decides wheel-shape by its rule too, so nothing is matched
            assert not calls, (cls.name, g.name, calls)
    h11["unary"].check(a, budget=SearchBudget(10**8), use_rules=False)
    assert calls  # the recorder does see the pattern route


def test_k4_is_decided_by_the_scan(h11):
    rep = h11["jhp"].check(complete_graph(4))
    assert not rep.ok and rep.constraint_ids() == {"K4"}


def test_contains_k4_agrees_with_k4_pattern(h11):
    rng = random.Random(44)
    k4 = next(p for p in h11["jhp"].patterns if p.constraint == "K4")
    found = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = ColoredGraph(range(n), edges)
        has = contains_k4(g) is not None
        assert has == matches(k4, g)
        found += has
    assert 0 < found < 300


def test_membership_memo_is_per_class_object_and_witness_cap():
    path = ColoredGraph(range(3), [(0, 1), (1, 2)])
    no_edge = HereditaryClass("toy", (), (ConstraintPattern(complete_graph(2), name="f0"),))
    no_triangle = HereditaryClass("toy", (), (ConstraintPattern(complete_graph(3), name="f0"),))
    assert not no_edge.check(path).ok
    assert no_triangle.check(path).ok
    assert len(no_edge.check(path, max_witnesses_per_pattern=1).violations) == 1
    assert len(no_edge.check(path).violations) == 2


def _perturbed_joints(problem, n, count, seed):
    """Joints of the unary procedure with cross edges dropped (p = 0.4) and
    up to three random grid0-tile cross edges added."""
    rng = random.Random(seed)
    a, b = canonical_A(n, problem), canonical_B(n, problem)
    cls = compile_unary_class(problem)
    joint = joint_embed_unary(a, b, solve_periodic(problem, 4), problem, cls, check=False)
    union, inj_a, inj_b = disjoint_union(a, b)
    cross = [tuple(e) for e in joint.edges if e not in union.edges]
    extra = [
        (inj_s[x], inj_d[y])
        for src, dst, inj_s, inj_d in ((a, b, inj_a, inj_b), (b, a, inj_b, inj_a))
        for x in src.vertices if GRID[0] in src.colors(x)
        for y in dst.vertices if TILE in dst.colors(y)
    ]
    for i in range(count):
        kept = [e for e in cross if rng.random() >= 0.4]
        added = rng.sample(extra, rng.randint(0, 3))
        yield cls, union.with_edges(kept + added, name=f"perturbed{i}")


def test_routes_agree_on_perturbed_checker_joints():
    # the pattern route may miss the rules' shared-coding configurations
    # (c7, c9) but must never report a tag the rule route does not
    violated = 0
    for cls, g in _perturbed_joints(CHECKER, 2, 15, seed=9):
        pv = cls.check(g, budget=SearchBudget(10**8), use_rules=False)
        sv = cls.check(g, budget=SearchBudget(10**8), use_patterns=False)
        assert pv.constraint_ids() <= sv.constraint_ids(), g.name
        assert cls.check(g).constraint_ids() == sv.constraint_ids()
        violated += not sv.ok
    assert violated >= 10
