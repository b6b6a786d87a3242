"""The class route table: which route decides each tag, the default check
that runs only the authoritative route, and the membership memo."""

import random

import pytest

from tilejep import hereditary
from tilejep.core import ColoredGraph, complete_graph, disjoint_union
from tilejep.encoding import EncodingScheme, compile_colored_class, compile_pure_class, wedge
from tilejep.hereditary import HereditaryClass
from tilejep.jhp import augment, compile_jhp_class, contains_k4
from tilejep.matching import ConstraintPattern, SearchBudget, matches
from tilejep.tiling import TilingProblem, solve_periodic
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
    assert h11["colored"].pattern_routed_tags() == {"wheel-shape"}
    assert h11["pure"].pattern_routed_tags() == set()
    assert h11["jhp"].pattern_routed_tags() == set()


def test_subset_without_the_rule_falls_back_to_patterns(h11):
    cls = h11["unary"]
    assert cls.subset(["c7"]).pattern_routed_tags() == set()
    only_patterns = HereditaryClass("c7-patterns", cls.palette,
                                    tuple(p for p in cls.patterns if p.constraint == "c7"))
    assert only_patterns.pattern_routed_tags() == {"c7"}


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
        (h11["unary"], [a, b, canonical_A(2, H11), double_projection], set()),
        (h11["pure"], [wedge(a, scheme), wedge(double_projection, scheme)], {"wheel-shape"}),
        (h11["jhp"], [wedge(augment(a).graph, jscheme), complete_graph(4)], {"wheel-shape"}),
    ]
    calls = _recording(monkeypatch)
    for cls, hosts, allowed in cases:
        decided = {p.constraint for p in cls.patterns} - cls.pattern_routed_tags()
        for g in hosts:
            del calls[:]
            cls.check(g, budget=SearchBudget(10**8))
            # the only matching left comes from the colored class the
            # decoding rule checks on the vee shadow
            assert set(calls) <= allowed and not set(calls) & decided, (cls.name, g.name)
    del calls[:]
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
