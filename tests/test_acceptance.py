"""Acceptance criteria.

Each criterion runs at its stated tolerance and prints one pass/fail line
(run pytest with -s to see them).  Criterion 1 includes one deliberately
expected failure, marked strict-xfail: computationally, odd wheels admit
descending rim-wrap homomorphisms (the rim of a larger odd wheel winds onto
a smaller one), so a two-sided homomorphism antichain over the odd wheels
is unattainable.  The tilejep.jhp module docstring explains the wrap maps
and the deformed-image reading the homomorphism stage uses instead.
"""

import random
import time
from itertools import combinations

import pytest

from tilejep.core import ColoredGraph, complete_graph, is_biconnected, is_isomorphic
from tilejep.encoding import (
    EncodingScheme,
    find_free_wheel_copies,
    vee,
    wedge,
    wheel,
)
from tilejep.harness import (
    FOUND,
    NONE,
    jep_witness_search,
    run_no_experiment,
    run_yes_experiment,
)
from tilejep.hereditary import HereditaryClass
from tilejep.jhp import (
    compile_jhp_class,
    contains_k4,
    edge_nonedge_transform,
    proper_hom_images,
    two_rel_homomorphisms,
    with_nonedges,
)
from tilejep.matching import (
    ConstraintPattern,
    SearchBudget,
    automorphisms,
    contains_induced,
    homomorphisms,
)
from tilejep.tiling import PeriodicTiling, TilingProblem, check_patch, solve_periodic
from tilejep.unary import (
    canonical_A,
    canonical_B,
    compile_unary_class,
    extract_tiling,
    joint_embed_unary,
)
from tests.conftest import random_colored_graph, random_single_colored, wheel_copies_by_blocks


def _report(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- criterion 1: wheel facts -------------------------------------------------


def test_criterion_1_wheel_facts():
    t0 = time.time()
    sizes = (5, 7, 9, 11, 13, 15)
    wheels = {m: wheel(m) for m in sizes}
    for m, k in combinations(sizes, 2):
        assert not contains_induced(wheels[m], wheels[k])
        assert not contains_induced(wheels[k], wheels[m])
    for m in sizes:
        assert is_biconnected(wheels[m])
        auts = automorphisms(wheels[m], budget=SearchBudget(50_000_000))
        assert len(auts) == 2 * m
        assert all(a[0] == 0 for a in auts)
    # cores: every endomorphism of the 5- and 7-rim wheels is an automorphism
    for m in (5, 7):
        endos = homomorphisms(wheels[m], wheels[m], budget=SearchBudget(50_000_000))
        assert len(endos) == 2 * m
    # homomorphism antichain, ascending direction
    assert homomorphisms(wheels[5], wheels[7]) == []
    elapsed = time.time() - t0
    _report(1, elapsed < 60,
            f"embedding antichain W5..W15, hub-fixing automorphisms, 2-connectivity, "
            f"cores and ascending hom-antichain for W5/W7 in {elapsed:.1f}s "
            f"(descending direction: see the strict-xfail companion test)")


@pytest.mark.xfail(
    strict=True,
    reason="descending rim-wrap homomorphisms exist between odd wheels "
    "(e.g. the 7-rim wheel maps onto the 5-rim wheel via rim index mod 5), "
    "so a two-sided homomorphism antichain is unattainable; the "
    "homomorphism stage forbids deformed images instead (tilejep.jhp)",
)
def test_criterion_1_hom_antichain_descending():
    assert homomorphisms(wheel(7), wheel(5), limit=1) == []


# -- criterion 2: encoding round trip ------------------------------------------


def test_criterion_2_encoding_round_trip():
    t0 = time.time()
    rng = random.Random(2024)
    scheme = EncodingScheme(("c0", "c1", "c2", "c3"))
    for i in range(200):
        g = random_single_colored(rng, n_max=7, palette=scheme.palette[: rng.randint(1, 4)])
        assert is_isomorphic(vee(wedge(g, scheme), scheme), g), f"round trip {i}"
    preserved = 0
    for i in range(100):
        g = random_single_colored(rng, n_max=5, palette=("c0", "c1"))
        if i % 2 == 0:
            h = random_single_colored(rng, n_max=7, palette=("c0", "c1"))
        else:
            extra_vertex = max(len(g), 100 + i)
            hcolors = dict(g.color_map)
            hcolors[extra_vertex] = frozenset({"c2"})
            h = ColoredGraph(
                list(g.vertices) + [extra_vertex],
                list(map(tuple, g.edges)) + [(extra_vertex, g.vertices[0])],
                hcolors,
            )
        lhs = contains_induced(g, h, budget=SearchBudget(50_000_000))
        rhs = contains_induced(wedge(g, scheme), wedge(h, scheme), budget=SearchBudget(100_000_000))
        assert lhs == rhs, f"embedding preservation pair {i}"
        preserved += lhs
    elapsed = time.time() - t0
    _report(2, elapsed < 120,
            f"200 decode(encode(g)) isomorphisms and 100 embedding-preservation pairs "
            f"({preserved} positive) in {elapsed:.1f}s")


# -- criterion 3: image oracle --------------------------------------------------


def test_criterion_3_image_oracle():
    t0 = time.time()
    imgs = proper_hom_images(wheel(5))
    assert len(imgs) == 11  # frozen by the enumeration itself
    for h in imgs:
        assert contains_k4(h) is not None
        assert is_biconnected(h)
    elapsed = time.time() - t0
    _report(3, elapsed < 60,
            f"all {len(imgs)} proper homomorphic images of the 5-rim wheel contain K4 "
            f"and are 2-connected in {elapsed:.1f}s")


# -- criterion 4: constraint equivalence ----------------------------------------


def test_criterion_4_constraint_equivalence():
    t0 = time.time()
    rng = random.Random(4444)
    t = TilingProblem(2, h_forbidden={(1, 1)}, v_forbidden={(2, 2)})
    cls = compile_unary_class(t).subset([f"c{i}" for i in range(1, 8)])
    disagreements = 0
    for i in range(500):
        g = random_colored_graph(rng, n_max=12)
        pv = cls.check(g, budget=SearchBudget(10**8), use_rules=False)
        sv = cls.check(g, budget=SearchBudget(10**8), use_patterns=False)
        if {v.constraint for v in pv.violations} != {v.constraint for v in sv.violations}:
            disagreements += 1
    elapsed = time.time() - t0
    _report(4, disagreements == 0 and elapsed < 300,
            f"pattern vs derived-relation verdicts for constraints 1-7 agree on "
            f"500 random colored graphs (<=12 vertices) in {elapsed:.1f}s")


# -- criterion 5: YES pipelines ---------------------------------------------------


def test_criterion_5_yes_pipelines():
    t0 = time.time()
    t_free = TilingProblem(1)
    t_fig = TilingProblem(2, h_forbidden={(1, 1)})
    theta_fig = PeriodicTiling(3, 1, ((2, 2, 1),))
    runs = []
    for n in (1, 2, 3):
        runs.append(("unary", t_free, n, None))
        runs.append(("unary", t_fig, n, theta_fig))
    for n in (1, 2):
        runs.append(("pure", t_free, n, None))
        runs.append(("pure", t_fig, n, theta_fig))
    runs.append(("jhp", t_free, 1, None))
    runs.append(("jhp", t_fig, 1, theta_fig))
    for stage, problem, n, theta in runs:
        rep = run_yes_experiment(problem, n, stage, theta=theta)
        assert rep.ok, f"{stage} n={n} {problem.describe()}:\n{rep.to_text()}"
        assert rep.roundtrip_ok
        assert all(v == "pass" for v in rep.memberships.values())
    elapsed = time.time() - t0
    _report(5, elapsed < 600,
            f"{len(runs)} joint-embedding pipelines (unary depth<=3, encoded depth<=2, "
            f"homomorphism stage depth 1, two instances) all succeed with exact "
            f"round trips in {elapsed:.1f}s")


# -- criterion 6: NO pipeline -----------------------------------------------------


def test_criterion_6_no_pipeline():
    t0 = time.time()
    t = TilingProblem(1, h_forbidden={(1, 1)})
    rep = run_no_experiment(t, 2)
    assert rep.ok, rep.to_text()
    assert any("witness-search" in p and "exhaustive" in p for p in rep.refutation_paths)
    assert any("readout" in p for p in rep.refutation_paths)
    # positive control at depth 1: the single cell is tilable, so the
    # depth-1 models do jointly embed and the search must find the witness
    # (the refutation claim at depth 1 is unattainable; see the ledger)
    cls = compile_unary_class(t)
    res = jep_witness_search(canonical_A(1, t), canonical_B(1, t), cls,
                             budget=SearchBudget(20_000_000))
    assert res.status == FOUND
    elapsed = time.time() - t0
    _report(6, elapsed < 600,
            f"depth-2 refutation by exhaustive reduced witness search plus readout, "
            f"with the depth-1 positive control, in {elapsed:.1f}s")


# -- criterion 7: figure row reproduction ------------------------------------------


def test_criterion_7_figure_row():
    t0 = time.time()
    t = TilingProblem(2, h_forbidden={(1, 1)})
    theta = PeriodicTiling(3, 1, ((2, 2, 1),))
    assert check_patch(t, theta)[0]
    cls = compile_unary_class(t)
    joint = joint_embed_unary(canonical_A(3, t), canonical_B(3, t), theta, t, cls)
    patch = extract_tiling(joint, 3, t)
    row = [patch.tile_at(x, 0) for x in range(3)]
    assert row == [2, 2, 1]
    elapsed = time.time() - t0
    _report(7, True, f"bottom row reads exactly (2,2,1) in {elapsed:.1f}s")


# -- criterion 8: procedure closure -------------------------------------------------


def _random_members(rng, cls, problem, count, n_max=7, triangle_free=False):
    # the encoded-stage censuses (no K4, no triangle outside a wheel copy)
    # are claims about what the procedure produces, so the sampled members
    # must not carry triangles of their own, as the canonical models do not
    out = []
    tries = 0
    triangle = complete_graph(3)
    while len(out) < count and tries < count * 60:
        tries += 1
        g = random_colored_graph(rng, n_max=n_max, multicolor_p=0.0, uncolored_p=0.05)
        if triangle_free and contains_induced(triangle, g):
            continue
        if cls.check(g, budget=SearchBudget(10**7)).ok:
            out.append(g)
    a_full, b_full = canonical_A(2, problem), canonical_B(2, problem)
    while len(out) < count:
        base = a_full if rng.random() < 0.5 else b_full
        keep = [v for v in base.vertices if rng.random() < 0.75]
        out.append(base.induced(keep))
    return out


def test_criterion_8_procedure_closure():
    t0 = time.time()
    rng = random.Random(88)
    problem = TilingProblem(1)
    theta = solve_periodic(problem, 1)

    # unary stage: 50 random member pairs
    ucls = compile_unary_class(problem)
    members = _random_members(rng, ucls, problem, 100)
    for i in range(0, 100, 2):
        joint = joint_embed_unary(members[i], members[i + 1], theta, problem, ucls, check=False)
        assert ucls.check(joint).ok, f"unary pair {i // 2}"

    # encoded stages: 50 pairs each, built by wedging small members of the
    # stage's colored class (which adds the grid-edge and wheel prohibitions)
    from tilejep.encoding import (
        compile_colored_class,
        complete_and_joint_embed_pure,
        compile_pure_class,
    )

    for stage, compile_cls in (("pure", compile_pure_class), ("jhp", compile_jhp_class)):
        cls = compile_cls(problem)
        scheme = EncodingScheme(tuple(cls.meta["scheme_palette"]))
        ccls = compile_colored_class(problem, stage)
        colored_members = _random_members(rng, ccls, problem, 100, n_max=5, triangle_free=True)
        pairs_done = 0
        for i in range(0, 100, 2):
            ga = colored_members[i].induced(
                [v for v in colored_members[i].vertices if colored_members[i].colors(v)])
            gb = colored_members[i + 1].induced(
                [v for v in colored_members[i + 1].vertices if colored_members[i + 1].colors(v)])
            a = wedge(ga, scheme)
            b = wedge(gb, scheme)
            out = complete_and_joint_embed_pure(a, b, problem, theta, stage=stage,
                                                cls=cls, check=False)
            rep = cls.check(out)
            assert rep.ok, f"{stage} pair {pairs_done}: {rep.summary()}"
            assert contains_k4(out) is None
            # every triangle lies inside a recognized wheel copy
            copies = find_free_wheel_copies(out, (5,) + scheme.sizes())
            assert copies == wheel_copies_by_blocks(out, (5,) + scheme.sizes())
            cover = [blk for _, blk, _ in copies]
            adj = {v: set(out.neighbors(v)) for v in out.vertices}
            for v in out.vertices:
                ns = sorted(adj[v], key=out.index)
                for ia, u in enumerate(ns):
                    for w in ns[ia + 1:]:
                        if w in adj[u]:
                            assert any({u, v, w} <= blk for blk in cover), f"stray triangle {u},{v},{w}"
            pairs_done += 1
        assert pairs_done == 50
    elapsed = time.time() - t0
    _report(8, elapsed < 600,
            f"50 member pairs per stage: all joint-embedding outputs are members; "
            f"encoded outputs have no K4 and no triangle outside a wheel copy "
            f"({elapsed:.1f}s)")


# -- criterion 9: witness-bound soundness ---------------------------------------------


def _all_graphs(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        yield ColoredGraph(range(n), [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def test_criterion_9_witness_bound_soundness():
    t0 = time.time()
    rng = random.Random(990)
    shapes = [complete_graph(2), complete_graph(3),
              ColoredGraph(range(3), [(0, 1), (1, 2)]),
              ColoredGraph(range(4), [(0, 1), (1, 2), (2, 3)])]
    small = {n: list(_all_graphs(n)) for n in (1, 2, 3)}
    checked = 0
    while checked < 100:
        forb = rng.sample(shapes, rng.randint(0, 2))
        cls = HereditaryClass(
            f"toy{checked}", (),
            tuple(ConstraintPattern(f, name=f"f{i}") for i, f in enumerate(forb)),
        )
        na = rng.randint(1, 2)
        nb = rng.randint(1, 3)
        a = rng.choice(small[na])
        b = rng.choice(small[nb])
        if not (cls.check(a).ok and cls.check(b).ok):
            continue
        checked += 1
        res = jep_witness_search(a, b, cls, budget=SearchBudget(10**7))
        naive = False
        for n in range(max(na, nb), na + nb + 1):
            for c in _all_graphs(n):
                if cls.check(c, budget=SearchBudget(10**7)).ok and \
                        contains_induced(a, c) and contains_induced(b, c):
                    naive = True
                    break
            if naive:
                break
        assert res.status in (FOUND, NONE)
        assert (res.status == FOUND) == naive, f"pair {checked}"
    elapsed = time.time() - t0
    _report(9, elapsed < 120,
            f"search verdicts agree with naive all-graphs enumeration on 100 random "
            f"toy pairs in {elapsed:.1f}s")


# -- criterion 10: edge/non-edge language reduction --------------------------------------


def test_criterion_10_edge_nonedge_reduction():
    t0 = time.time()
    rng = random.Random(1010)
    triangle = complete_graph(3)
    cls2 = edge_nonedge_transform([triangle])
    disagreements = 0
    pairs = 0
    while pairs < 40:
        na, nb = rng.randint(1, 2), rng.randint(1, 3)
        a = rng.choice(list(_all_graphs(na)))
        b = rng.choice(list(_all_graphs(nb)))
        if contains_induced(triangle, a) or contains_induced(triangle, b):
            continue
        pairs += 1
        max_n = min(5, na + nb)
        jep = False
        for n in range(max(na, nb), max_n + 1):
            for c in _all_graphs(n):
                if contains_induced(triangle, c):
                    continue
                if contains_induced(a, c) and contains_induced(b, c):
                    jep = True
                    break
            if jep:
                break
        jhp = False
        ap, bp = with_nonedges(a), with_nonedges(b)
        for n in range(1, max_n + 1):
            for c in _all_graphs(n):
                s = with_nonedges(c)
                if not cls2.member(s):
                    continue
                if two_rel_homomorphisms(ap, s, limit=1) and two_rel_homomorphisms(bp, s, limit=1):
                    jhp = True
                    break
            if jhp:
                break
        if jep != jhp:
            disagreements += 1
    elapsed = time.time() - t0
    _report(10, disagreements == 0 and elapsed < 120,
            f"one-relation joint embedding agrees with two-relation joint homomorphism "
            f"on {pairs} triangle-free pairs (<=5-vertex witnesses) in {elapsed:.1f}s")
