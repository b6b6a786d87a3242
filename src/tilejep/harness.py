"""Experiment drivers: witness-bounded joint-embedding search and the
YES/NO pipelines that tie tiling solvability to joint embeddability.

Everything here returns first-class verdicts: ``found`` / ``none`` /
``indeterminate`` for searches and ``success`` / ``failure`` /
``indeterminate`` for experiments.  Budget exhaustion is never folded into
a definite answer.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core import ColoredGraph, disjoint_union
from .hereditary import FAIL, INDETERMINATE, PASS, HereditaryClass
from .matching import BudgetExceededError, SearchBudget, _match_engine
from .tiling import (
    TilingMap,
    TilingProblem,
    check_patch,
    solve_bounded,
    solve_periodic,
)
from .unary import (
    AmbiguityError,
    GRID,
    TILE,
    canonical_A,
    canonical_B,
    compile_unary_class,
    coordinates,
    extract_tiling,
    joint_embed_unary,
)

FOUND = "found"
NONE = "none"


@dataclass(frozen=True)
class WitnessResult:
    status: str                     # found / none / indeterminate
    witness: Optional[ColoredGraph] = None
    note: str = ""
    explored: int = 0


def _identification_matchings(a: ColoredGraph, b: ColoredGraph, budget: SearchBudget) -> list:
    """All partial injective identifications of a-vertices with b-vertices.

    A pair may be identified when the two vertices carry identical color
    sets; a set of identifications must induce identical structure on each
    side (edges between identified vertices must agree across the factors).
    The empty identification comes first.
    """
    av = list(a.vertices)
    out: list = []
    current: list = []

    def compatible(x, y):
        if a.colors(x) != b.colors(y):
            return False
        for (x2, y2) in current:
            if a.has_edge(x, x2) != b.has_edge(y, y2):
                return False
        return True

    def rec(i):
        budget.spend()
        if i == len(av):
            out.append(tuple(current))
            return
        x = av[i]
        rec(i + 1)  # x stays unidentified; empty matching is emitted first
        used = {y for (_, y) in current}
        for y in b.vertices:
            if y in used or not compatible(x, y):
                continue
            current.append((x, y))
            rec(i + 1)
            current.pop()

    rec(0)
    return out


class _PartialHost:
    """Decided-edge views of a partially constructed witness.

    ``lo`` holds only decided-present edges; a pair is definitely absent
    when it is neither decided-present nor still undecided.  Patterns run
    with required edges against lo and forbidden pairs against
    definite absence, so any match is a violation of every completion.
    """

    def __init__(self, base: ColoredGraph, undecided: set):
        self.base = base
        self.undecided = set(undecided)
        self.extra: set = set()

    def lo_graph(self) -> ColoredGraph:
        return self.base.with_edges(tuple(e) for e in self.extra)

    def definitely_absent(self, x, y) -> bool:
        key = frozenset((x, y))
        if key in self.extra or key in self.undecided:
            return False
        return not self.base.has_edge(x, y)


def _generic_pruner(cls: HereditaryClass, glued: ColoredGraph, budget: SearchBudget):
    """Definite-violation test for arbitrary classes: patterns matched with
    required edges against the decided-present view and forbidden pairs
    against definite absence, plus the monotone semantic rules."""
    monotone = {"c1", "c2", "c3", "c4", "c5", "c6", "c7", "grid-edge"}

    def prune(host: _PartialHost) -> bool:
        lo = host.lo_graph()
        host_multicolor = bool(lo.multicolored_vertices())
        for p in cls.patterns:
            if len(p) > len(lo):
                continue
            if p.multicolored and not host_multicolor:
                continue
            res = _match_engine(
                p,
                lo.vertices,
                lo.colors,
                lo.degree,
                lo.has_edge,
                host.definitely_absent,
                budget,
                limit=1,
                neighbors_of=lo.neighbors,
            )
            if res:
                return True
        for r in cls.rules:
            # monotone rules stay violated in every completion once they fire
            # on the decided-present graph; conditional rules are only sound
            # when nothing is undecided
            if host.undecided and r.constraint not in monotone:
                continue
            if r.check(lo, budget):
                return True
        return False

    return prune


def _unary_pruner(cls: HereditaryClass, glued: ColoredGraph, budget: SearchBudget):
    """Fast pruner for the compiled colored classes.

    The derived relations of the partially built witness never depend on
    the undecided cross pairs (those join level-0 grid vertices to tile
    vertices, which no coding chain passes through), so they are computed
    once on the glued union; per node only the adjacency views change.
    Returns None when the branch is dead at the root.
    """
    from .unary import _c7_scan, _c8_scan, _c9_scan, derive_relations

    tiles = cls.meta.get("tiles", 1)
    rules = [("h", l, k) for (l, k) in cls.meta.get("h", ())]
    rules += [("v", l, k) for (l, k) in cls.meta.get("v", ())]
    rel = derive_relations(glued, tiles, budget)
    # relation-monotone constraints are constant along the search: check once
    for r in cls.rules:
        if r.constraint in ("c1", "c2", "c3", "c4", "c5", "c6", "grid-edge"):
            if r.check(glued, budget):
                return None

    def prune(host: _PartialHost) -> bool:
        def has_edge(x, y):
            return glued.has_edge(x, y) or frozenset((x, y)) in host.extra

        def absent(x, y):
            return host.definitely_absent(x, y)

        if _c7_scan(glued, rel, rules, budget, has_edge):
            return True
        if _c8_scan(glued, rel, budget, has_edge, absent):
            return True
        if _c9_scan(glued, rel, tiles, budget, has_edge, absent):
            return True
        return False

    return prune


def jep_witness_search(
    a: ColoredGraph,
    b: ColoredGraph,
    cls: HereditaryClass,
    budget: SearchBudget | None = None,
    *,
    cross_pairs: Optional[Iterable] = None,
    identifications: bool = True,
) -> WitnessResult:
    """Exhaustive search for a joint-embedding witness on vertex set
    f(A) u g(B).

    Candidates are built from all color-consistent identifications of
    a-vertices with b-vertices and all subsets of the undecided cross
    pairs, pruned early against the class.  Hereditariness makes this
    vertex universe exhaustive: any witness restricts to one of this form.
    ``cross_pairs`` restricts the undecided pairs (callers must supply a
    reduction argument); the default is every cross pair.
    """
    budget = budget or SearchBudget()
    explored = 0
    try:
        matchings = (
            _identification_matchings(a, b, budget) if identifications else [()]
        )
        for ident in matchings:
            glued, inj_a, inj_b = _glue(a, b, ident)
            ident_a = {x for (x, _) in ident}
            ident_b = {y for (_, y) in ident}
            if cross_pairs is None:
                free = [
                    (inj_a[x], inj_b[y])
                    for x in a.vertices
                    if x not in ident_a
                    for y in b.vertices
                    if y not in ident_b
                ]
            else:
                free = [
                    (inj_a[x], inj_b[y])
                    for (x, y) in cross_pairs
                    if x not in ident_a and y not in ident_b
                ]
            host = _PartialHost(glued, {frozenset(p) for p in free})
            if cross_pairs is None:
                order = sorted(free, key=lambda p: (glued.index(p[0]), glued.index(p[1])))
            else:
                order = free  # caller-chosen order steers constraint forcing
            if cls.meta.get("stage") == "unary":
                prune = _unary_pruner(cls, glued, budget)
                if prune is None:
                    continue  # this identification already violates the class
            else:
                prune = _generic_pruner(cls, glued, budget)

            def dfs(i) -> Optional[ColoredGraph]:
                nonlocal explored
                explored += 1
                budget.spend()
                if prune(host):
                    return None
                if i == len(order):
                    cand = host.lo_graph()
                    if cls.check(cand, budget=budget).ok:
                        return cand
                    return None
                x, y = order[i]
                key = frozenset((x, y))
                host.undecided.discard(key)
                res = dfs(i + 1)  # absent branch first: smaller witnesses first
                if res is None:
                    host.extra.add(key)
                    res = dfs(i + 1)
                    host.extra.discard(key)
                host.undecided.add(key)
                return res

            witness = dfs(0)
            if witness is not None:
                return WitnessResult(FOUND, witness, explored=explored)
        return WitnessResult(NONE, explored=explored)
    except BudgetExceededError as exc:
        return WitnessResult(INDETERMINATE, note=str(exc), explored=explored)


def _glue(a: ColoredGraph, b: ColoredGraph, ident: tuple) -> tuple:
    """Disjoint union with the listed identification pairs merged."""
    from .core import free_join

    if not ident:
        g, ia, ib = disjoint_union(a, b)
        return g, ia, ib
    g, ia, ib = free_join(a, b, list(ident))
    return g, ia, ib


# --------------------------------------------------------------------------
# experiments
# --------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    kind: str                        # "yes" or "no"
    instance: str
    stage: str
    depth: int
    status: str = "indeterminate"    # success / failure / indeterminate
    oracle: dict = field(default_factory=dict)
    memberships: dict = field(default_factory=dict)
    joint: dict = field(default_factory=dict)
    extracted: Optional[list] = None
    roundtrip_ok: Optional[bool] = None
    refutation_paths: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "success"

    def to_json(self) -> str:
        data = dict(self.__dict__)
        return json.dumps(data, indent=2, sort_keys=True, default=str)

    def to_text(self) -> str:
        lines = [
            f"experiment: {self.kind}  stage={self.stage}  depth={self.depth}",
            f"instance:   {self.instance}",
            f"status:     {self.status}",
        ]
        for k, v in sorted(self.oracle.items()):
            lines.append(f"oracle.{k}: {v}")
        for k, v in self.memberships.items():
            lines.append(f"member[{k}]: {v}")
        for k, v in sorted(self.joint.items()):
            lines.append(f"joint.{k}: {v}")
        if self.extracted is not None:
            lines.append(f"extracted (rows, y=0 first): {self.extracted}")
        if self.roundtrip_ok is not None:
            lines.append(f"roundtrip: {'exact' if self.roundtrip_ok else 'MISMATCH'}")
        for p in self.refutation_paths:
            lines.append(f"refutation: {p}")
        for n in self.notes:
            lines.append(f"note: {n}")
        for k, v in sorted(self.timings.items()):
            lines.append(f"time.{k}: {v:.2f}s")
        return "\n".join(lines) + "\n"


def _stage_objects(problem: TilingProblem, stage: str, n: int):
    """Canonical witnesses, class, and helpers for one pipeline stage."""
    from .encoding import EncodingScheme, compile_pure_class, vee, wedge
    from .jhp import augment, compile_jhp_class
    from .unary import stage_palette

    A = canonical_A(n, problem)
    B = canonical_B(n, problem)
    if stage == "unary":
        cls = compile_unary_class(problem)
        return A, B, cls, None
    if stage == "pure":
        cls = compile_pure_class(problem)
        scheme = EncodingScheme(stage_palette("pure"))
        return wedge(A, scheme), wedge(B, scheme), cls, scheme
    if stage == "jhp":
        cls = compile_jhp_class(problem)
        scheme = EncodingScheme(stage_palette("jhp"))
        return (
            wedge(augment(A).graph, scheme),
            wedge(augment(B).graph, scheme),
            cls,
            scheme,
        )
    raise ValueError(f"unknown stage {stage!r}")


def run_yes_experiment(
    problem: TilingProblem,
    n: int,
    stage: str = "unary",
    theta: TilingMap | None = None,
    max_period: int = 4,
    budget: SearchBudget | None = None,
) -> ExperimentReport:
    """Build stage witnesses, run the stage procedure with a valid tiling
    map, verify class membership of everything, and round-trip the tiling.

    ``theta`` defaults to the periodic-search oracle's solution; an
    explicitly supplied map is validated instead (the searched one is not
    always the map an experiment wants to showcase).
    """
    from .encoding import complete_and_joint_embed_pure, vee

    rep = ExperimentReport("yes", problem.describe(), stage, n)
    t0 = time.perf_counter()
    if theta is None:
        theta = solve_periodic(problem, max_period)
        rep.oracle["periodic"] = "found" if theta else "none"
        if theta is None:
            rep.status = "indeterminate"
            rep.notes.append(
                f"no periodic solution with periods <= {max_period}; instance not certified YES"
            )
            return rep
    else:
        ok, bad = check_patch(problem, theta)
        rep.oracle["periodic"] = "provided"
        if not ok:
            rep.status = "failure"
            rep.notes.append(f"supplied theta violates the rules: {bad[0]}")
            return rep
    rep.timings["oracle"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    a, b, cls, scheme = _stage_objects(problem, stage, n)
    rep.timings["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for tag, g in (("A", a), ("B", b)):
        r = cls.check(g, budget=budget)
        rep.memberships[tag] = r.status
    rep.timings["member_factors"] = time.perf_counter() - t0
    if any(v != PASS for v in rep.memberships.values()):
        rep.status = "failure" if FAIL in rep.memberships.values() else "indeterminate"
        return rep

    t0 = time.perf_counter()
    if stage == "unary":
        joint = joint_embed_unary(a, b, theta, problem, cls, check=False)
    else:
        joint = complete_and_joint_embed_pure(
            a, b, problem, theta, stage=stage, cls=cls, check=False
        )
    rep.joint["vertices"] = len(joint)
    rep.joint["edges"] = len(joint.edges)
    rep.timings["procedure"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    r = cls.check(joint, budget=budget)
    rep.memberships["joint"] = r.status
    rep.timings["member_joint"] = time.perf_counter() - t0
    if r.status != PASS:
        rep.status = "failure" if r.status == FAIL else "indeterminate"
        rep.notes.extend(str(v) for v in r.violations[:5])
        return rep

    t0 = time.perf_counter()
    shadow = joint if stage == "unary" else vee(joint, scheme)
    patch = extract_tiling(shadow, n, problem)
    rep.extracted = [[patch.tile_at(x, y) for x in range(n)] for y in range(n)]
    expected = [[theta.tile_at(x, y) for x in range(n)] for y in range(n)]
    rep.roundtrip_ok = rep.extracted == expected
    rep.timings["extract"] = time.perf_counter() - t0
    rep.status = "success" if rep.roundtrip_ok else "failure"
    if not rep.roundtrip_ok:
        rep.notes.append(f"expected window {expected}")
    return rep


def _grid_tile_cross_pairs(a: ColoredGraph, b: ColoredGraph) -> list:
    """Cross pairs between level-0 grid vertices and tile vertices.

    Any witness over two class members restricts to one whose only cross
    edges join level-0 grid vertices to tile vertices and whose coding
    identifications are undone: removing other cross edges or splitting
    identified coding vertices never creates a violation (conditional
    constraints only inspect grid-tile adjacency, everything else is
    monotone), so searching this reduced space is still exhaustive.

    Pairs are ordered row-major by the grid vertex's coordinates, keeping
    horizontally adjacent cells consecutive so rule conflicts surface at the
    shallowest possible search depth.
    """
    pairs = []
    for src, dst, flip in ((a, b, False), (b, a, True)):
        try:
            coords = coordinates(src)
        except AmbiguityError:
            coords = {}  # only the search order degrades, not the verdict
        for x in src.vertices:
            if GRID[0] not in src.colors(x):
                continue
            cx = coords.get(x, (1 << 30, 1 << 30))
            for y in dst.vertices:
                if TILE in dst.colors(y):
                    p = (y, x) if flip else (x, y)
                    pairs.append(((cx[1], cx[0]), src.index(x), dst.index(y), p))
    return [p for *_, p in sorted(pairs, key=lambda t: t[:3])]


def run_no_experiment(
    problem: TilingProblem,
    n: int,
    budget: SearchBudget | None = None,
    full_search_cap: int = 24,
) -> ExperimentReport:
    """Refute joint embeddability of the depth-n canonical models for an
    instance with no n x n patch.

    Two refutation paths are attempted: exhaustive witness search (full
    when the cross-pair space is small enough, else reduced to grid-tile
    pairs), and the readout argument (any witness would read out an n x n
    patch, contradicting the bounded oracle).  The report records each path
    that concluded.
    """
    rep = ExperimentReport("no", problem.describe(), "unary", n)
    t0 = time.perf_counter()
    try:
        patch = solve_bounded(problem, n, budget=SearchBudget(20_000_000))
    except BudgetExceededError as exc:
        rep.status = "indeterminate"
        rep.notes.append(f"bounded oracle inconclusive: {exc}")
        return rep
    rep.oracle["bounded"] = "none" if patch is None else "found"
    rep.timings["oracle"] = time.perf_counter() - t0
    if patch is not None:
        rep.status = "failure"
        rep.notes.append("precondition failed: an n x n patch exists, instance is not refutable at this depth")
        return rep

    a = canonical_A(n, problem)
    b = canonical_B(n, problem)
    cls = compile_unary_class(problem)
    t0 = time.perf_counter()
    rep.memberships["A"] = cls.check(a).status
    rep.memberships["B"] = cls.check(b).status
    rep.timings["member_factors"] = time.perf_counter() - t0

    searched = False
    t0 = time.perf_counter()
    if len(a) + len(b) <= full_search_cap:
        res = jep_witness_search(a, b, cls, budget=budget or SearchBudget(40_000_000))
        if res.status == NONE:
            rep.refutation_paths.append("witness-search (full space, exhaustive)")
            searched = True
        elif res.status == FOUND:
            rep.status = "failure"
            rep.notes.append("a witness exists; refutation impossible")
            return rep
        else:
            rep.notes.append(f"full witness search inconclusive: {res.note}")
    if not searched:
        pairs = _grid_tile_cross_pairs(a, b)
        res = jep_witness_search(
            a,
            b,
            cls,
            budget=budget or SearchBudget(60_000_000),
            cross_pairs=pairs,
            identifications=False,
        )
        if res.status == NONE:
            rep.refutation_paths.append(
                f"witness-search (reduced to {len(pairs)} grid-tile pairs, exhaustive)"
            )
        elif res.status == FOUND:
            rep.status = "failure"
            rep.notes.append("a witness exists in the reduced space; refutation impossible")
            return rep
        else:
            rep.notes.append(f"reduced witness search inconclusive: {res.note}")
    rep.timings["witness_search"] = time.perf_counter() - t0

    # readout argument: constraints force any witness to read out a valid
    # n x n patch (origin tiled, propagated, rules respected), and the
    # bounded oracle just certified no such patch exists
    if rep.memberships["A"] == PASS and rep.memberships["B"] == PASS and rep.oracle["bounded"] == "none":
        rep.refutation_paths.append("readout (witness would yield an n x n patch, oracle says none exists)")

    rep.status = "success" if rep.refutation_paths else "indeterminate"
    return rep
