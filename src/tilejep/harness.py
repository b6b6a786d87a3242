"""Experiment drivers: witness-bounded joint-embedding search and the
YES/NO pipelines that tie tiling solvability to joint embeddability.

Everything here returns first-class verdicts: ``found`` / ``none`` /
``indeterminate`` for searches and ``success`` / ``failure`` /
``indeterminate`` for experiments.  Budget exhaustion is never folded into
a definite answer.

The witness search has one path for every class: one iterative DPLL loop
over the undecided cross pairs.  Per identification the class is grounded
once into clauses (``ground_clauses``): every rule that declares a
grounding, and every pattern of a family no rule decides.  Unit propagation
refutes those clauses; the leaf ``check`` decides everything else.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .core import ColoredGraph, backtrack, disjoint_union, free_join
from .hereditary import FAIL, INDETERMINATE, PASS, HereditaryClass
from .matching import BudgetExceededError, SearchBudget, _match_engine
from .stages import STAGES
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
)

FOUND = "found"
NONE = "none"
FULL_SEARCH_CAP = 24  # the NO driver searches the full space only up to |A| + |B| this large


@dataclass(frozen=True)
class WitnessResult:
    status: str                     # found / none / indeterminate
    witness: Optional[ColoredGraph] = None
    note: str = ""
    explored: int = 0


def _identification_matchings(a: ColoredGraph, b: ColoredGraph, budget: SearchBudget) -> Iterator[tuple]:
    """All partial injective identifications of a-vertices with b-vertices,
    generated lazily.

    A pair may be identified when the two vertices carry identical color
    sets; a set of identifications must induce identical structure on each
    side (edges between identified vertices must agree across the factors).
    Each a-vertex first stays unidentified, then tries the b-vertices in
    order, so the empty identification comes first.
    """
    av = list(a.vertices)
    bv = list(b.vertices)

    def domain(i, x):
        # -1 leaves a-vertex i unidentified; k >= 0 names bv[k]
        used = set(x)
        return [-1] + [k for k in range(len(bv)) if k not in used]

    def ok(i, k, x):
        if k < 0:
            return True
        u, y = av[i], bv[k]
        return a.colors(u) == b.colors(y) and all(
            a.has_edge(u, w) == b.has_edge(y, bv[j]) for w, j in zip(av, x) if j >= 0
        )

    for x in backtrack(len(av), domain, ok, budget):
        yield tuple((u, bv[k]) for u, k in zip(av, x) if k >= 0)


def ground_clauses(cls: HereditaryClass, glued: ColoredGraph, keys: list, budget: SearchBudget) -> list:
    """The prohibitions of ``cls`` as clauses over the undecided pairs
    ``keys`` of ``glued``; literal ``i + 1`` says ``keys[i]`` is an edge,
    ``-(i + 1)`` that it is not.

    Two sources each run once: every rule that declares ``ground``, given
    "may be present" and "may be absent" predicates, and every pattern of a
    family no rule decides (as ``check`` selects them), matched on the
    upper graph, ``glued`` plus every undecided pair, with forbidden pairs
    tested against "may be absent".  Each violation or match is one clause:
    a pair read as present gives a negative literal, one read as absent a
    positive literal, and decided pairs, which hold as read, drop out.  A
    completion that falsifies a clause violates the class, so pruning loses
    no witness; a pattern clause is falsified exactly by the completions
    holding its match.  An empty clause ends the grounding.
    """
    var = {k: i + 1 for i, k in enumerate(keys)}

    def may_present(x, y):
        return glued.has_edge(x, y) or frozenset((x, y)) in var

    def may_absent(x, y):
        return not glued.has_edge(x, y)

    def reads():
        for r in cls.rules:
            if r.ground is not None:
                yield from r.ground(glued, may_present, may_absent, budget)
        patterns = cls.host_patterns(cls._pattern_routed, glued)
        if patterns:
            upper = glued.with_edges(keys)
            for p in patterns:
                for m in _match_engine(p, upper.vertices, upper.colors, upper.degree, upper.has_edge,
                                       may_absent, budget, None, upper.neighbors):
                    yield ([tuple(map(m.map.get, e)) for e in p.pattern.edges],
                           [tuple(map(m.map.get, e)) for e in p.forbidden])

    clauses = set()
    for present, absent in reads():
        lits = {-var.get(frozenset(p), 0) for p in present} | {var.get(frozenset(p), 0) for p in absent}
        lits.discard(0)
        if not lits:
            return [()]
        clauses.add(tuple(sorted(lits)))
    return sorted(clauses)


class _PartialHost:
    """A partial assignment of the undecided pairs.

    ``value[i]`` is None, True (edge) or False (non-edge) for pair ``i``
    (literal ``i + 1`` / ``-(i + 1)``), and ``trail`` lists the assigned
    indices in order, so backtracking undoes a suffix.
    """

    def __init__(self, size: int, clauses: list):
        self.value: list = [None] * size
        self.trail: list = []
        self.occurs = defaultdict(list)
        for c in clauses:
            for lit in c:
                self.occurs[lit].append(c)

    def assign(self, lit: int) -> None:
        i = abs(lit) - 1
        self.value[i] = lit > 0
        self.trail.append(i)

    def undo(self, mark: int) -> None:
        for i in self.trail[mark:]:
            self.value[i] = None
        del self.trail[mark:]

    def start(self, clauses: list, budget: SearchBudget) -> bool:
        """Assign the unit clauses and propagate; False on a root conflict."""
        for c in clauses:
            if not c:
                return False
            if len(c) == 1 and self.value[abs(c[0]) - 1] is None:
                budget.spend()
                self.assign(c[0])
        return self.propagate(0, budget)

    def propagate(self, head: int, budget: SearchBudget) -> bool:
        """Unit propagation of ``trail[head:]``; False once a clause is
        falsified.  Every clause an assignment falsifies a literal of is
        rescanned whole, not through two watched literals: rule clauses
        hold at most tiles + 1 literals, and a pattern clause at most one
        per pattern pair."""
        value = self.value
        while head < len(self.trail):
            i = self.trail[head]
            head += 1
            for c in self.occurs.get(-(i + 1) if value[i] else i + 1, ()):
                unit = None
                for lit in c:
                    v = value[abs(lit) - 1]
                    if v is None:
                        if unit is not None:
                            break
                        unit = lit
                    elif v == (lit > 0):
                        break
                else:
                    if unit is None:
                        return False
                    budget.spend()
                    self.assign(unit)
        return True


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
    pairs.  Hereditariness makes this vertex universe exhaustive: any
    witness restricts to one of this form.  ``cross_pairs`` restricts the
    undecided pairs (callers must supply a reduction argument); the default
    is every cross pair.

    Every class takes one path.  Per identification the class is grounded
    once (``ground_clauses``: the rules that declare a grounding, and the
    patterns of the families no rule decides), then an iterative DPLL loop
    (explicit trail and decision stack) decides the pairs in the caller's
    order, absent first, runs unit propagation after each decision, and
    backtracks chronologically.  A falsified clause is a violation in every
    completion, so no witness is lost.  A full assignment is a witness only
    if ``cls.check`` passes it; the leaf check is authoritative and alone
    decides the rules that declare no grounding.  Budget: one node per
    decision, flip and propagated assignment; grounding and the leaf check
    spend their own.  ``explored`` counts decisions.
    """
    budget = budget or SearchBudget()
    explored = 0
    try:
        for ident in _identification_matchings(a, b, budget) if identifications else [()]:
            glued, inj_a, inj_b = _glue(a, b, ident)
            ident_a = {x for (x, _) in ident}
            ident_b = {y for (_, y) in ident}
            if cross_pairs is None:
                free = sorted(((inj_a[x], inj_b[y]) for x in a.vertices for y in b.vertices
                               if x not in ident_a and y not in ident_b),
                              key=lambda p: (glued.index(p[0]), glued.index(p[1])))
            else:  # caller-chosen order steers constraint forcing
                free = [(inj_a[x], inj_b[y]) for (x, y) in cross_pairs
                        if x not in ident_a and y not in ident_b]
            keys = [frozenset(p) for p in free]
            clauses = ground_clauses(cls, glued, keys, budget)
            host = _PartialHost(len(keys), clauses)
            ok = host.start(clauses, budget)
            stack: list = []  # (index, trail mark) of each decision still on its absent branch
            pos = 0
            while ok:
                while pos < len(keys) and host.value[pos] is not None:
                    pos += 1
                if pos == len(keys):
                    cand = glued.with_edges(k for k, v in zip(keys, host.value) if v)
                    report = cls.check(cand, budget=budget)
                    if report.status == INDETERMINATE:
                        raise BudgetExceededError("; ".join(report.notes))
                    if report.ok:
                        return WitnessResult(FOUND, cand, explored=explored)
                    ok = False
                else:
                    explored += 1
                    budget.spend()
                    stack.append((pos, len(host.trail)))
                    host.assign(-(pos + 1))  # absent first: smaller witnesses first
                    ok = host.propagate(len(host.trail) - 1, budget)
                while not ok and stack:
                    pos, mark = stack.pop()
                    host.undo(mark)
                    budget.spend()
                    host.assign(pos + 1)
                    ok = host.propagate(mark, budget)
        return WitnessResult(NONE, explored=explored)
    except BudgetExceededError as exc:
        return WitnessResult(INDETERMINATE, note=str(exc), explored=explored)


def _glue(a: ColoredGraph, b: ColoredGraph, ident: tuple) -> tuple:
    """Disjoint union with the listed identification pairs merged."""
    return free_join(a, b, list(ident)) if ident else disjoint_union(a, b)


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
    always the map an experiment wants to showcase): one that breaks the
    rules is a failure, one that leaves a cell of the n x n window blank
    certifies nothing and is indeterminate.
    """
    st = STAGES[stage]
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
        blank = [(x, y) for y in range(n) for x in range(n) if theta.tile_at(x, y) is None]
        if blank:
            rep.status = "indeterminate"
            rep.notes.append(f"supplied theta leaves {len(blank)} cells of the {n}x{n} window blank, "
                             f"first {blank[0]}; it certifies no YES")
            return rep
    rep.timings["oracle"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cls = st.compile(problem)
    a, b = st.encode(canonical_A(n, problem)), st.encode(canonical_B(n, problem))
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
    joint = st.join(a, b, problem, theta, cls, check=False)
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
    patch = extract_tiling(st.decode(joint), n, problem)
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
) -> ExperimentReport:
    """Refute joint embeddability of the depth-n canonical models for an
    instance with no n x n patch.

    Two refutation paths are attempted: exhaustive witness search (full
    when the cross-pair space is small enough, else reduced to grid-tile
    pairs), and the readout argument (any witness would read out an n x n
    patch, contradicting the bounded oracle).  The report records each path
    that concluded.  Only a concluded witness search makes the status
    ``success``; the argued readout alone leaves it ``indeterminate``.
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

    t0 = time.perf_counter()
    pairs = _grid_tile_cross_pairs(a, b)
    spaces = [(f"reduced to {len(pairs)} grid-tile pairs", pairs, False, 60_000_000)]
    if len(a) + len(b) <= FULL_SEARCH_CAP:
        spaces.insert(0, ("full space", None, True, 40_000_000))
    for label, cross, ident, limit in spaces:
        res = jep_witness_search(a, b, cls, budget=budget or SearchBudget(limit),
                                 cross_pairs=cross, identifications=ident)
        if res.status == FOUND:
            rep.status = "failure"
            rep.notes.append(f"a witness exists ({label}); refutation impossible")
            return rep
        if res.status == NONE:
            rep.refutation_paths.append(f"witness-search ({label}, exhaustive)")
            break
        rep.notes.append(f"witness search ({label}) inconclusive: {res.note}")
    rep.timings["witness_search"] = time.perf_counter() - t0

    # readout argument: constraints force any witness to read out a valid
    # n x n patch (origin tiled, propagated, rules respected), and the
    # bounded oracle just certified no such patch exists
    if rep.memberships["A"] == PASS and rep.memberships["B"] == PASS and rep.oracle["bounded"] == "none":
        rep.refutation_paths.append("readout (witness would yield an n x n patch, oracle says none exists)")

    # only a concluded witness search is a computed refutation
    computed = any(p.startswith("witness-search") for p in rep.refutation_paths)
    rep.status = "success" if computed else "indeterminate"
    if not computed and rep.refutation_paths:
        rep.notes.append("only the readout argument concluded; no computed refutation")
    return rep
