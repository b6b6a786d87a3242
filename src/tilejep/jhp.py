"""Stage-3 compiler: classes whose joint *homomorphism* behaviour tracks tiling.

The colored canonical models are augmented with 5-rim wheel gadgets over
every non-adjacent vertex pair (new vertices carry the guard color), so
that, once K4 is forbidden, no homomorphism can merge or newly connect a
guarded pair without creating a K4.  Deformations inside an encoding wheel
are excluded by forbidding deformed homomorphic images of the scheme
wheels.

A note on wheel homomorphisms, verified computationally in the test suite:
odd wheels admit *descending* homomorphisms (the rim of a larger odd wheel
wraps onto the rim of a smaller one, e.g. a 7-rim wheel maps onto a 5-rim
wheel), so "no homomorphic image of any scheme wheel" taken literally would
exclude every graph carrying attached wheels of two sizes - including the
encoded canonical models themselves.  The class therefore forbids
*deformed* images: a homomorphism from a scheme wheel must have an image
inducing a plain wheel (hub plus induced-cycle rim).  Clean rim-onto-rim
wraps are exactly the homomorphisms this admits; everything the
joint-homomorphism argument needs to exclude (merged basepoints, chords,
partial collapses) is still forbidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .core import (
    ColoredGraph,
    backtrack,
    complete_graph,
    dedupe_isomorphic,
    independent_partitions,
    pair,
)
from .hereditary import (
    FAIL,
    INDETERMINATE,
    PASS,
    CheckReport,
    HereditaryClass,
    PatternFamily,
    SemanticRule,
    Violation,
)
from .matching import (
    BudgetExceededError,
    ConstraintPattern,
    SearchBudget,
    _earlier,
    is_induced_embedding,
)
from .encoding import (
    EncodingScheme,
    compile_pure_class,
    neighborhood_profile,
    vee,
)
from .tiling import TilingProblem
from .unary import GUARD, stage_palette


@dataclass(frozen=True)
class AugmentedModel:
    """A canonical truncation with a 5-rim wheel joined over every
    non-adjacent pair; the fresh vertices carry the guard color."""

    base: ColoredGraph
    graph: ColoredGraph
    copies: tuple  # ((u, v), frozenset of the copy's six vertices) per pair


def augment(g: ColoredGraph) -> AugmentedModel:
    """Freely join a fresh 5-rim wheel over every non-adjacent vertex pair.

    The pair lands on two rim positions at rim distance two, so it stays
    non-adjacent; the four fresh vertices (hub plus three rim) are colored
    guard.
    """
    verts = list(g.vertices)
    edges = [tuple(e) for e in g.edges]
    colors = {v: set(g.colors(v)) for v in g.vertices if g.colors(v)}
    copies = []
    k = 0
    for u, v in combinations(g.vertices, 2):
        if g.has_edge(u, v):
            continue
        hub = f"aug{k}h"
        r2, r4, r5 = f"aug{k}a", f"aug{k}b", f"aug{k}c"
        k += 1
        for nv in (hub, r2, r4, r5):
            verts.append(nv)
            colors[nv] = {GUARD}
        rim = [u, r2, v, r4, r5]
        edges += [(hub, r) for r in rim]
        edges += [(rim[i], rim[(i + 1) % 5]) for i in range(5)]
        copies.append(((u, v), frozenset([hub, r2, r4, r5, u, v])))
    graph = ColoredGraph(verts, edges, colors, name=f"aug[{g.name}]")
    return AugmentedModel(base=g, graph=graph, copies=tuple(copies))


# --------------------------------------------------------------------------
# proper homomorphic images: explicit enumeration oracle
# --------------------------------------------------------------------------


def proper_hom_images(w: ColoredGraph, size_cap: int = 200_000, dedup: bool = True) -> list:
    """All proper homomorphic images of a small graph.

    Enumerates vertex-surjective homomorphic images: quotients by
    independent-set partitions, each optionally extended by extra edges.
    The identity quotient with no extra edges (the graph itself) is
    excluded; everything else is a proper image.  Raises when more than
    ``size_cap`` candidates appear; ``dedup`` collapses the list up to
    isomorphism (skippable for large oracles whose consumers only assert a
    universally quantified property).
    """
    images = []
    count = 0
    for part in independent_partitions(w.vertices, w.has_edge):
        rep = {}
        for b in part:
            for v in b:
                rep[v] = b[0]
        heads = [b[0] for b in part]
        base_edges = {pair(rep[u], rep[v]) for e in w.edges for u, v in (tuple(e),)}
        non_edges = [
            (u, v) for u, v in combinations(heads, 2) if pair(u, v) not in base_edges
        ]
        trivial = len(part) == len(w)
        for m in range(1 << len(non_edges)):
            if trivial and m == 0:
                continue  # the graph itself: not proper
            extra = [non_edges[i] for i in range(len(non_edges)) if m >> i & 1]
            count += 1
            if count > size_cap:
                raise BudgetExceededError(
                    f"proper-image enumeration exceeded {size_cap} candidates"
                )
            images.append(
                ColoredGraph(
                    heads,
                    [tuple(e) for e in base_edges] + extra,
                    name=f"img[{w.name}]",
                )
            )
    return dedupe_isomorphic(images) if dedup else images


def contains_k4(g: ColoredGraph, budget: SearchBudget | None = None) -> Optional[tuple]:
    """First 4-clique in vertex order, or None.  Memoized on the graph.

    Decided by the neighbourhood profile: g has a K4 exactly when some
    neighbourhood holds a triangle, that is a 3-vertex plain-cycle component
    or an odd component of odd girth 3.  Only then does the edge scan run,
    for the witness.
    """
    if "_k4_witness" in g.__dict__:
        return g.__dict__["_k4_witness"]
    budget = budget or SearchBudget()
    profile = neighborhood_profile(g, budget)
    has = (any(len(comp) == 3 for _, comp in profile["cycles"])
           or any(girth == 3 for _, _, girth in profile["odd"]))
    result = _scan_k4(g, budget) if has else None
    g.__dict__["_k4_witness"] = result
    return result


def _scan_k4(g: ColoredGraph, budget: SearchBudget) -> Optional[tuple]:
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    for e in sorted((tuple(g.sorted_vertices(e)) for e in g.edges),
                    key=lambda e: (g.index(e[0]), g.index(e[1]))):
        u, v = e
        common = g.sorted_vertices(adj[u] & adj[v])
        for x, y in combinations(common, 2):
            budget.spend()
            if y in adj[x]:
                return tuple(g.sorted_vertices((u, v, x, y)))
    return None


def deformed_image_witness(
    g: ColoredGraph, rim_size: int, budget: SearchBudget | None = None
) -> Optional[tuple]:
    """A vertex hosting a deformed homomorphic image of the wheel with the
    given rim size, or None.

    A homomorphism from a wheel sends the hub to some x and the rim into
    the neighborhood of x as a closed odd walk, so images live inside one
    vertex's closed neighborhood.  On K4-free hosts the image induces a
    plain wheel exactly when the walk's span is an induced cycle; any
    non-bipartite neighborhood component that is not an induced cycle
    carries a deformed image for every odd rim length from its odd girth
    plus two upward (wind the shortest odd cycle, then detour to a
    neighboring vertex, padding with back-and-forth steps).
    """
    budget = budget or SearchBudget()
    for x, comp, girth in neighborhood_profile(g, budget)["odd"]:
        if girth + 2 <= rim_size:
            return (x, comp)
    return None


# --------------------------------------------------------------------------
# the stage-3 class
# --------------------------------------------------------------------------


def _rule_no_proper_images(scheme: EncodingScheme) -> tuple:
    """One deformed-image rule per scheme wheel.  Each also decides K4 from
    the memoised ``contains_k4``, since the image test presumes a K4-free
    host; the K4 pattern is the cross-check."""
    rules = []
    for color in scheme.palette:
        m = scheme.wheel_size(color)

        def fn(g: ColoredGraph, budget: SearchBudget, m=m) -> list:
            k4 = contains_k4(g, budget)
            if k4 is not None:
                return [Violation("K4", "k4-scan", k4)]
            wit = deformed_image_witness(g, m, budget)
            if wit is None:
                return []
            x, comp = wit
            return [Violation("wheel-image", f"sem:no-proper-image:W{m}", (x, *comp))]

        rules.append(
            SemanticRule(
                f"sem:no-proper-image:W{m}",
                "wheel-image",
                {"kind": "no-proper-image", "wheel": m},
                fn,
                decides=("K4",),
            )
        )
    return tuple(rules)


def _k4_patterns() -> tuple:
    return (ConstraintPattern(complete_graph(4), name="K4", constraint="K4"),)


def compile_jhp_class(problem: TilingProblem) -> HereditaryClass:
    """The stage-3 pure-graph class: the stage-2 compilation over the palette
    extended with the guard color, united with the K4 prohibition and the
    deformed-wheel-image rules.  Rules decide every tag (K4 by the
    deformed-image rules, read off the neighbourhood profile), so neither
    the compile nor ``check`` builds a pattern; the K4 family comes after
    the stage-2 families."""
    scheme = EncodingScheme(stage_palette("jhp"))
    base = compile_pure_class(problem, stage="jhp")
    return HereditaryClass(
        name=base.name,
        palette=(),
        patterns=base.families + (PatternFamily("K4", _k4_patterns),),
        rules=tuple(base.rules) + _rule_no_proper_images(scheme),
        meta=dict(base.meta),
    )


# --------------------------------------------------------------------------
# homomorphism rigidity of encoded witnesses
# --------------------------------------------------------------------------


def rigid_homomorphism_check(
    a: ColoredGraph,
    c: ColoredGraph,
    cls: HereditaryClass,
    *,
    budget: SearchBudget | None = None,
) -> CheckReport:
    """Assert every homomorphism of the encoded witness a into c is an
    induced embedding.

    Requires c to be a class member (else inapplicable).  Homomorphisms of
    the full encoded graphs factor through their decodings: with c in the
    class, every attached wheel maps hub-to-hub onto a free wheel copy,
    either isomorphically or by a clean rim wrap onto a smaller wheel, so
    the homomorphisms of a into c correspond exactly to the edge-preserving
    maps of the decoded basepoint graphs that never grow the wheel size.
    Each such map is enumerated and must be color-preserving, injective and
    induced; the first counterexample is reported.
    """
    budget = budget or SearchBudget()
    scheme = EncodingScheme(tuple(cls.meta.get("scheme_palette", stage_palette("jhp"))))
    pre = cls.check(c, budget=budget)
    if not pre.ok:
        return CheckReport(
            INDETERMINATE if pre.status == INDETERMINATE else FAIL,
            pre.violations,
            ("precondition: target is not a class member",),
        )
    sa, sc = vee(a, scheme), vee(c, scheme)
    size_a = {v: scheme.wheel_size(next(iter(sa.colors(v)))) for v in sa.vertices}
    size_c = {v: scheme.wheel_size(next(iter(sc.colors(v)))) for v in sc.vertices}

    order = list(sa.vertices)
    back = _earlier(order, sa.edges)

    def ok(i, y, x):
        # wheels only wrap downward
        return size_c[y] <= size_a[order[i]] and all(sc.has_edge(y, x[j]) for j in back[i])

    bad = None
    try:
        for x in backtrack(len(order), lambda i, x: sc.vertices, ok, budget):
            m = dict(zip(order, x))
            if not is_induced_embedding(sa, sc, m) or any(
                sa.colors(v) != sc.colors(m[v]) for v in order
            ):
                bad = m
                break
    except BudgetExceededError as exc:
        return CheckReport(INDETERMINATE, (), (str(exc),))
    if bad is not None:
        wit = tuple(sc.sorted_vertices(set(bad.values())))
        return CheckReport(FAIL, (Violation("rigidity", "non-embedding-homomorphism", wit),))
    return CheckReport(PASS)


# --------------------------------------------------------------------------
# the edge/non-edge language reduction
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoRelStructure:
    """A finite structure with two symmetric irreflexive relations, meant to
    act as explicit edges and explicit non-edges."""

    vertices: tuple
    epairs: frozenset
    npairs: frozenset
    name: str = ""

    def __post_init__(self):
        vs = set(self.vertices)
        eps = frozenset(pair(*e) for e in self.epairs)
        nps = frozenset(pair(*e) for e in self.npairs)
        for p in eps | nps:
            if not p <= vs:
                raise ValueError("relation endpoint not declared")
        object.__setattr__(self, "epairs", eps)
        object.__setattr__(self, "npairs", nps)

    def is_valid(self) -> bool:
        """Exactly one relation on every pair: the relations behave as edges
        and non-edges."""
        for u, v in combinations(self.vertices, 2):
            p = pair(u, v)
            if (p in self.epairs) == (p in self.npairs):
                return False
        return True


def with_nonedges(g: ColoredGraph, name: str = "") -> TwoRelStructure:
    nps = [
        (u, v)
        for u, v in combinations(g.vertices, 2)
        if not g.has_edge(u, v)
    ]
    return TwoRelStructure(g.vertices, frozenset(map(frozenset, g.edges)), frozenset(map(frozenset, nps)),
                           name=name or g.name)


@dataclass(frozen=True)
class TwoRelClass:
    """A hereditary class of two-relation structures given by finitely many
    forbidden induced substructures."""

    name: str
    forbidden: tuple

    def member(self, s: TwoRelStructure) -> bool:
        return all(not two_rel_contains(f, s) for f in self.forbidden)


def edge_nonedge_transform(cls_red, name: str = "") -> TwoRelClass:
    """Translate a one-relation forbidden list into the edge/non-edge language.

    Accepts either an iterable of forbidden graphs or a HereditaryClass
    whose patterns name them.  Every forbidden graph gains explicit
    non-edges on its non-adjacent pairs, and two sanity structures on two
    points (both relations, neither relation) force the relations to
    partition pairs; in the resulting class every homomorphism between
    members is an embedding.
    """
    if isinstance(cls_red, HereditaryClass):
        graphs = [p.pattern for p in cls_red.patterns]
        name = name or f"{cls_red.name}+nonedges"
    else:
        graphs = list(cls_red)
    forb = [with_nonedges(g) for g in graphs]
    both = TwoRelStructure((0, 1), frozenset([frozenset((0, 1))]), frozenset([frozenset((0, 1))]),
                           name="both-relations")
    neither = TwoRelStructure((0, 1), frozenset(), frozenset(), name="no-relation")
    return TwoRelClass(name or "edge-nonedge", tuple(forb) + (both, neither))


def two_rel_contains(f: TwoRelStructure, s: TwoRelStructure, budget: SearchBudget | None = None) -> bool:
    """Induced containment: an injective map matching both relations exactly."""
    budget = budget or SearchBudget()
    fv = list(f.vertices)
    sv = list(s.vertices)
    if len(fv) > len(sv):
        return False

    def ok(i, y, x):
        v = fv[i]
        for w, z in zip(fv, x):
            pf = pair(v, w)
            ps = pair(y, z)
            if (pf in f.epairs) != (ps in s.epairs):
                return False
            if (pf in f.npairs) != (ps in s.npairs):
                return False
        return True

    return next(backtrack(len(fv), lambda i, x: sv, ok, budget, injective=True), None) is not None


def two_rel_homomorphisms(
    a: TwoRelStructure, c: TwoRelStructure, budget: SearchBudget | None = None, limit: int | None = None
) -> list:
    """All maps preserving both relations (not necessarily injective)."""
    budget = budget or SearchBudget()
    av = list(a.vertices)
    cv = list(c.vertices)

    def ok(i, y, x):
        v = av[i]
        for w, z in zip(av, x):
            pf = pair(v, w)
            if pf in a.epairs and (y == z or pair(y, z) not in c.epairs):
                return False
            if pf in a.npairs and (y == z or pair(y, z) not in c.npairs):
                return False
        return True

    out: list = []
    for x in backtrack(len(av), lambda i, x: cv, ok, budget):
        out.append(dict(zip(av, x)))
        if limit is not None and len(out) >= limit:
            break
    return out
