"""Subgraph search engines: pattern matching, induced containment, homomorphisms.

The central operation is ``match_pattern``: an injective, color-respecting
map of a pattern into a host that sends every required edge to an edge and
every forbidden pair to a non-edge.  Pairs that are neither required nor
forbidden are unconstrained, which uniformly expresses "forbid as subgraph",
"forbid induced" and conditional prohibitions in one representation.

Every search here is a variable order plus a domain and a consistency test
for ``core.backtrack``, the package's one backtracking core.  It is
iterative, so input size never meets the recursion limit, and it spends one
budget node per candidate value tried; exceeding the budget raises instead
of silently returning a partial answer, so a "no match" verdict is always
trustworthy.  Output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Optional

# SearchBudget and BudgetExceededError are re-exported for callers of the matcher
from .core import (
    BudgetExceededError,
    ColoredGraph,
    SearchBudget,
    backtrack,
    dedupe_isomorphic,
    pair,
)


class ExpansionCapError(ValueError):
    """Non-induced expansion refused: too many don't-care pairs."""


@dataclass(frozen=True)
class Embedding:
    """Witness record for a pattern match: injective vertex assignment."""

    map: dict

    def image(self) -> tuple:
        return tuple(self.map.values())

    def __getitem__(self, v):
        return self.map[v]


class ConstraintPattern:
    """A pattern graph with required edges plus a set of forbidden pairs.

    The pattern's own edges are required.  ``forbidden`` pairs must map to
    non-edges of the host.  Everything else is don't-care.  ``constraint``
    tags the compiled constraint family a pattern belongs to.

    ``exact`` vertices have exactly their prescribed adjacency: every pair
    that touches one and is not a required edge is forbidden.  ``explicit``
    holds the pairs given one by one; ``forbidden`` is those plus the pairs
    the exact vertices imply, built on first read, so a writer can list an
    exact vertex's pairs without building the set.
    """

    __slots__ = ("name", "pattern", "explicit", "exact", "constraint", "_forbidden")

    def __init__(
        self,
        pattern: ColoredGraph,
        forbidden: Iterable[tuple] = (),
        name: str = "",
        constraint: str = "",
        exact: Iterable = (),
    ):
        fset = set()
        for e in forbidden:
            u, v = tuple(e)
            if u not in pattern or v not in pattern:
                raise ValueError(f"forbidden pair endpoint not in pattern: {(u, v)!r}")
            fset.add(pair(u, v))
        clash = fset & pattern.edges
        if clash:
            raise ValueError(f"forbidden pairs overlap required edges: {sorted(map(tuple, clash))!r}")
        xs = frozenset(exact)
        stray = xs.difference(pattern.vertices)
        if stray:
            raise ValueError(f"exact vertices not in pattern: {sorted(map(repr, stray))}")
        self.name = name or pattern.name
        self.pattern = pattern
        self.explicit = frozenset(fset)
        self.exact = xs
        self.constraint = constraint
        self._forbidden = None if xs else self.explicit

    @property
    def forbidden(self) -> frozenset:
        if self._forbidden is None:
            self._forbidden = self.explicit | self._expand_exact()
        return self._forbidden

    def _expand_exact(self) -> set:
        """The non-edges touching an exact vertex, as pairs."""
        g = self.pattern
        vs = set(g.vertices)
        return {frozenset((u, v)) for u in self.exact for v in vs.difference(g.neighbors(u), (u,))}

    def __len__(self) -> int:
        return len(self.pattern)

    @property
    def multicolored(self) -> bool:
        return bool(self.pattern.multicolored_vertices())

    def dont_care_pairs(self) -> list:
        ps = []
        for u, v in combinations(self.pattern.vertices, 2):
            p = pair(u, v)
            if p not in self.pattern.edges and p not in self.forbidden:
                ps.append(p)
        return ps

    def __repr__(self) -> str:
        return (
            f"<ConstraintPattern {self.name}: {len(self.pattern)} vertices, "
            f"{len(self.pattern.edges)} required, {len(self.forbidden)} forbidden>"
        )


def _pattern_order(p: ConstraintPattern) -> list:
    """Search order: most-constrained first, then favor connectivity."""
    g = p.pattern
    remaining = set(g.vertices)
    order = []
    placed: set = set()
    # constraint weight: colored and high-degree vertices first
    def weight(v):
        return (len(g.colors(v)) > 0, g.degree(v), -g.index(v))

    while remaining:
        frontier = [v for v in remaining if any(w in placed for w in g.neighbors(v))]
        pool = frontier or list(remaining)
        v = max(pool, key=weight)
        order.append(v)
        placed.add(v)
        remaining.discard(v)
    return order


def _earlier(order: list, pairs: Iterable) -> list:
    """Per position of ``order``: the earlier positions each pair links it
    to, ascending."""
    pos = {v: i for i, v in enumerate(order)}
    back: list = [[] for _ in order]
    for e in pairs:
        i, j = sorted(pos[u] for u in e)
        back[j].append(i)
    for b in back:
        b.sort()
    return back


def _match_engine(
    p: ConstraintPattern,
    host_vertices: tuple,
    colors_of: Callable,
    degree_of: Callable,
    has_edge: Callable,
    has_definite_nonedge: Callable,
    budget: SearchBudget,
    limit: Optional[int],
    neighbors_of: Optional[Callable] = None,
) -> list:
    """Monomorphism search against an abstract host interface.

    ``has_edge`` answers required-edge queries; ``has_definite_nonedge``
    answers forbidden-pair queries.  Passing different views of the same
    host supports partial-assignment pruning in the witness search.
    """
    g = p.pattern
    order = _pattern_order(p)
    # sorted by plan position: edge-set iteration order follows the hash seed
    req = _earlier(order, g.edges)
    forb = _earlier(order, p.forbidden)
    need = [g.colors(v) for v in order]
    mindeg = [g.degree(v) for v in order]

    def domain(i, x):
        pool = host_vertices
        if neighbors_of is not None and req[i]:
            # a required edge into the matched part restricts candidates to
            # the smallest matched image's neighborhood, ties to the earliest
            pool = min((neighbors_of(x[j]) for j in req[i]), key=len)
        c, d = need[i], mindeg[i]
        return (y for y in pool if (not c or c <= colors_of(y)) and degree_of(y) >= d)

    def ok(i, y, x):
        return all(has_edge(y, x[j]) for j in req[i]) and all(
            has_definite_nonedge(y, x[j]) for j in forb[i]
        )

    found: list = []
    for x in backtrack(len(order), domain, ok, budget, injective=True):
        found.append(Embedding(dict(zip(order, x))))
        if limit is not None and len(found) >= limit:
            break
    return found


def match_pattern(
    p: ConstraintPattern,
    g: ColoredGraph,
    budget: SearchBudget | None = None,
    limit: Optional[int] = None,
) -> list:
    """All injective color-respecting matches of `p` into `g`.

    Colors match by containment (pattern colors must be a subset of host
    colors), required edges map to edges, forbidden pairs map to non-edges.
    With no ``limit`` the result is sorted lexicographically on the image
    tuple in pattern-vertex order, making output reproducible.
    """
    if len(p) > len(g):
        return []
    budget = budget or SearchBudget()
    res = _match_engine(
        p,
        g.vertices,
        g.colors,
        g.degree,
        g.has_edge,
        lambda x, y: not g.has_edge(x, y),
        budget,
        limit,
        neighbors_of=g.neighbors,
    )
    if limit is None:
        pv = list(p.pattern.vertices)
        res.sort(key=lambda m: tuple(g.index(m.map[v]) for v in pv))
    return res


def matches(p: ConstraintPattern, g: ColoredGraph, budget: SearchBudget | None = None) -> bool:
    return bool(match_pattern(p, g, budget=budget, limit=1))


def induced_pattern(h: ColoredGraph, name: str = "", constraint: str = "") -> ConstraintPattern:
    """Pattern matching exactly the induced copies of `h` (all non-edges forbidden)."""
    forb = [
        (u, v)
        for u, v in combinations(h.vertices, 2)
        if not h.has_edge(u, v)
    ]
    return ConstraintPattern(h, forb, name=name or f"induced:{h.name}", constraint=constraint)


def contains_induced(h: ColoredGraph, g: ColoredGraph, budget: SearchBudget | None = None) -> bool:
    """True iff some injective color-respecting map of `h` into `g` preserves
    edges and non-edges."""
    if len(h) == 0:
        return True
    return matches(induced_pattern(h), g, budget=budget)


def homomorphisms(
    h: ColoredGraph,
    g: ColoredGraph,
    surjective_on: bool = False,
    budget: SearchBudget | None = None,
    limit: Optional[int] = None,
) -> list:
    """All (not necessarily injective) edge-preserving color-respecting maps.

    With ``surjective_on`` set, only maps whose image covers all of `g`'s
    vertices are returned.  Returned as plain dicts, sorted on image tuples.
    """
    budget = budget or SearchBudget()
    order = _connected_hom_order(h)
    back = _earlier(order, h.edges)
    need = [h.colors(v) for v in order]
    gv = g.vertices
    cover = set(gv)

    def ok(i, y, x):
        c = need[i]
        return (not c or c <= g.colors(y)) and all(g.has_edge(y, x[j]) for j in back[i])

    out: list = []
    for x in backtrack(len(order), lambda i, x: gv, ok, budget):
        if surjective_on and set(x) != cover:
            continue
        out.append(dict(zip(order, x)))
        if limit is not None and len(out) >= limit:
            break
    if limit is None:
        hv = list(h.vertices)
        out.sort(key=lambda m: tuple(g.index(m[v]) for v in hv))
    return out


def _connected_hom_order(h: ColoredGraph) -> list:
    order = []
    placed: set = set()
    for root in sorted(h.vertices, key=lambda v: (-h.degree(v), h.index(v))):
        if root in placed:
            continue
        stack = [root]
        placed.add(root)
        while stack:
            v = stack.pop()
            order.append(v)
            nxt = [w for w in h.neighbors(v) if w not in placed]
            for w in sorted(nxt, key=lambda w: (-h.degree(w), h.index(w)), reverse=True):
                placed.add(w)
                stack.append(w)
    return order


def is_hom(h: ColoredGraph, g: ColoredGraph, m: dict) -> bool:
    """Check a vertex map: every edge to an edge, colors by containment."""
    if set(m.keys()) != set(h.vertices):
        return False
    for e in h.edges:
        u, v = tuple(e)
        if not g.has_edge(m[u], m[v]):
            return False
    return all(h.colors(v) <= g.colors(m[v]) for v in h.vertices)


def is_induced_embedding(h: ColoredGraph, g: ColoredGraph, m: dict) -> bool:
    """Injective, edge- and non-edge-preserving, color-containment map."""
    vals = list(m.values())
    if len(set(vals)) != len(vals):
        return False
    for u, v in combinations(h.vertices, 2):
        if h.has_edge(u, v) != g.has_edge(m[u], m[v]):
            return False
    return all(h.colors(v) <= g.colors(m[v]) for v in h.vertices)


def automorphisms(g: ColoredGraph, budget: SearchBudget | None = None) -> list:
    """All color-exact automorphisms (induced self-embeddings onto all of g)."""
    res = []
    for m in homomorphisms(g, g, surjective_on=True, budget=budget):
        if is_induced_embedding(g, g, m) and all(g.colors(v) == g.colors(m[v]) for v in g.vertices):
            res.append(m)
    return res


def expand_noninduced(
    p: ConstraintPattern,
    cap: int = 14,
) -> list:
    """Explicit induced completions of a non-induced pattern.

    For every subset of don't-care pairs, emit the pattern with that subset
    required and every remaining pair forbidden; deduplicated up to
    color-respecting isomorphism.  Kept as a cross-check oracle for small
    patterns; refuses to expand past ``cap`` don't-care pairs.
    """
    dc = p.dont_care_pairs()
    if len(dc) > cap:
        raise ExpansionCapError(
            f"pattern {p.name!r} has {len(dc)} don't-care pairs (cap {cap})"
        )
    outs = []
    universe = [pair(u, v) for u, v in combinations(p.pattern.vertices, 2)]
    for k in range(len(dc) + 1):
        for subset in combinations(dc, k):
            extra = set(subset)
            g2 = p.pattern.with_edges(tuple(e) for e in extra)
            forb = [tuple(e) for e in universe if e not in g2.edges]
            outs.append(
                ConstraintPattern(
                    g2,
                    forb,
                    name=f"{p.name}/ind{k}",
                    constraint=p.constraint,
                )
            )
    # dedupe by the underlying colored graph (forbidden sets are determined
    # by the required edges, so graph isomorphism decides pattern equality)
    kept_graphs = dedupe_isomorphic([q.pattern for q in outs])
    kept_ids = {id(g2) for g2 in kept_graphs}
    return [q for q in outs if id(q.pattern) in kept_ids]
