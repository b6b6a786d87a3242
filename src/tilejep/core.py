"""Finite colored graphs, the structural operations everything else builds
on, and the one backtracking core every exhaustive search runs on.

A ColoredGraph is a finite simple graph whose vertices carry a (possibly
empty) set of color ids.  Values are immutable after construction and every
operation here is a pure function, so they are safe to share freely.

``backtrack`` walks its variables on an explicit stack of iterators, so no
search recurses as deep as its input, and spends one ``SearchBudget`` node
per value tried; running out raises ``BudgetExceededError`` instead of
returning a partial answer.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import combinations
from typing import Callable, Hashable, Iterable, Iterator, Mapping

VertexId = Hashable
Pair = frozenset

DEFAULT_BUDGET = 5_000_000


class BudgetExceededError(RuntimeError):
    """A search ran out of its node-expansion budget before finishing."""


class SearchBudget:
    """Mutable node-expansion counter shared across one logical search."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetExceededError(f"search budget exhausted ({self.limit} nodes)")

    def remaining(self) -> int:
        return max(0, self.limit - self.used)


def backtrack(
    n: int,
    domain: Callable,
    ok: Callable,
    budget: SearchBudget,
    injective: bool = False,
) -> Iterator[list]:
    """Depth-first search over assignments of variables ``0..n-1``.

    ``domain(i, x)`` gives the values to try for variable ``i`` and
    ``ok(i, v, x)`` tests value ``v`` for it; in both, ``x`` holds exactly
    the values of variables ``0..i-1``.  With ``injective`` a value already
    in ``x`` is skipped.  One ``budget.spend()`` per value tried, after the
    injective skip and before ``ok``.  Yields the shared assignment list at
    each full assignment, in domain order; callers copy what they keep and
    stop early by leaving the loop.  Iterative: the depth is ``n``, not the
    Python stack.
    """
    x: list = []
    used: set = set()
    if n == 0:
        yield x
        return
    its = [iter(domain(0, x))]
    while its:
        i = len(x)
        for v in its[-1]:
            if injective and v in used:
                continue
            budget.spend()
            if ok(i, v, x):
                break
        else:
            its.pop()
            if x:
                used.discard(x.pop())
            continue
        x.append(v)
        if i + 1 < n:
            if injective:
                used.add(v)
            its.append(iter(domain(i + 1, x)))
        else:
            yield x
            x.pop()


def pair(u: VertexId, v: VertexId) -> frozenset:
    """Unordered vertex pair, the canonical edge key."""
    if u == v:
        raise ValueError(f"loops are not allowed: {u!r}")
    return frozenset((u, v))


class ColoredGraph:
    """Immutable finite simple graph with vertex color sets.

    Vertices keep their declaration order, which fixes the deterministic
    iteration order used by every search in the package.  Edges are stored
    as unordered pairs; loops and duplicate edges are rejected.
    """

    __slots__ = ("name", "_vertices", "_edges", "_colors", "_index", "__dict__")

    def __init__(
        self,
        vertices: Iterable[VertexId],
        edges: Iterable[tuple] = (),
        colors: Mapping[VertexId, Iterable[str]] | None = None,
        name: str = "",
    ):
        vs = tuple(vertices)
        index = {v: i for i, v in enumerate(vs)}
        if len(index) != len(vs):
            raise ValueError("duplicate vertex ids")
        es = set()
        for e in edges:
            u, v = tuple(e)
            if u not in index or v not in index:
                raise ValueError(f"edge endpoint not declared: {(u, v)!r}")
            es.add(pair(u, v))
        cmap = {}
        if colors:
            for v, cs in colors.items():
                if v not in index:
                    raise ValueError(f"colored vertex not declared: {v!r}")
                cs = frozenset(cs)
                if cs:
                    cmap[v] = cs
        self.name = name
        self._vertices = vs
        self._edges = frozenset(es)
        self._colors = cmap
        self._index = index

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def edges(self) -> frozenset:
        return self._edges

    def colors(self, v: VertexId) -> frozenset:
        return self._colors.get(v, frozenset())

    @property
    def color_map(self) -> dict:
        return dict(self._colors)

    def index(self, v: VertexId) -> int:
        return self._index[v]

    def __contains__(self, v: VertexId) -> bool:
        return v in self._index

    def __len__(self) -> int:
        return len(self._vertices)

    @cached_property
    def adjacency(self) -> dict:
        adj = {v: [] for v in self._vertices}
        for e in self._edges:
            u, v = tuple(e)
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ns, key=self._index.__getitem__)) for v, ns in adj.items()}

    def neighbors(self, v: VertexId) -> tuple:
        return self.adjacency[v]

    def degree(self, v: VertexId) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        return u != v and pair(u, v) in self._edges

    def sorted_vertices(self, vs: Iterable[VertexId]) -> list:
        return sorted(vs, key=self._index.__getitem__)

    def multicolored_vertices(self) -> list:
        return [v for v in self._vertices if len(self.colors(v)) > 1]

    def induced(self, vs: Iterable[VertexId], name: str = "") -> "ColoredGraph":
        wanted = set(vs)
        keep = [v for v in self._vertices if v in wanted]
        kept = set(keep)
        return ColoredGraph(
            keep,
            (e for e in self._edges if e <= kept),
            {v: self._colors[v] for v in keep if v in self._colors},
            name=name or self.name,
        )

    def with_edges(self, extra: Iterable[tuple], name: str = "") -> "ColoredGraph":
        es = set(self._edges)
        for u, v in extra:
            es.add(pair(u, v))
        return ColoredGraph(self._vertices, es, self._colors, name=name or self.name)

    def recolored(self, colors: Mapping[VertexId, Iterable[str]], name: str = "") -> "ColoredGraph":
        return ColoredGraph(self._vertices, self._edges, colors, name=name or self.name)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColoredGraph):
            return NotImplemented
        return (
            self._vertices == other._vertices
            and self._edges == other._edges
            and self._colors == other._colors
        )

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges, tuple(sorted(
            (self._index[v], cs) for v, cs in ((v, tuple(sorted(c))) for v, c in self._colors.items())
        ))))

    def __repr__(self) -> str:
        label = self.name or "graph"
        return f"<ColoredGraph {label}: {len(self._vertices)} vertices, {len(self._edges)} edges>"


def connected_components(g: ColoredGraph) -> list:
    """Vertex sets of the connected components, in first-vertex order."""
    seen = set()
    comps = []
    for root in g.vertices:
        if root in seen:
            continue
        comp = [root]
        seen.add(root)
        stack = [root]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def blocks(g: ColoredGraph) -> list:
    """Block decomposition: maximal 2-connected components as vertex sets.

    Bridges count as blocks of size two and isolated vertices as singleton
    blocks, so every edge lies in exactly one block and every vertex in at
    least one.  Iterative Hopcroft-Tarjan to stay clear of recursion limits.
    """
    disc: dict = {}
    low: dict = {}
    parent: dict = {}
    estack: list = []
    out = []
    counter = 0

    for root in g.vertices:
        if root in disc:
            continue
        if g.degree(root) == 0:
            out.append(frozenset((root,)))
            continue
        parent[root] = None
        stack = [(root, iter(g.neighbors(root)))]
        disc[root] = low[root] = counter
        counter += 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w not in disc:
                    parent[w] = v
                    disc[w] = low[w] = counter
                    counter += 1
                    estack.append((v, w))
                    stack.append((w, iter(g.neighbors(w))))
                    advanced = True
                    break
                elif w != parent[v] and disc[w] < disc[v]:
                    estack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    comp = set()
                    while True:
                        a, b = estack.pop()
                        comp.add(a)
                        comp.add(b)
                        if (a, b) == (u, v):
                            break
                    out.append(frozenset(comp))
    # deterministic order: by smallest vertex index of the block
    return sorted(out, key=lambda b: min(g.index(v) for v in b))


def is_biconnected(g: ColoredGraph) -> bool:
    return len(g) >= 3 and len(blocks(g)) == 1


def _fresh_id(base: VertexId, taken: set) -> VertexId:
    cand = base
    n = 1
    while cand in taken:
        cand = f"{base}~{n}"
        n += 1
    return cand


def disjoint_union(a: ColoredGraph, b: ColoredGraph, name: str = "") -> tuple:
    """Disjoint union of two graphs.

    Returns ``(graph, inject_a, inject_b)`` where the injections map each
    factor's vertices to their representatives in the union.  Ids from `a`
    are kept verbatim; colliding ids from `b` are renamed deterministically.
    """
    inj_a = {v: v for v in a.vertices}
    taken = set(a.vertices)
    inj_b = {}
    for v in b.vertices:
        nv = _fresh_id(v, taken)
        inj_b[v] = nv
        taken.add(nv)
    vertices = list(a.vertices) + [inj_b[v] for v in b.vertices]
    edges = [tuple(e) for e in a.edges]
    edges += [tuple(inj_b[x] for x in e) for e in b.edges]
    colors = {v: a.colors(v) for v in a.vertices if a.colors(v)}
    colors.update({inj_b[v]: b.colors(v) for v in b.vertices if b.colors(v)})
    return ColoredGraph(vertices, edges, colors, name=name or f"{a.name}+{b.name}"), inj_a, inj_b


def free_join(a: ColoredGraph, b: ColoredGraph, identify: Iterable[tuple], name: str = "") -> tuple:
    """Disjoint union followed by identification of the listed (a, b) pairs.

    No other edges are added; identified vertices merge their color sets and
    incident edges.  Pair lists that would merge two vertices of the same
    side are rejected.
    """
    idpairs = list(identify)
    a_side = [x for x, _ in idpairs]
    b_side = [y for _, y in idpairs]
    if len(set(a_side)) != len(a_side) or len(set(b_side)) != len(b_side):
        raise ValueError("identification pairs must be injective on each side")
    for x, y in idpairs:
        if x not in a or y not in b:
            raise ValueError(f"identification pair ({x!r}, {y!r}) names undeclared vertices")
    glue = dict(zip(b_side, a_side))
    inj_a = {v: v for v in a.vertices}
    taken = set(a.vertices)
    inj_b = {}
    for v in b.vertices:
        if v in glue:
            inj_b[v] = glue[v]
        else:
            nv = _fresh_id(v, taken)
            inj_b[v] = nv
            taken.add(nv)
    vertices = list(a.vertices) + [inj_b[v] for v in b.vertices if v not in glue]
    edges = [tuple(e) for e in a.edges]
    for e in b.edges:
        u, v = tuple(e)
        edges.append((inj_b[u], inj_b[v]))
    colors = defaultdict(frozenset)
    for v in a.vertices:
        if a.colors(v):
            colors[v] |= a.colors(v)
    for v in b.vertices:
        if b.colors(v):
            colors[inj_b[v]] |= b.colors(v)
    return ColoredGraph(vertices, edges, dict(colors), name=name or a.name), inj_a, inj_b


# -- isomorphism (exact colors), used for deduplication and round trips ----


def _iso_signature(g: ColoredGraph):
    """Iso-invariant bucketing key: color/degree refinement iterated twice."""
    labels = {v: (tuple(sorted(g.colors(v))), g.degree(v)) for v in g.vertices}
    for _ in range(2):
        labels = {
            v: (labels[v], tuple(sorted(labels[w] for w in g.neighbors(v))))
            for v in g.vertices
        }
    return (len(g), len(g.edges), tuple(sorted(map(repr, labels.values()))))


def is_isomorphic(g: ColoredGraph, h: ColoredGraph) -> bool:
    """Color-exact isomorphism test by backtracking (desk-scale graphs),
    under a default ``SearchBudget``."""
    if _iso_signature(g) != _iso_signature(h):
        return False
    # order g's vertices to keep the partial map connected where possible
    order = _connected_order(g)
    gn = {v: set(g.neighbors(v)) for v in order}
    hn = {y: set(h.neighbors(y)) for y in h.vertices}
    hv = h.vertices

    def ok(i, y, x):
        v = order[i]
        nv, ny = gn[v], hn[y]
        if h.colors(y) != g.colors(v) or len(ny) != len(nv):
            return False
        return all((w in nv) == (z in ny) for w, z in zip(order, x))

    found = backtrack(len(order), lambda i, x: hv, ok, SearchBudget(), injective=True)
    return next(found, None) is not None


def _connected_order(g: ColoredGraph) -> list:
    order = []
    placed = set()
    for root in g.vertices:
        if root in placed:
            continue
        queue = [root]
        placed.add(root)
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in g.neighbors(v):
                if w not in placed:
                    placed.add(w)
                    queue.append(w)
    return order


def dedupe_isomorphic(graphs: Iterable[ColoredGraph]) -> list:
    """Keep one representative per isomorphism class, preserving input order."""
    buckets: dict = defaultdict(list)
    reps = []
    for g in graphs:
        sig = _iso_signature(g)
        if any(is_isomorphic(g, r) for r in buckets[sig]):
            continue
        buckets[sig].append(g)
        reps.append(g)
    return reps


def independent_partitions(items: Iterable, conflict: Callable, seeds: Iterable = ()) -> Iterator[list]:
    """Partitions of ``seeds`` plus ``items`` into blocks free of conflicting
    pairs, where each seed is a block of its own that never merges with
    another.

    Each item in turn joins an existing block, in creation order, or opens a
    new one; partitions come in that depth-first order, each a list of
    block tuples (seed members first, then items in input order).  Runs on
    ``backtrack`` under a default ``SearchBudget``.
    """
    items = list(items)
    seeds = [tuple(b) for b in seeds]
    clash = [[j for j in range(i) if conflict(v, items[j])] for i, v in enumerate(items)]
    barred = [{k for k, b in enumerate(seeds) if any(conflict(v, u) for u in b)} for v in items]

    def domain(i, x):
        # blocks so far, plus one new block
        return range(max(len(seeds), max(x, default=-1) + 1) + 1)

    def ok(i, k, x):
        return k not in barred[i] and all(x[j] != k for j in clash[i])

    for x in backtrack(len(items), domain, ok, SearchBudget()):
        blocks = [list(b) for b in seeds]
        for v, k in zip(items, x):
            if k == len(blocks):
                blocks.append([])
            blocks[k].append(v)
        yield [tuple(b) for b in blocks]


# -- tiny generators used across tests and compilers -----------------------


def complete_graph(n: int, name: str = "") -> ColoredGraph:
    vs = list(range(n))
    return ColoredGraph(vs, combinations(vs, 2), name=name or f"K{n}")


def cycle_graph(n: int, name: str = "") -> ColoredGraph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    vs = list(range(n))
    return ColoredGraph(vs, [(i, (i + 1) % n) for i in vs], name=name or f"C{n}")


def path_graph(n: int, name: str = "") -> ColoredGraph:
    vs = list(range(n))
    return ColoredGraph(vs, [(i, i + 1) for i in range(n - 1)], name=name or f"P{n}")
