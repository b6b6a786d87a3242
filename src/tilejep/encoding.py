"""Stage-2 compiler: wheel-graph predicate encoding into the pure graph language.

Each palette color is represented by a pointed wheel; "vertex v has color i"
becomes "a fresh copy of the i-th wheel is freely attached with its hub
identified with v".  Odd wheels of distinct sizes form an antichain under
embedding, every edge of a wheel lies in a triangle, and no automorphism
moves the hub, which together make the encoding unambiguous and invisible
to the (triangle-free) canonical models.

The guard families H1 (no foreign edge into a wheel interior) and H2 (no
two wheels sharing a hub) police the encoding; a designated dummy color,
used by the completion step of the joint-embedding procedure, appears in no
other constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Optional

from .core import ColoredGraph, blocks, cycle_graph, disjoint_union
from .hereditary import (HereditaryClass, MembershipError, PatternFamily, SemanticRule, Violation,
                         monotone_ground)
from .matching import (
    ConstraintPattern,
    SearchBudget,
    contains_induced,
    induced_pattern,
)
from .tiling import TilingMap, TilingProblem
from .unary import GRID, compile_unary_class, stage_palette, tiling_pairs

WEDGE_CAP = 150  # largest wedge image, in vertices, a pure class materialises


def wheel(n: int, name: str = "") -> ColoredGraph:
    """The wheel with an n-cycle rim and a hub adjacent to all rim vertices.

    Deterministic numbering: hub is vertex 0, rim is 1..n in cycle order.
    """
    if n < 4:
        raise ValueError("wheel rims below 4 vertices collapse into cliques")
    verts = list(range(n + 1))
    edges = [(0, i) for i in range(1, n + 1)]
    edges += [(i, i % n + 1) for i in range(1, n + 1)]
    return ColoredGraph(verts, edges, name=name or f"W{n}")


@dataclass(frozen=True)
class PointedWheel:
    """A wheel gadget with its hub basepoint."""

    index: int
    graph: ColoredGraph
    basepoint: int = 0

    @property
    def rim_size(self) -> int:
        return len(self.graph) - 1


@dataclass(frozen=True)
class EncodingScheme:
    """Assignment of pointed wheels to palette colors.

    The color at palette position j gets the wheel with rim 2j + 7, so the
    smallest encoding wheel has a 7-cycle rim; the 5-rim wheel stays
    reserved for the non-adjacency gadgets of the homomorphism stage.  The
    last palette color is the dummy completion color.
    """

    palette: tuple

    @property
    def k(self) -> int:
        return len(self.palette)

    @property
    def dummy(self) -> str:
        return self.palette[-1]

    def position(self, color: str) -> int:
        return self.palette.index(color)

    def wheel_index(self, color: str) -> int:
        return self.position(color) + 1

    def wheel_size(self, color: str) -> int:
        return 2 * self.position(color) + 7

    def pointed_wheel(self, color: str) -> PointedWheel:
        return PointedWheel(self.wheel_index(color), wheel(self.wheel_size(color)))

    def sizes(self) -> tuple:
        return tuple(self.wheel_size(c) for c in self.palette)

    def color_of_size(self, n: int) -> Optional[str]:
        if n < 7 or n % 2 == 0:
            return None
        j = (n - 7) // 2
        return self.palette[j] if j < len(self.palette) else None


# --------------------------------------------------------------------------
# wedge and vee
# --------------------------------------------------------------------------


def _attach_wheel(verts, edges, taken, hub, size, tag):
    """Attach a wheel rim of ``size`` around ``hub`` to ``verts`` and
    ``edges``; a rim id already in ``taken`` gets an ``&`` suffix, and the
    rim joins ``taken``."""
    rim = [f"{hub}{tag}{j}" for j in range(1, size + 1)]
    rim = [r if r not in taken else f"{r}&" for r in rim]
    taken.update(rim)
    verts.extend(rim)
    for r in rim:
        edges.append((hub, r))
    for j in range(size):
        edges.append((rim[j], rim[(j + 1) % size]))
    return rim


def wedge_detailed(g: ColoredGraph, scheme: EncodingScheme) -> tuple:
    """Wedge with construction record: (pure graph, {hub: attached copy})."""
    for v in g.vertices:
        cs = g.colors(v)
        if len(cs) != 1:
            raise MembershipError(
                f"wedge needs exactly one color per vertex; {v!r} has {sorted(cs)}"
            )
        if next(iter(cs)) not in scheme.palette:
            raise MembershipError(f"vertex {v!r} colored outside the scheme palette")
    verts = list(g.vertices)
    edges = [tuple(e) for e in g.edges]
    taken = set(verts)
    record = {}
    for v in g.vertices:
        color = next(iter(g.colors(v)))
        rim = _attach_wheel(verts, edges, taken, v, scheme.wheel_size(color), ".r")
        record[v] = frozenset([v, *rim])
    out = ColoredGraph(verts, edges, name=f"wedge[{g.name}]")
    return out, record


def wedge(g: ColoredGraph, scheme: EncodingScheme) -> ColoredGraph:
    """Encode colors as freely attached wheels; output is a pure graph."""
    return wedge_detailed(g, scheme)[0]


def _rim_is_cycle(g: ColoredGraph, rim: set) -> bool:
    if any(sum(1 for w in g.neighbors(v) if w in rim) != 2 for v in rim):
        return False
    start = next(iter(rim))
    first = [w for w in g.neighbors(start) if w in rim][0]
    seen = {start, first}
    prev, cur = start, first
    while True:
        nxt = [w for w in g.neighbors(cur) if w in rim and w != prev]
        if len(nxt) != 1:
            return False
        prev, cur = cur, nxt[0]
        if cur == start:
            return len(seen) == len(rim)
        if cur in seen:
            return False
        seen.add(cur)


def _block_as_wheel(g: ColoredGraph, blk: frozenset) -> Optional[tuple]:
    """If the block induces exactly a wheel, return (hub, rim size)."""
    m = len(blk) - 1
    if m < 4:
        return None
    indeg = {}
    for v in blk:
        indeg[v] = sum(1 for w in g.neighbors(v) if w in blk)
    hubs = [v for v in blk if indeg[v] == m]
    if len(hubs) != 1:
        return None
    hub = hubs[0]
    rim = set(blk) - {hub}
    if any(indeg[v] != 3 for v in rim):
        return None
    if not _rim_is_cycle(g, rim):
        return None
    return hub, m


def find_free_wheel_copies(g: ColoredGraph, sizes: Iterable[int]) -> list:
    """Wheel copies free over their basepoints, detected block-wise.

    A copy is free when its block induces exactly a wheel of one of the
    given rim sizes and no rim vertex has edges outside the block; only the
    hub may touch the rest of the graph.  Returns (hub, vertex set, size)
    triples in deterministic order.  The free copies of every size are
    memoised on the graph, as ``neighborhood_profile`` is.
    """
    if "_free_wheel_copies" not in g.__dict__:
        copies = []
        for blk in blocks(g):
            res = _block_as_wheel(g, blk)
            if res is not None and all(g.degree(v) == 3 for v in blk if v != res[0]):
                copies.append((res[0], blk, res[1]))
        g.__dict__["_free_wheel_copies"] = copies
    wanted = set(sizes)
    return [c for c in g.__dict__["_free_wheel_copies"] if c[2] in wanted]


def vee(g: ColoredGraph, scheme: EncodingScheme) -> ColoredGraph:
    """Decode a pure graph: keep basepoints of free wheel copies, colored by
    their wheel size, with induced edges; forget everything else.

    Partial recognition on arbitrary graphs: vertices in no free copy are
    dropped, and a hub carrying several free copies keeps all their colors.
    """
    copies = find_free_wheel_copies(g, scheme.sizes())
    colors: dict = {}
    for hub, _, m in copies:
        color = scheme.color_of_size(m)
        colors.setdefault(hub, set()).add(color)
    keep = [v for v in g.vertices if v in colors]
    keepset = set(keep)
    edges = [tuple(e) for e in g.edges if set(e) <= keepset]
    return ColoredGraph(keep, edges, colors, name=f"vee[{g.name}]")


# --------------------------------------------------------------------------
# guard constraints and the pure class
# --------------------------------------------------------------------------


def guard_constraints(scheme: EncodingScheme) -> list:
    """The H1/H2 guard patterns.

    H1, one per wheel: an induced wheel copy plus an extra vertex with a
    required edge to one rim vertex (rim transitivity makes a single
    attachment point sufficient); the extra vertex's other adjacencies are
    don't-care.  H2, one per unordered pair of wheels (repetition allowed):
    the two wheels freely joined at their hubs, fully induced.
    """
    return _h1_patterns(scheme) + _h2_patterns(scheme)


def _h1_patterns(scheme: EncodingScheme) -> list:
    pats = []
    for color in scheme.palette:
        m = scheme.wheel_size(color)
        w = wheel(m)
        verts = list(w.vertices) + ["x"]
        edges = [tuple(e) for e in w.edges] + [("x", 1)]
        graph = ColoredGraph(verts, edges, name=f"H1:W{m}")
        forb = [
            (u, v)
            for u, v in combinations(w.vertices, 2)
            if not w.has_edge(u, v)
        ]
        pats.append(ConstraintPattern(graph, forb, name=f"H1:W{m}", constraint="H1"))
    return pats


def _h2_patterns(scheme: EncodingScheme) -> list:
    pats = []
    for c1, c2 in combinations_with_replacement(scheme.palette, 2):
        m1, m2 = scheme.wheel_size(c1), scheme.wheel_size(c2)
        verts = ["h"] + [f"a{i}" for i in range(1, m1 + 1)] + [f"b{i}" for i in range(1, m2 + 1)]
        edges = []
        for pre, m in (("a", m1), ("b", m2)):
            edges += [("h", f"{pre}{i}") for i in range(1, m + 1)]
            edges += [(f"{pre}{i}", f"{pre}{i % m + 1}") for i in range(1, m + 1)]
        graph = ColoredGraph(verts, edges, name=f"H2:W{m1}+W{m2}")
        edgeset = set(edges)
        forb = [
            (u, v)
            for u, v in combinations(verts, 2)
            if (u, v) not in edgeset and (v, u) not in edgeset
        ]
        pats.append(ConstraintPattern(graph, forb, name=f"H2:W{m1}+W{m2}", constraint="H2"))
    return pats


# --------------------------------------------------------------------------
# neighborhood decomposition: the shared engine behind the structural guard
# rule and the deformed-image rule of the homomorphism stage
# --------------------------------------------------------------------------


def _is_bipartite_within(adj: dict, comp) -> bool:
    color: dict = {}
    for root in comp:
        if root in color:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in color:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    return False
    return True


def _odd_girth_within(adj: dict, comp) -> float:
    best = float("inf")
    for s in comp:
        dist = {s: 0}
        queue = [s]
        while queue:
            x = queue.pop(0)
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
                elif dist[y] == dist[x]:
                    # an edge within one BFS level closes an odd walk, and the
                    # minimum over all sources is exactly the odd girth
                    best = min(best, 2 * dist[x] + 1)
    return best


def _local_components(adj: dict) -> list:
    seen: set = set()
    comps = []
    for root in adj:
        if root in seen:
            continue
        comp = [root]
        seen.add(root)
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def neighborhood_profile(g: ColoredGraph, budget: SearchBudget | None = None) -> dict:
    """Classify every vertex neighborhood's components, memoized on the graph.

    Returns ``{"cycles": [(x, comp)], "odd": [(x, comp, odd_girth)]}``:
    components inducing plain cycles, and non-bipartite components that are
    not cycles (with their odd girth).  Wheel homomorphic images and the
    guard configurations both live inside closed neighborhoods, so this one
    pass answers every wheel-shaped question about the host.  Neighborhood
    subgraphs are read off adjacency lists, keeping the pass near-linear in
    the sum of squared degrees.
    """
    if "_neighborhood_profile" in g.__dict__:
        return g.__dict__["_neighborhood_profile"]
    budget = budget or SearchBudget()
    adjacency = g.adjacency
    cycles = []
    odd = []
    for x in g.vertices:
        nb = set(adjacency[x])
        if len(nb) < 2:
            continue
        local = {u: [w for w in adjacency[u] if w in nb] for u in nb}
        for comp in _local_components(local):
            budget.spend(len(comp))
            cadj = {u: local[u] for u in comp}
            if len(comp) >= 3 and all(len(cadj[u]) == 2 for u in comp):
                cycles.append((x, tuple(g.sorted_vertices(comp))))
            elif not _is_bipartite_within(cadj, comp):
                odd.append((x, tuple(g.sorted_vertices(comp)), _odd_girth_within(cadj, comp)))
    profile = {"cycles": cycles, "odd": odd}
    g.__dict__["_neighborhood_profile"] = profile
    return profile


def _odd_scheme_cycle_hubs(g: ColoredGraph, profile: dict, sizes: set, budget: SearchBudget):
    """The (hub, component) pairs of the non-cycle odd neighbourhood
    components that contain an induced cycle of a scheme size.

    A shortest odd cycle is induced, so an odd girth of a scheme size
    settles a component; a shortest odd cycle of non-scheme length does not
    rule out a longer induced scheme-size cycle, which the remaining
    suspects get an explicit bounded induced-cycle search for.
    """
    for x, comp, girth in profile["odd"]:
        if girth in sizes:
            yield x, comp
            continue
        sub = g.induced(comp)
        if any(girth < m <= len(comp) and contains_induced(cycle_graph(m), sub, budget)
               for m in sorted(sizes)):
            yield x, comp


def _rule_guards(scheme: EncodingScheme) -> SemanticRule:
    """Structural recomputation of the H1/H2 verdicts.

    An induced wheel copy with hub x is an induced-cycle structure inside
    the neighborhood of x.  H1 fires when such a copy of a scheme size has
    a rim vertex touched from outside (rim degree above three), or when a
    non-cycle neighborhood component contains an induced odd cycle of a
    scheme size (the component then also supplies the foreign neighbor;
    ``_odd_scheme_cycle_hubs``).  H2 fires when one hub carries two
    scheme-size copies.  Class verdicts agree with the guard patterns on
    every host, so this rule decides H1 and H2; the correspondence is
    cross-checked against direct matching on small hosts in the test suite.
    """
    sizes = set(scheme.sizes())

    def fn(g: ColoredGraph, budget: SearchBudget) -> list:
        profile = neighborhood_profile(g, budget)
        out = []
        per_hub = {}
        for x, comp in profile["cycles"]:
            if len(comp) not in sizes:
                continue
            per_hub.setdefault(x, []).append(comp)
            copy = set(comp) | {x}
            for r in comp:
                if any(w not in copy for w in g.neighbors(r)):
                    out.append(Violation("H1", "sem:guards", tuple(g.sorted_vertices(copy))))
                    break
        for x, comps in per_hub.items():
            if len(comps) >= 2:
                wit = {x} | set(comps[0]) | set(comps[1])
                out.append(Violation("H2", "sem:guards", tuple(g.sorted_vertices(wit))))
        for x, comp in _odd_scheme_cycle_hubs(g, profile, sizes, budget):
            out.append(Violation("H1", "sem:guards", (x, *comp)))
        return out

    return SemanticRule("sem:guards", "guards", {"kind": "structural-guards"}, fn, decides=("H1", "H2"))


def _grid_edge_patterns() -> list:
    pats = []
    for c1, c2 in combinations_with_replacement((GRID[0], GRID[1]), 2):
        g = ColoredGraph(["g", "g'"], [("g", "g'")], {"g": {c1}, "g'": {c2}}, name=f"gridedge:{c1}+{c2}")
        pats.append(ConstraintPattern(g, name=f"gridedge:{c1}+{c2}", constraint="grid-edge"))
    return pats


def _rule_grid_edge() -> SemanticRule:
    def fn(g: ColoredGraph, budget: SearchBudget) -> list:
        out = []
        gridish = {v for v in g.vertices if g.colors(v) & {GRID[0], GRID[1]}}
        for e in g.edges:
            u, v = tuple(e)
            if u in gridish and v in gridish:
                out.append(Violation("grid-edge", "sem:grid-edge", tuple(g.sorted_vertices((u, v)))))
        return out

    return SemanticRule("sem:grid-edge", "grid-edge", {"kind": "no-grid-grid-edge"}, fn,
                        decides=("grid-edge",), ground=monotone_ground(fn))


def _wheel_shape_patterns(scheme: EncodingScheme) -> list:
    """Colored-language prohibition of wheel shapes, whatever the colors.

    Uncolored pattern vertices match any host colors, so one fully induced
    pattern per scheme wheel covers every colored copy.
    """
    return [
        induced_pattern(wheel(scheme.wheel_size(c)), name=f"wheelshape:W{scheme.wheel_size(c)}",
                        constraint="wheel-shape")
        for c in scheme.palette
    ]


def _rule_wheel_shape(scheme: EncodingScheme) -> SemanticRule:
    """Structural recomputation of the ``wheel-shape`` verdict.

    An induced scheme wheel with hub x is an induced scheme-size cycle in
    the neighborhood of x.  Such a cycle is either a whole neighbourhood
    component that is a plain cycle, or lies in a non-cycle odd component
    (``_odd_scheme_cycle_hubs``, shared with the H1 guard rule); scheme
    sizes are odd, so bipartite components hold none.  The rule therefore
    agrees with the wheel-shape patterns on every host and decides the tag.
    Its ``constraint`` is ``guards``: it is the guard scan run on the
    colored shadow.
    """
    sizes = set(scheme.sizes())

    def fn(g: ColoredGraph, budget: SearchBudget) -> list:
        profile = neighborhood_profile(g, budget)
        out = [
            Violation("wheel-shape", "sem:wheel-shape", tuple(g.sorted_vertices((x, *comp))))
            for x, comp in profile["cycles"] if len(comp) in sizes
        ]
        for x, comp in _odd_scheme_cycle_hubs(g, profile, sizes, budget):
            out.append(Violation("wheel-shape", "sem:wheel-shape", (x, *comp)))
        return out

    return SemanticRule("sem:wheel-shape", "guards", {"kind": "no-wheel-shape", "wheels": sorted(sizes)},
                        fn, decides=("wheel-shape",))


def compile_colored_class(problem: TilingProblem, stage: str = "pure") -> HereditaryClass:
    """The colored-language class used as the source of the pure encoding:
    stage-1 constraints over the extended palette, plus the grid-grid edge
    prohibition and the colored wheel-shape prohibitions.  Rules decide
    every tag (``wheel-shape`` by the neighbourhood scan of
    ``_rule_wheel_shape``), so neither the compile nor ``check`` builds a
    pattern family."""
    palette = stage_palette(stage)
    scheme = EncodingScheme(palette)
    base = compile_unary_class(problem, palette)
    families = base.families + (
        PatternFamily("grid-edge", _grid_edge_patterns),
        PatternFamily("wheel-shape", partial(_wheel_shape_patterns, scheme)),
    )
    rules = base.rules + (_rule_grid_edge(), _rule_wheel_shape(scheme))
    return HereditaryClass(
        name=f"colored-{stage}[{problem.describe()}]",
        palette=palette,
        patterns=families,
        rules=rules,
        meta=dict(base.meta, stage=f"colored-{stage}"),
    )


def wedge_pattern(p: ConstraintPattern, scheme: EncodingScheme) -> Optional[ConstraintPattern]:
    """Wedge image of a colored constraint pattern.

    Pattern vertices become hubs of fully induced wheel copies; original
    required and forbidden pairs lift to the hub pairs; the rim vertices are
    ``exact``, so each wheel is induced and its rim touches nothing outside
    it.  The rims' forbidden pairs are implied, not stored; a bundle file
    still lists every one as an ``f`` line, in the unchanged format.
    Patterns with multicolored or uncolored vertices are not wedgeable and
    return None (multicolored singletons are exactly the H2 guards;
    uncolored-vertex patterns stay in the colored language).
    """
    g = p.pattern
    if any(len(g.colors(v)) != 1 for v in g.vertices):
        return None
    verts = list(g.vertices)
    edges = [tuple(e) for e in g.edges]
    taken = set(verts)
    rims = []
    for v in g.vertices:
        color = next(iter(g.colors(v)))
        if color not in scheme.palette:
            return None
        rims += _attach_wheel(verts, edges, taken, v, scheme.wheel_size(color), ".r")
    graph = ColoredGraph(verts, edges, name=f"w:{p.name}")
    return ConstraintPattern(graph, p.forbidden, name=f"w:{p.name}", constraint=f"w:{p.constraint}",
                             exact=rims)


def _rule_pure_membership(problem: TilingProblem, scheme: EncodingScheme, colored: HereditaryClass) -> SemanticRule:
    """Pure-language membership recomputed through the decoding route.

    On hosts whose wheel copies are clean (the guard patterns pass), a
    wedged pattern matches iff the original colored pattern matches the
    decoded vee image; so decoding and checking the colored class gives an
    independent, and much cheaper, verdict for the wedged prohibitions, and
    this rule decides every ``w:*`` tag.
    """

    def fn(g: ColoredGraph, budget: SearchBudget) -> list:
        shadow = vee(g, scheme)
        report = colored.check(shadow, budget=budget)
        out = []
        for v in report.violations:
            out.append(Violation(f"w:{v.constraint}", f"vee:{v.source}", v.witness))
        return out

    return SemanticRule(
        "sem:pure-membership",
        "w:*",
        {"kind": "vee-colored-membership", "stage": "pure", "tiles": problem.tiles,
         "h": sorted(problem.h_forbidden), "v": sorted(problem.v_forbidden)},
        fn,
        decides=("w:*",),
    )


def wedged_size(p: ConstraintPattern, scheme: EncodingScheme) -> Optional[int]:
    g = p.pattern
    if any(len(g.colors(v)) != 1 for v in g.vertices):
        return None
    total = len(g)
    for v in g.vertices:
        color = next(iter(g.colors(v)))
        if color not in scheme.palette:
            return None
        total += scheme.wheel_size(color)
    return total


def _wedge_family(family: PatternFamily, scheme: EncodingScheme) -> list:
    """The wedge images of a colored family's patterns up to ``WEDGE_CAP`` vertices."""
    out = []
    for p in family.patterns:
        size = wedged_size(p, scheme)
        if size is None or size > WEDGE_CAP:
            continue
        wp = wedge_pattern(p, scheme)
        if wp is not None:
            out.append(wp)
    return out


def compile_pure_class(problem: TilingProblem, stage: str = "pure") -> HereditaryClass:
    """Compile the pure-graph-language class for a tiling problem.

    Pattern families: the H1/H2 guards, then the wedge images of the
    single-colored constraint patterns of the colored class, one family per
    colored family.  Rules decide every tag: the decoding rule recomputes
    every wedged (``w:*``) prohibition through vee, and the structural guard
    rule decides H1 and H2, so neither the compile nor ``check`` builds a
    pattern.  The patterns, built when read, are the tier-1 cross-check
    (``check(use_rules=False)``).  Wedge images above ``WEDGE_CAP`` vertices
    (the successor-configuration constraints, 300+ vertices once encoded)
    are not materialized, and the pattern route skips the wedged and guard
    patterns on hosts larger than ``meta['pattern_host_cap']``.  The two
    routes agree on guard-clean hosts.
    """
    scheme = EncodingScheme(stage_palette(stage))
    colored = compile_colored_class(problem, stage)
    # wheel-shape stays a colored-language constraint; the vee rule covers it
    wedged = tuple(
        PatternFamily(f"w:{f.tag}", partial(_wedge_family, f, scheme))
        for f in colored.families if f.tag != "wheel-shape"
    )
    guards = (PatternFamily("H1", partial(_h1_patterns, scheme)),
              PatternFamily("H2", partial(_h2_patterns, scheme)))
    return HereditaryClass(
        name=f"{stage}[{problem.describe()}]",
        palette=(),
        patterns=guards + wedged,
        rules=(_rule_pure_membership(problem, scheme, colored), _rule_guards(scheme)),
        meta={
            "stage": stage,
            "tiles": problem.tiles,
            "h": sorted(problem.h_forbidden),
            "v": sorted(problem.v_forbidden),
            "scheme_palette": list(scheme.palette),
            "pattern_host_cap": 48,
        },
    )


def complete_with_dummies(g: ColoredGraph, scheme: EncodingScheme) -> ColoredGraph:
    """Attach a dummy wheel over every vertex not inside a free wheel copy;
    ``g`` itself when every vertex already lies in one."""
    covered = set().union(*(blk for _, blk, _ in find_free_wheel_copies(g, scheme.sizes())))
    bare = [v for v in g.vertices if v not in covered]
    if not bare:
        return g
    verts = list(g.vertices)
    edges = [tuple(e) for e in g.edges]
    taken = set(verts)
    size = scheme.wheel_size(scheme.dummy)
    for v in bare:
        _attach_wheel(verts, edges, taken, v, size, ".d")
    return ColoredGraph(verts, edges, name=f"complete[{g.name}]")


def complete_and_joint_embed_pure(
    a: ColoredGraph,
    b: ColoredGraph,
    problem: TilingProblem,
    theta: TilingMap,
    stage: str = "pure",
    cls: HereditaryClass | None = None,
    colored_cls: HereditaryClass | None = None,
    *,
    check: bool = True,
    budget: SearchBudget | None = None,
) -> ColoredGraph:
    """The pure-language joint-embedding procedure.

    Step 1 completes both members with dummy wheels so every vertex lies in
    a free wheel copy.  Step 2 decodes both and adds the colored procedure's
    ``tiling_pairs`` directly between the completed pure graphs: ``vee``
    keeps hub ids, so each decoded pair names two hubs.
    """
    scheme = EncodingScheme(stage_palette(stage))
    cls = cls or compile_pure_class(problem, stage)
    if check:
        cls.require_member(a, budget=budget, what=f"factor {a.name or 'a'}")
        cls.require_member(b, budget=budget, what=f"factor {b.name or 'b'}")
    a_plus = complete_with_dummies(a, scheme)
    b_plus = complete_with_dummies(b, scheme)
    sa, sb = vee(a_plus, scheme), vee(b_plus, scheme)
    if check:
        colored_cls = colored_cls or compile_colored_class(problem, stage)
        colored_cls.require_member(sa, budget=budget, what="decoded factor a")
        colored_cls.require_member(sb, budget=budget, what="decoded factor b")
    union, inj_a, inj_b = disjoint_union(a_plus, b_plus, name=f"{a.name}*{b.name}")
    extra = [(inj_a[x], inj_b[y]) for x, y in tiling_pairs(sa, sb, theta, problem)]
    return union.with_edges(extra, name=f"purejoint[{a.name}|{b.name}]")
