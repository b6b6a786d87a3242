"""Stage-1 compiler and runtime over graphs with unary predicates.

Builds the constraint system attached to a tiling problem (constraints
c1..c9), constructs finite truncations of the two canonical models (the
grid-side model A* and the tile-supply model B*), assigns grid coordinates,
runs the edge-adding joint-embedding procedure, and reads tilings back out
of joint embeddings.

Color vocabulary (level i is 0 for the grid side, 1 for the tile side):
  origin{i}   marked path origins
  path{i}     non-origin path vertices
  grid{i}     grid vertices
  tile        tile vertices (level 1 only)
  arrow_tail / arrow_head   the two-link coding chain for the successor arrow
  xproj / yproj             one-link coding for the two projections
  guard / dummy             reserved by the later stages

The derived predicate "path-like" (origin or path) is always computed, never
stored.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, product
from typing import Iterable

from .core import ColoredGraph, disjoint_union, independent_partitions, pair
from .hereditary import (HereditaryClass, MembershipError, PatternFamily, SemanticRule, Violation,
                         monotone_ground)
from .matching import ConstraintPattern, SearchBudget
from .tiling import Patch, TilingMap, TilingProblem

ORIGIN = ("origin0", "origin1")
PATH = ("path0", "path1")
GRID = ("grid0", "grid1")
TILE = "tile"
ARROW_TAIL = "arrow_tail"
ARROW_HEAD = "arrow_head"
XPROJ = "xproj"
YPROJ = "yproj"
GUARD = "guard"
DUMMY = "dummy"

PALETTE_STAGE1 = (
    ORIGIN[0], PATH[0], GRID[0],
    ORIGIN[1], PATH[1], GRID[1],
    TILE, ARROW_TAIL, ARROW_HEAD, XPROJ, YPROJ,
)


def stage_palette(stage: str) -> tuple:
    """The palette of a pipeline stage (``stages.STAGES``); the dummy
    completion color is always last."""
    from .stages import STAGES  # the stage table imports this module

    return STAGES[stage].palette


def path_like(g: ColoredGraph, v, level: int) -> bool:
    cs = g.colors(v)
    return ORIGIN[level] in cs or PATH[level] in cs


class AmbiguityError(ValueError):
    """Two distinct coordinate assignments are derivable for a grid vertex."""


# --------------------------------------------------------------------------
# derived relations
# --------------------------------------------------------------------------


@dataclass
class DerivedRelations:
    """Relations recomputable from a graph alone, with their witnesses.

    ``arrow[i]`` maps an ordered pair (x, y) of path-like vertices to the
    coding witness pairs (a, b) realizing x -> y.  ``xproj[i]`` / ``yproj[i]``
    map (grid, path) pairs to their one-link coding witnesses.  ``chains``
    lists, per level-1 grid vertex, every tile chain of length 1..t (vertex
    paths through tile vertices); a chain of length t is a full tile set.
    """

    tiles: int
    arrow: dict
    xproj: dict
    yproj: dict
    chains: dict
    tau_triples: frozenset      # (grid1 vertex, tile vertex, type index)
    tau_pairs: frozenset        # (grid0 vertex, tile vertex)
    grid_origins: dict          # level -> {grid vertex: ((origin, c, d), ...)}
    cache: dict = field(default_factory=dict)

    def full_chains(self, h) -> list:
        return [ch for ch in self.chains.get(h, ()) if len(ch) == self.tiles]


def _colored(g: ColoredGraph, color: str) -> list:
    return [v for v in g.vertices if color in g.colors(v)]


def _compute_relations(g: ColoredGraph, tiles: int, budget: SearchBudget) -> DerivedRelations:
    arrow = {0: defaultdict(list), 1: defaultdict(list)}
    for a in _colored(g, ARROW_TAIL):
        for b in g.neighbors(a):
            if ARROW_HEAD not in g.colors(b):
                continue
            for lvl in (0, 1):
                xs = [x for x in g.neighbors(a) if path_like(g, x, lvl) and x != b]
                ys = [y for y in g.neighbors(b) if path_like(g, y, lvl) and y != a]
                for x in xs:
                    for y in ys:
                        budget.spend()
                        arrow[lvl][(x, y)].append((a, b))

    def proj(color):
        rel = {0: defaultdict(list), 1: defaultdict(list)}
        for a in _colored(g, color):
            for lvl in (0, 1):
                vs = [v for v in g.neighbors(a) if GRID[lvl] in g.colors(v)]
                ws = [w for w in g.neighbors(a) if path_like(g, w, lvl)]
                for v in vs:
                    for w in ws:
                        budget.spend()
                        rel[lvl][(v, w)].append(a)
        return rel

    xproj = proj(XPROJ)
    yproj = proj(YPROJ)

    chains: dict = {}
    tile_set = set(_colored(g, TILE))
    for h in _colored(g, GRID[1]):
        acc: list = []
        # preorder of the simple tile paths from h, one node per path
        stack = [(t,) for t in reversed(g.neighbors(h)) if t in tile_set and t != h]
        while stack:
            budget.spend()
            ch = stack.pop()
            acc.append(ch)
            if len(ch) < tiles:
                stack += [ch + (w,) for w in reversed(g.neighbors(ch[-1]))
                          if w in tile_set and w != h and w not in ch]
        if acc:
            chains[h] = tuple(acc)

    tau_triples = frozenset(
        (h, ch[-1], len(ch)) for h, chs in chains.items() for ch in chs
    )
    tiled_tiles = {t for (_, t, _) in tau_triples}
    tau_pairs = frozenset(
        (g0, t)
        for g0 in _colored(g, GRID[0])
        for t in g.neighbors(g0)
        if t in tiled_tiles
    )

    grid_origins = {0: {}, 1: {}}
    for lvl in (0, 1):
        xp, yp = xproj[lvl], yproj[lvl]
        for v in _colored(g, GRID[lvl]):
            wits = []
            for o in g.vertices:
                if ORIGIN[lvl] not in g.colors(o):
                    continue
                for c in xp.get((v, o), ()):
                    for d in yp.get((v, o), ()):
                        budget.spend()
                        wits.append((o, c, d))
            if wits:
                grid_origins[lvl][v] = tuple(wits)

    return DerivedRelations(
        tiles=tiles,
        arrow={lvl: dict(arrow[lvl]) for lvl in (0, 1)},
        xproj={lvl: dict(xproj[lvl]) for lvl in (0, 1)},
        yproj={lvl: dict(yproj[lvl]) for lvl in (0, 1)},
        chains=chains,
        tau_triples=tau_triples,
        tau_pairs=tau_pairs,
        grid_origins=grid_origins,
    )


def derive_relations(
    g: ColoredGraph, tiles: int, budget: SearchBudget | None = None
) -> DerivedRelations:
    """Compute (and memoize on the graph) all Definition-style derived relations."""
    memo = g.__dict__.setdefault("_derived_relations", {})
    if tiles not in memo:
        memo[tiles] = _compute_relations(g, tiles, budget or SearchBudget())
    return memo[tiles]


# --------------------------------------------------------------------------
# coordinates
# --------------------------------------------------------------------------


def _origin_distances(g: ColoredGraph, rel: DerivedRelations, level: int) -> tuple:
    """Per (path vertex, origin): the set of arrow-path distances; plus the
    set of vertices with unboundedly many distances (arrow cycles)."""
    succs = defaultdict(list)
    for (x, y) in rel.arrow[level]:
        succs[x].append(y)
    dists: dict = defaultdict(set)
    unbounded: set = set()
    cap = len(g.vertices) + 1
    for o in _colored(g, ORIGIN[level]):
        frontier = {o}
        d = 0
        dists[(o, o)].add(0)
        while frontier and d <= cap:
            nxt = set()
            for x in frontier:
                for y in succs.get(x, ()):
                    if d + 1 not in dists[(y, o)]:
                        dists[(y, o)].add(d + 1)
                        nxt.add(y)
            d += 1
            frontier = nxt
        if frontier:
            unbounded |= frontier
    return dists, unbounded


def coordinates(g: ColoredGraph) -> dict:
    """Partial map from grid vertices to (x, y) grid coordinates.

    A grid vertex receives (n, m) when it has an x-projection at arrow
    distance n and a y-projection at distance m from one common origin.
    Raises AmbiguityError when two distinct assignments are derivable,
    which the compiled constraints c2..c4 rule out for class members.
    """
    if "_coordinates" in g.__dict__:
        return g.__dict__["_coordinates"]
    rel = derive_relations(g, 1)
    coords: dict = {}
    for lvl in (0, 1):
        dists, unbounded = _origin_distances(g, rel, lvl)
        xp = defaultdict(list)
        for (v, w) in rel.xproj[lvl]:
            xp[v].append(w)
        yp = defaultdict(list)
        for (v, w) in rel.yproj[lvl]:
            yp[v].append(w)
        for v in _colored(g, GRID[lvl]):
            cands = set()
            for o in _colored(g, ORIGIN[lvl]):
                for w in xp.get(v, ()):
                    if w in unbounded:
                        raise AmbiguityError(f"unbounded arrow distances feed {v!r}")
                    for dx in dists.get((w, o), ()):
                        for w2 in yp.get(v, ()):
                            if w2 in unbounded:
                                raise AmbiguityError(f"unbounded arrow distances feed {v!r}")
                            for dy in dists.get((w2, o), ()):
                                cands.add((dx, dy))
            if len(cands) > 1:
                raise AmbiguityError(f"grid vertex {v!r} has coordinates {sorted(cands)}")
            if cands:
                coords[v] = cands.pop()
    g.__dict__["_coordinates"] = coords
    return coords


# --------------------------------------------------------------------------
# canonical models
# --------------------------------------------------------------------------


def canonical_A(n: int, problem: TilingProblem) -> ColoredGraph:
    """Depth-n truncation of the grid-side canonical model.

    A directed path of n vertices (origin plus successors, realized through
    arrow coding pairs), an n x n block of grid vertices, and one-link
    projection codings tying grid vertex (i, j) to path positions i and j.
    """
    if n < 1:
        raise ValueError("depth must be positive")
    return _canonical(n, level=0, tiles=0, name=f"A{n}")


def canonical_B(n: int, problem: TilingProblem) -> ColoredGraph:
    """Depth-n truncation of the tile-supply canonical model: the level-1
    copy of the grid model with a full tile chain attached to every grid
    vertex."""
    if n < 1:
        raise ValueError("depth must be positive")
    return _canonical(n, level=1, tiles=problem.tiles, name=f"B{n}")


def _canonical(n: int, level: int, tiles: int, name: str) -> ColoredGraph:
    up = str.upper if level == 1 else str.lower
    verts: list = []
    edges: list = []
    colors: dict = {}

    def add(vid, color):
        verts.append(vid)
        colors[vid] = {color}
        return vid

    ps = []
    for i in range(n):
        ps.append(add(up(f"p{i}"), ORIGIN[level] if i == 0 else PATH[level]))
    for i in range(n - 1):
        a = add(up(f"a{i}"), ARROW_TAIL)
        b = add(up(f"b{i}"), ARROW_HEAD)
        edges += [(ps[i], a), (a, b), (b, ps[i + 1])]
    for i in range(n):
        for j in range(n):
            gv = add(up(f"g{i}_{j}"), GRID[level])
            x = add(up(f"x{i}_{j}"), XPROJ)
            y = add(up(f"y{i}_{j}"), YPROJ)
            edges += [(gv, x), (x, ps[i]), (gv, y), (y, ps[j])]
            if level == 1:
                prev = gv
                for k in range(1, tiles + 1):
                    t = add(up(f"t{i}_{j}_{k}"), TILE)
                    edges.append((prev, t))
                    prev = t
    return ColoredGraph(verts, edges, colors, name=name)


# --------------------------------------------------------------------------
# pattern builders
# --------------------------------------------------------------------------


class _Builder:
    """Incremental construction of a constraint pattern."""

    def __init__(self):
        self.verts: list = []
        self.colors: dict = {}
        self.edges: list = []
        self.forbidden: list = []

    def v(self, vid: str, *colors: str) -> str:
        self.verts.append(vid)
        if colors:
            self.colors[vid] = set(colors)
        return vid

    def e(self, u: str, v: str) -> None:
        self.edges.append((u, v))

    def f(self, u: str, v: str) -> None:
        self.forbidden.append((u, v))

    def chain(self, root: str, prefix: str, length: int, color: str = TILE) -> list:
        prev = root
        out = []
        for k in range(1, length + 1):
            t = self.v(f"{prefix}{k}", color)
            self.e(prev, t)
            prev = t
            out.append(t)
        return out

    def graph(self, name: str) -> ColoredGraph:
        return ColoredGraph(self.verts, self.edges, self.colors, name=name)

    def pattern(self, name: str, constraint: str) -> ConstraintPattern:
        return ConstraintPattern(self.graph(name), self.forbidden, name=name, constraint=constraint)


def _quotient_patterns(
    base: ConstraintPattern,
    principals: Iterable[str],
    cliques: Iterable[frozenset] = (),
) -> list:
    """All color-consistent quotients of ``base`` keeping principals distinct.

    Witness (non-principal) vertices may merge with each other or into a
    principal; merged vertices union their colors.  Quotients that would
    identify two principals, collapse a required edge to a loop, separate
    members of a distinctness clique, or turn a forbidden pair into a
    required edge are skipped.  Forbidden pairs collapsing to loops are
    vacuous and dropped.
    """
    g = base.pattern
    pset = set(principals)
    principals = [p for p in g.vertices if p in pset]
    others = [v for v in g.vertices if v not in pset]
    cliqs = [frozenset(c) for c in cliques]

    def conflict(u, v):
        if g.has_edge(u, v):
            return True
        return any(u in c and v in c for c in cliqs)

    out = []
    for idx, part in enumerate(independent_partitions(others, conflict, [[p] for p in principals])):
        identity = all(len(b) == 1 for b in part)
        rep: dict = {}
        for block in part:
            head = next((x for x in block if x in pset), block[0])
            for x in block:
                rep[x] = head
        order = []
        seen = set()
        for v in g.vertices:
            r = rep[v]
            if r not in seen:
                seen.add(r)
                order.append(r)
        colors: dict = defaultdict(set)
        for v in g.vertices:
            colors[rep[v]] |= set(g.colors(v))
        edges = {pair(rep[u], rep[v]) for e in g.edges for u, v in (tuple(e),)}
        forb = set()
        bad = False
        for e in base.forbidden:
            u, v = tuple(e)
            ru, rv = rep[u], rep[v]
            if ru == rv:
                continue
            p = pair(ru, rv)
            if p in edges:
                bad = True
                break
            forb.add(p)
        if bad:
            continue
        graph = ColoredGraph(order, (tuple(e) for e in edges), dict(colors), name=base.name)
        name = base.name if identity else f"{base.name}/q{idx}"
        out.append(
            ConstraintPattern(graph, (tuple(e) for e in forb), name=name, constraint=base.constraint)
        )
    return out


def _dedupe_patterns(patterns: list) -> list:
    """Drop isomorphic duplicates among forbidden-free patterns."""
    from .core import dedupe_isomorphic

    plain = [p for p in patterns if not p.forbidden]
    cond = [p for p in patterns if p.forbidden]
    kept = dedupe_isomorphic([p.pattern for p in plain])
    kept_ids = {id(gr) for gr in kept}
    return [p for p in plain if id(p.pattern) in kept_ids] + cond


def _p_variants(k: int):
    """All assignments of origin/path colors to k path-like pattern vertices."""
    return product((0, 1), repeat=k)


def _pcolor(level: int, bit: int) -> str:
    return ORIGIN[level] if bit == 0 else PATH[level]

# --------------------------------------------------------------------------
# constraint compiler
# --------------------------------------------------------------------------


def _c1_patterns(palette: tuple) -> list:
    pats = []
    for c1, c2 in combinations(palette, 2):
        b = _Builder()
        b.v("v", c1, c2)
        pats.append(b.pattern(f"c1:{c1}+{c2}", "c1"))
    return pats


def _c2_patterns(level: int) -> list:
    pats = []
    for bits in _p_variants(3):
        b = _Builder()
        p1 = b.v("p", _pcolor(level, bits[0]))
        p2 = b.v("p'", _pcolor(level, bits[1]))
        q = b.v("q", _pcolor(level, bits[2]))
        a1 = b.v("a", ARROW_TAIL)
        b1 = b.v("b", ARROW_HEAD)
        a2 = b.v("a'", ARROW_TAIL)
        b2 = b.v("b'", ARROW_HEAD)
        for x, y, z in ((p1, a1, b1), (p2, a2, b2)):
            b.e(x, y)
            b.e(y, z)
            b.e(z, q)
        base = b.pattern(f"c2:lvl{level}:v{bits[0]}{bits[1]}{bits[2]}", "c2")
        pats.extend(_quotient_patterns(base, ("p", "p'", "q")))
    return _dedupe_patterns(pats)


def _c3_patterns(level: int) -> list:
    pats = []
    for (bit,) in _p_variants(1):
        b = _Builder()
        p = b.v("p", _pcolor(level, bit))
        o = b.v("o", ORIGIN[level])
        a = b.v("a", ARROW_TAIL)
        bb = b.v("b", ARROW_HEAD)
        b.e(p, a)
        b.e(a, bb)
        b.e(bb, o)
        base = b.pattern(f"c3:lvl{level}:v{bit}", "c3")
        pats.extend(_quotient_patterns(base, ("p", "o")))
    return _dedupe_patterns(pats)


def _c4_patterns(level: int) -> list:
    pats = []
    for axis, color in (("x", XPROJ), ("y", YPROJ)):
        for bits in _p_variants(2):
            b = _Builder()
            gv = b.v("g", GRID[level])
            w1 = b.v("w", _pcolor(level, bits[0]))
            w2 = b.v("w'", _pcolor(level, bits[1]))
            c1 = b.v("c", color)
            c2 = b.v("c'", color)
            b.e(gv, c1)
            b.e(c1, w1)
            b.e(gv, c2)
            b.e(c2, w2)
            base = b.pattern(f"c4:lvl{level}:{axis}:v{bits[0]}{bits[1]}", "c4")
            pats.extend(_quotient_patterns(base, ("g", "w", "w'")))
    return _dedupe_patterns(pats)


def _c5_patterns(tiles: int) -> list:
    pats = []
    for l1, l2 in product(range(1, tiles + 1), repeat=2):
        if (l2, l1) < (l1, l2):
            continue  # symmetric in the two chains
        b = _Builder()
        g1 = b.v("g", GRID[1])
        g2 = b.v("h", GRID[1])
        c1 = b.chain(g1, "u", l1 - 1)
        c2 = b.chain(g2, "w", l2 - 1)
        t = b.v("t", TILE)
        b.e(c1[-1] if c1 else g1, t)
        b.e(c2[-1] if c2 else g2, t)
        base = b.pattern(f"c5:{l1},{l2}", "c5")
        cliques = [frozenset([g1, *c1, t]), frozenset([g2, *c2, t])]
        pats.extend(_quotient_patterns(base, ("g", "h", "t"), cliques))
    return _dedupe_patterns(pats)


def _c6_patterns(tiles: int) -> list:
    pats = []
    for l1, l2 in combinations(range(1, tiles + 1), 2):
        b = _Builder()
        gv = b.v("g", GRID[1])
        c1 = b.chain(gv, "u", l1 - 1)
        c2 = b.chain(gv, "w", l2 - 1)
        t = b.v("t", TILE)
        b.e(c1[-1] if c1 else gv, t)
        b.e(c2[-1] if c2 else gv, t)
        base = b.pattern(f"c6:{l1},{l2}", "c6")
        cliques = [frozenset([gv, *c1, t]), frozenset([gv, *c2, t])]
        pats.extend(_quotient_patterns(base, ("g", "t"), cliques))
    return _dedupe_patterns(pats)


def _successor_config(b: _Builder, level: int, orient: str, bits, tag: str = "", merge: str = ""):
    """Add a horizontal/vertical-successor configuration.

    Returns (g, g2): g2 is the successor of g.  ``bits`` assigns
    origin/path colors to the path witnesses (u, u2, shared w); ``merge``
    realizes the coincidences that occur along the grid diagonal and its
    off-diagonal, where the moving projection of one cell is the same path
    vertex as the shared projection ("uw": w = u, "u2w": w = u2).
    """
    moving = XPROJ if orient == "h" else YPROJ
    shared = YPROJ if orient == "h" else XPROJ
    gv = b.v(f"g{tag}", GRID[level])
    g2 = b.v(f"g'{tag}", GRID[level])
    u = b.v(f"u{tag}", _pcolor(level, bits[0]))
    u2 = b.v(f"u'{tag}", _pcolor(level, bits[1]))
    if merge == "uw":
        w = u
    elif merge == "u2w":
        w = u2
    else:
        w = b.v(f"w{tag}", _pcolor(level, bits[2]))
    cu = b.v(f"cu{tag}", moving)
    cu2 = b.v(f"cu'{tag}", moving)
    cw = b.v(f"cw{tag}", shared)
    cw2 = b.v(f"cw'{tag}", shared)
    e = b.v(f"e{tag}", ARROW_TAIL)
    f = b.v(f"f{tag}", ARROW_HEAD)
    b.e(gv, cu); b.e(cu, u)
    b.e(g2, cu2); b.e(cu2, u2)
    b.e(gv, cw); b.e(cw, w)
    b.e(g2, cw2); b.e(cw2, w)
    b.e(u, e); b.e(e, f); b.e(f, u2)
    return gv, g2


def _successor_variants():
    """(bits, merge) combinations for one successor configuration."""
    out = []
    for bits in _p_variants(3):
        out.append((bits, ""))
        if bits[0] == bits[2]:
            out.append((bits[:2] + (bits[0],), "uw"))
        if bits[1] == bits[2]:
            out.append((bits[:2] + (bits[1],), "u2w"))
    # merged variants ignore the third bit; drop duplicates
    seen = set()
    uniq = []
    for bits, merge in out:
        key = (bits[:2], merge) if merge else (bits, merge)
        if key not in seen:
            seen.add(key)
            uniq.append((bits, merge))
    return uniq


def _c7_patterns(problem: TilingProblem) -> list:
    pats = []
    rules = [("h", l, k) for (l, k) in sorted(problem.h_forbidden)]
    rules += [("v", l, k) for (l, k) in sorted(problem.v_forbidden)]
    variants = _successor_variants()
    for orient, l, k in rules:
        for bits0, m0 in variants:
            for bits1, m1 in variants:
                b = _Builder()
                g0, g02 = _successor_config(b, 0, orient, bits0, tag="0", merge=m0)
                h0, h02 = _successor_config(b, 1, orient, bits1, tag="1", merge=m1)
                ch1 = b.chain(h0, "t", l)
                ch2 = b.chain(h02, "s", k)
                b.e(g0, ch1[-1])
                b.e(g02, ch2[-1])
                v0 = "".join(map(str, bits0)) + (f"~{m0}" if m0 else "")
                v1 = "".join(map(str, bits1)) + (f"~{m1}" if m1 else "")
                pats.append(b.pattern(f"c7:{orient}:{l},{k}:v{v0}.{v1}", "c7"))
    return pats


def _c8_patterns(tiles: int) -> list:
    b = _Builder()
    o0 = b.v("o0", ORIGIN[0])
    o1 = b.v("o1", ORIGIN[1])
    gv = b.v("g", GRID[0])
    h = b.v("h", GRID[1])
    c = b.v("c", XPROJ)
    d = b.v("d", YPROJ)
    c2 = b.v("c'", XPROJ)
    d2 = b.v("d'", YPROJ)
    b.e(gv, c); b.e(c, o0)
    b.e(gv, d); b.e(d, o0)
    b.e(h, c2); b.e(c2, o1)
    b.e(h, d2); b.e(d2, o1)
    chain = b.chain(h, "t", tiles)
    for t in chain:
        b.f(gv, t)
    base = b.pattern("c8", "c8")
    return _quotient_patterns(base, ("o0", "o1", "g", "h", *chain))


def _c9_patterns(problem: TilingProblem) -> list:
    pats = []
    variants = _successor_variants()
    for orient in ("h", "v"):
        for l in range(1, problem.tiles + 1):
            for bits0, m0 in variants:
                for bits1, m1 in variants:
                    b = _Builder()
                    g0, g02 = _successor_config(b, 0, orient, bits0, tag="0", merge=m0)
                    h0, h02 = _successor_config(b, 1, orient, bits1, tag="1", merge=m1)
                    ch = b.chain(h0, "t", l)
                    full = b.chain(h02, "s", problem.tiles)
                    b.e(g0, ch[-1])
                    for t in full:
                        b.f(g02, t)
                    v0 = "".join(map(str, bits0)) + (f"~{m0}" if m0 else "")
                    v1 = "".join(map(str, bits1)) + (f"~{m1}" if m1 else "")
                    pats.append(b.pattern(f"c9:{orient}:{l}:v{v0}.{v1}", "c9"))
    return pats

# --------------------------------------------------------------------------
# semantic rules (independent re-derivation of each constraint's verdict)
# --------------------------------------------------------------------------


def _vio(constraint: str, source: str, g: ColoredGraph, witness) -> Violation:
    return Violation(constraint, source, tuple(g.sorted_vertices(set(witness))))


def _rule_c1(palette: tuple) -> SemanticRule:
    pal = frozenset(palette)

    def fn(g: ColoredGraph, budget: SearchBudget) -> list:
        out = []
        for v in g.vertices:
            if len(g.colors(v) & pal) >= 2:
                out.append(Violation("c1", "sem:c1", (v,)))
        return out

    return SemanticRule("sem:c1", "c1", {"kind": "disjoint-predicates"}, fn, decides=("c1",),
                        ground=monotone_ground(fn))


def _rule_c2(level: int) -> SemanticRule:
    def fn(g: ColoredGraph, budget: SearchBudget) -> list:
        rel = derive_relations(g, 1, budget)
        preds = defaultdict(set)
        for (x, y) in rel.arrow[level]:
            if x != y:
                preds[y].add(x)
        out = []
        for q, ps in preds.items():
            if len(ps) >= 2:
                p1, p2 = g.sorted_vertices(ps)[:2]
                out.append(_vio("c2", f"sem:c2:lvl{level}", g, (p1, p2, q)))
        return out

    return SemanticRule(f"sem:c2:lvl{level}", "c2", {"kind": "unique-predecessor", "level": level}, fn,
                        decides=("c2",), ground=monotone_ground(fn))


def _rule_c3(level: int) -> SemanticRule:
    def fn(g: ColoredGraph, budget: SearchBudget) -> list:
        rel = derive_relations(g, 1, budget)
        out = []
        for (x, y) in sorted(rel.arrow[level], key=lambda p: (g.index(p[0]), g.index(p[1]))):
            if x != y and ORIGIN[level] in g.colors(y):
                out.append(_vio("c3", f"sem:c3:lvl{level}", g, (x, y)))
        return out

    return SemanticRule(f"sem:c3:lvl{level}", "c3", {"kind": "origin-no-predecessor", "level": level}, fn,
                        decides=("c3",), ground=monotone_ground(fn))


def _rule_c4(level: int, axis: str) -> SemanticRule:
    def fn(g: ColoredGraph, budget: SearchBudget) -> list:
        rel = derive_relations(g, 1, budget)
        proj = rel.xproj[level] if axis == "x" else rel.yproj[level]
        per = defaultdict(set)
        for (v, w) in proj:
            if v != w:
                per[v].add(w)
        out = []
        for v, ws in per.items():
            if len(ws) >= 2:
                w1, w2 = g.sorted_vertices(ws)[:2]
                out.append(_vio("c4", f"sem:c4:lvl{level}:{axis}", g, (v, w1, w2)))
        return out

    return SemanticRule(
        f"sem:c4:lvl{level}:{axis}", "c4", {"kind": "unique-projection", "level": level, "axis": axis}, fn,
        decides=("c4",), ground=monotone_ground(fn),
    )


def _rule_c5(tiles: int) -> SemanticRule:
    def fn(g: ColoredGraph, budget: SearchBudget) -> list:
        rel = derive_relations(g, tiles, budget)
        owners = defaultdict(set)
        for (h, t, _) in rel.tau_triples:
            owners[t].add(h)
        out = []
        for t in g.sorted_vertices(owners):
            hs = owners[t] - {t}
            if len(hs) >= 2:
                h1, h2 = g.sorted_vertices(hs)[:2]
                out.append(_vio("c5", "sem:c5", g, (h1, h2, t)))
        return out

    return SemanticRule("sem:c5", "c5", {"kind": "unique-tile-owner", "tiles": tiles}, fn, decides=("c5",),
                        ground=monotone_ground(fn))


def _rule_c6(tiles: int) -> SemanticRule:
    def fn(g: ColoredGraph, budget: SearchBudget) -> list:
        rel = derive_relations(g, tiles, budget)
        types = defaultdict(set)
        for (h, t, i) in rel.tau_triples:
            types[(h, t)].add(i)
        out = []
        for (h, t) in sorted(types, key=lambda p: (g.index(p[0]), g.index(p[1]))):
            if len(types[(h, t)]) >= 2:
                out.append(_vio("c6", "sem:c6", g, (h, t)))
        return out

    return SemanticRule("sem:c6", "c6", {"kind": "unique-tile-type", "tiles": tiles}, fn, decides=("c6",),
                        ground=monotone_ground(fn))


def _successor_witnesses(
    g: ColoredGraph, rel: DerivedRelations, level: int, orient: str, budget: SearchBudget
) -> list:
    """Enumerate injective-on-its-own-level successor witness tuples.

    Each witness is a dict with the grid pair (g, g2), the moving-axis
    projections (u, u2) with codings (cu, cu2), the shared projection w with
    codings (cw, cw2), and the arrow codings (e, f).  The roles of one
    witness are pairwise distinct apart from the diagonal path coincidences,
    mirroring the explicit forbidden subgraphs; sharing across levels is
    handled by the caller.  Cached on the relations record.
    """
    key = ("succ", level, orient)
    if key in rel.cache:
        return rel.cache[key]
    moving = rel.xproj[level] if orient == "h" else rel.yproj[level]
    shared = rel.yproj[level] if orient == "h" else rel.xproj[level]
    mov_by_path = defaultdict(list)
    for (v, w), cs in moving.items():
        for c in cs:
            mov_by_path[w].append((v, c))
    shr_by_grid = defaultdict(list)
    for (v, w), cs in shared.items():
        for c in cs:
            shr_by_grid[v].append((w, c))
    out = []
    for (u, u2), arrows in rel.arrow[level].items():
        for (gv, cu) in mov_by_path.get(u, ()):
            for (g2, cu2) in mov_by_path.get(u2, ()):
                if g2 == gv:
                    continue
                for (w, cw) in shr_by_grid.get(gv, ()):
                    for (w2, cw2) in shr_by_grid.get(g2, ()):
                        if w2 != w:
                            continue
                        for (e, f) in arrows:
                            budget.spend()
                            wit = dict(
                                g=gv, g2=g2, u=u, u2=u2, w=w,
                                cu=cu, cu2=cu2, cw=cw, cw2=cw2, e=e, f=f,
                            )
                            if _witness_distinct(wit):
                                out.append(wit)
    rel.cache[key] = out
    return out


def _witness_distinct(wit: dict) -> bool:
    """One successor witness: all roles pairwise distinct, except that the
    shared projection may be the same path vertex as either moving one
    (the diagonal coincidences of a square grid)."""
    seen = defaultdict(list)
    for role, v in wit.items():
        seen[v].append(role)
    for roles in seen.values():
        if len(roles) == 1:
            continue
        if len(roles) == 2 and set(roles) in ({"u", "w"}, {"u2", "w"}):
            continue
        return False
    return True


_CODING_ROLES = ("cu", "cu2", "cw", "cw2", "e", "f")


def _joint_distinct(w0: dict, w1: dict, extra: Iterable) -> bool:
    """Pairwise distinctness over both witness tuples plus extra vertices,
    with two families of allowed coincidences: the within-level diagonal
    path coincidences (shared projection = a moving projection), and coding
    vertices shared across the two levels (such sharing arises from
    cross-factor coding identifications in joint embeddings and must still
    count as a forbidden configuration)."""
    all_items = [("0:" + k, v) for k, v in w0.items()]
    all_items += [("1:" + k, v) for k, v in w1.items()]
    all_items += [(f"x{i}", v) for i, v in enumerate(extra)]
    seen = defaultdict(list)
    for role, v in all_items:
        seen[v].append(role)
    for v, roles in seen.items():
        if len(roles) == 1:
            continue
        if len(roles) > 2:
            return False
        r1, r2 = sorted(roles)
        lv1, n1 = r1[:2], r1[2:]
        lv2, n2 = r2[:2], r2[2:]
        if lv1 == lv2 and {n1, n2} in ({"u", "w"}, {"u2", "w"}):
            continue
        if {lv1, lv2} == {"0:", "1:"} and n1 in _CODING_ROLES and n2 in _CODING_ROLES:
            continue
        return False
    return True


def _chains_by_grid_and_len(rel: DerivedRelations) -> dict:
    if "chains_by_len" in rel.cache:
        return rel.cache["chains_by_len"]
    idx = defaultdict(list)
    for h, chs in rel.chains.items():
        for ch in chs:
            idx[(h, len(ch))].append(ch)
    rel.cache["chains_by_len"] = idx
    return idx


def _c7_scan(g, rel, rules, budget, has_edge) -> list:
    """c7 core, parametric in the edge predicate.

    The c7, c8 and c9 scans return ``(violation, present, absent)``
    triples: the violation plus the host pairs it read as edges and as
    non-edges.  The relations are edge-monotone, so running a scan over a
    subset of the final edges only under-reports: any violation found
    survives in every edge superset.  Run with "may be present" and "may be
    absent" predicates instead, a scan enumerates every violation some
    completion can have; the witness search grounds c7..c9 into clauses
    over its undecided pairs that way.
    """
    if not rules or not rel.tau_triples:
        return []
    chains = _chains_by_grid_and_len(rel)
    out = []
    cache: dict = {}
    for orient, l, k in rules:
        if (0, orient) not in cache:
            cache[(0, orient)] = _successor_witnesses(g, rel, 0, orient, budget)
            cache[(1, orient)] = _successor_witnesses(g, rel, 1, orient, budget)
        for w0 in cache[(0, orient)]:
            for w1 in cache[(1, orient)]:
                for ch1 in chains.get((w1["g"], l), ()):
                    t = ch1[-1]
                    if not has_edge(w0["g"], t):
                        continue
                    for ch2 in chains.get((w1["g2"], k), ()):
                        t2 = ch2[-1]
                        budget.spend()
                        if t2 == t or not has_edge(w0["g2"], t2):
                            continue
                        if _joint_distinct(w0, w1, (*ch1, *ch2)):
                            out.append((
                                _vio("c7", f"sem:c7:{orient}:{l},{k}", g,
                                     (w0["g"], w0["g2"], w1["g"], w1["g2"], t, t2)),
                                ((w0["g"], t), (w0["g2"], t2)),
                                (),
                            ))
    return out


def _c8_scan(g, rel, budget, has_edge, absent) -> list:
    """c8 core: grid origins on both levels, a full tile chain, and all of
    the chain's tiles definitely non-adjacent to the level-0 origin cell.
    ``absent`` must certify non-adjacency in every completion considered."""
    out = []
    for gv in g.sorted_vertices(rel.grid_origins[0]):
        wits0 = rel.grid_origins[0][gv]
        for h in g.sorted_vertices(rel.grid_origins[1]):
            wits1 = rel.grid_origins[1][h]
            for chain in rel.full_chains(h):
                budget.spend()
                if not all(absent(gv, t) for t in chain):
                    continue
                ok = False
                for (o0, _, _) in wits0:
                    for (o1, _, _) in wits1:
                        principals = {o0, o1, gv, h, *chain}
                        if len(principals) == 4 + len(chain):
                            ok = True
                            break
                    if ok:
                        break
                if ok:
                    out.append((_vio("c8", "sem:c8", g, (gv, h, *chain)), (),
                                tuple((gv, t) for t in chain)))
    return out


def _c9_scan(g, rel, tiles, budget, has_edge, absent) -> list:
    """c9 core: a tiled cell whose successor, despite a full tile chain at
    the corresponding level-1 successor, is definitely not tiled from it."""
    if not rel.tau_triples:
        return []
    chains = _chains_by_grid_and_len(rel)
    out = []
    for orient in ("h", "v"):
        w0s = _successor_witnesses(g, rel, 0, orient, budget)
        if not w0s:
            continue
        w1s = _successor_witnesses(g, rel, 1, orient, budget)
        for w0 in w0s:
            for w1 in w1s:
                full = rel.full_chains(w1["g2"])
                if not full:
                    continue
                for l in range(1, tiles + 1):
                    for ch in chains.get((w1["g"], l), ()):
                        if not has_edge(w0["g"], ch[-1]):
                            continue
                        for fch in full:
                            budget.spend()
                            if not all(absent(w0["g2"], t) for t in fch):
                                continue
                            if _joint_distinct(w0, w1, (*ch, *fch)):
                                out.append((
                                    _vio("c9", f"sem:c9:{orient}", g,
                                         (w0["g"], w0["g2"], w1["g"], w1["g2"], ch[-1])),
                                    ((w0["g"], ch[-1]),),
                                    tuple((w0["g2"], t) for t in fch),
                                ))
    return out


def _scan_rule(constraint: str, descriptor: dict, tiles: int, scan) -> SemanticRule:
    """A rule over one of the c7, c8, c9 scans, called as ``scan(g, rel,
    budget, has_edge, absent)``.  ``check`` runs it on the graph's own
    edges; ``ground`` runs it on the witness search's "may be present" and
    "may be absent" predicates, with the relations derived from the decided
    graph alone.  They are edge-monotone, so every completion holding a
    violation's reads violates the class; in the reduced grid-tile space
    they read no undecided pair, so there the clauses are exact.
    """

    def fn(g: ColoredGraph, budget: SearchBudget) -> list:
        rel = derive_relations(g, tiles, budget)
        return [v for v, _, _ in scan(g, rel, budget, g.has_edge, lambda x, y: not g.has_edge(x, y))]

    def ground(g, may_present, may_absent, budget) -> list:
        rel = derive_relations(g, tiles, budget)
        return [(present, absent) for _, present, absent in scan(g, rel, budget, may_present, may_absent)]

    return SemanticRule(f"sem:{constraint}", constraint, descriptor, fn, decides=(constraint,), ground=ground)


def _rule_c7(problem: TilingProblem) -> SemanticRule:
    rules = [("h", l, k) for (l, k) in sorted(problem.h_forbidden)]
    rules += [("v", l, k) for (l, k) in sorted(problem.v_forbidden)]
    return _scan_rule(
        "c7",
        {"kind": "tiling-rules", "tiles": problem.tiles,
         "h": sorted(problem.h_forbidden), "v": sorted(problem.v_forbidden)},
        problem.tiles,
        lambda g, rel, budget, has_edge, absent: _c7_scan(g, rel, rules, budget, has_edge),
    )


def _rule_c8(tiles: int) -> SemanticRule:
    return _scan_rule("c8", {"kind": "origin-must-tile", "tiles": tiles}, tiles, _c8_scan)


def _rule_c9(problem: TilingProblem) -> SemanticRule:
    tiles = problem.tiles
    return _scan_rule(
        "c9", {"kind": "tiling-propagation", "tiles": tiles}, tiles,
        lambda g, rel, budget, has_edge, absent: _c9_scan(g, rel, tiles, budget, has_edge, absent),
    )


# --------------------------------------------------------------------------
# class compilation, joint embedding, readout
# --------------------------------------------------------------------------


def compile_unary_class(problem: TilingProblem, palette: tuple = PALETTE_STAGE1) -> HereditaryClass:
    """Compile the colored-graph hereditary class attached to a tiling problem.

    Declares, per constraint, both an explicit pattern family and an
    independently implemented semantic rule.  Each rule decides its own
    tag, so ``check`` runs only the rules, and the pattern families, built
    only when read, are the tier-1 cross-check (``check(use_rules=False)``).
    The small configurations (c2..c6, c8) are quotient-closed over their
    witness vertices so the two views match exactly.  The successor
    configurations (c7, c9) are emitted as explicit subgraphs, including the
    diagonal path-coincidence variants; their semantic rules additionally
    count configurations whose coding witnesses are shared across the two
    levels, which arise from coding-vertex identifications in joint
    embeddings and are too numerous to close over pattern-side.
    """
    families = [PatternFamily("c1", partial(_c1_patterns, palette))]
    for lvl in (0, 1):
        families += [
            PatternFamily("c2", partial(_c2_patterns, lvl)),
            PatternFamily("c3", partial(_c3_patterns, lvl)),
            PatternFamily("c4", partial(_c4_patterns, lvl)),
        ]
    families += [
        PatternFamily("c5", partial(_c5_patterns, problem.tiles)),
        PatternFamily("c6", partial(_c6_patterns, problem.tiles)),
        PatternFamily("c7", partial(_c7_patterns, problem)),
        PatternFamily("c8", partial(_c8_patterns, problem.tiles)),
        PatternFamily("c9", partial(_c9_patterns, problem)),
    ]

    rules = [
        _rule_c1(palette),
        _rule_c2(0), _rule_c2(1),
        _rule_c3(0), _rule_c3(1),
        _rule_c4(0, "x"), _rule_c4(0, "y"), _rule_c4(1, "x"), _rule_c4(1, "y"),
        _rule_c5(problem.tiles),
        _rule_c6(problem.tiles),
        _rule_c7(problem),
        _rule_c8(problem.tiles),
        _rule_c9(problem),
    ]
    return HereditaryClass(
        name=f"unary[{problem.describe()}]",
        palette=palette,
        patterns=tuple(families),
        rules=tuple(rules),
        meta={"stage": "unary", "tiles": problem.tiles,
              "h": sorted(problem.h_forbidden), "v": sorted(problem.v_forbidden)},
    )


def tiling_pairs(a: ColoredGraph, b: ColoredGraph, theta: TilingMap, problem: TilingProblem) -> list:
    """The (a-vertex, b-vertex) pairs the edge-adding procedure joins.

    A level-0 grid vertex of one factor with coordinates (n, m) pairs with
    every tile of type theta(n, m) attached to a level-1 grid vertex of the
    other factor with the same coordinates.
    """
    pairs = []
    for src, dst, flip in ((a, b, False), (b, a, True)):
        coords_src = coordinates(src)
        coords_dst = coordinates(dst)
        rel_dst = derive_relations(dst, problem.tiles)
        tiles_at = defaultdict(list)
        for (h, t, i) in rel_dst.tau_triples:
            if h in coords_dst and GRID[1] in dst.colors(h):
                tiles_at[(coords_dst[h], i)].append(t)
        for gv in src.vertices:
            if GRID[0] not in src.colors(gv) or gv not in coords_src:
                continue
            n, m = coords_src[gv]
            k = theta.tile_at(n, m)
            if k is None:
                raise MembershipError(f"tiling map undefined at coordinates ({n},{m})")
            pairs += [(t, gv) if flip else (gv, t) for t in tiles_at.get(((n, m), k), ())]
    return pairs


def joint_embed_unary(
    a: ColoredGraph,
    b: ColoredGraph,
    theta: TilingMap,
    problem: TilingProblem,
    cls: HereditaryClass | None = None,
    *,
    check: bool = True,
    budget: SearchBudget | None = None,
) -> ColoredGraph:
    """The edge-adding joint-embedding procedure for two class members:
    the disjoint union plus every pair of ``tiling_pairs``."""
    if check:
        cls = cls or compile_unary_class(problem)
        cls.require_member(a, budget=budget, what=f"factor {a.name or 'a'}")
        cls.require_member(b, budget=budget, what=f"factor {b.name or 'b'}")
    union, inj_a, inj_b = disjoint_union(a, b, name=f"{a.name}*{b.name}")
    extra = [(inj_a[x], inj_b[y]) for x, y in tiling_pairs(a, b, theta, problem)]
    return union.with_edges(extra, name=f"joint[{a.name}|{b.name}]")


def extract_tiling(c: ColoredGraph, n: int, problem: TilingProblem) -> Patch:
    """Read a partial n x n patch off a joint embedding.

    Cell (i, j) is set when the level-0 grid vertex with coordinates (i, j)
    is tiled by a tile of some type k; ties break to the least k so the
    readout is deterministic.  Unreachable cells stay blank.
    """
    rel = derive_relations(c, problem.tiles)
    coords = coordinates(c)
    type_of = defaultdict(set)
    for (h, t, i) in rel.tau_triples:
        type_of[t].add(i)
    cells: dict = {}
    for gv in c.vertices:
        if GRID[0] not in c.colors(gv) or gv not in coords:
            continue
        i, j = coords[gv]
        if not (0 <= i < n and 0 <= j < n):
            continue
        ks = sorted(set().union(*[type_of[t] for t in c.neighbors(gv) if t in type_of] or [set()]))
        if ks:
            cells[(i, j)] = min(ks) if (i, j) not in cells else min(cells[(i, j)], min(ks))
    return Patch(n, n, cells)
