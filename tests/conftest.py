import random

import pytest

from tilejep.core import ColoredGraph
from tilejep.unary import PALETTE_STAGE1


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_colored_graph(rng, n_max=12, edge_p=0.28, palette=PALETTE_STAGE1,
                         multicolor_p=0.08, uncolored_p=0.10, n_min=1):
    """Random colored graph over the stage-1 palette; occasionally leaves a
    vertex uncolored or gives it two colors so the disjointness machinery is
    exercised."""
    n = rng.randint(n_min, n_max)
    verts = list(range(n))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_p]
    colors = {}
    for v in verts:
        r = rng.random()
        if r < uncolored_p:
            continue
        if r < uncolored_p + multicolor_p:
            colors[v] = rng.sample(list(palette), 2)
        else:
            colors[v] = [rng.choice(list(palette))]
    return ColoredGraph(verts, edges, colors)


def random_single_colored(rng, n_max=7, palette=("c0", "c1", "c2"), edge_p=0.35, n_min=1):
    """Random graph whose colors partition the vertices (one color each)."""
    n = rng.randint(n_min, n_max)
    verts = list(range(n))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_p]
    colors = {v: [rng.choice(list(palette))] for v in verts}
    return ColoredGraph(verts, edges, colors)


def _rim_is_cycle(g, rim):
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


def _block_as_wheel(g, blk):
    m = len(blk) - 1
    if m < 4:
        return None
    indeg = {v: sum(1 for w in g.neighbors(v) if w in blk) for v in blk}
    hubs = [v for v in blk if indeg[v] == m]
    if len(hubs) != 1:
        return None
    rim = set(blk) - {hubs[0]}
    if any(indeg[v] != 3 for v in rim) or not _rim_is_cycle(g, rim):
        return None
    return hubs[0], m


def wheel_copies_by_blocks(g, sizes):
    """Reference for ``find_free_wheel_copies``: the blocks that induce a
    wheel of a wanted rim size whose rim vertices all have degree 3, in
    ``blocks`` order, as (hub, block, size) triples."""
    from tilejep.core import blocks

    wanted = set(sizes)
    out = []
    for blk in blocks(g):
        res = _block_as_wheel(g, blk)
        if res is not None and res[1] in wanted and all(g.degree(v) == 3 for v in blk if v != res[0]):
            out.append((res[0], blk, res[1]))
    return out
