"""Tiling problems, finite patches, periodic maps, and solvability oracles.

Conventions fixed here and used identically by the reduction compiler:
an ``h_forbidden`` pair (l, k) forbids tile k directly to the RIGHT of l;
a ``v_forbidden`` pair (j, i) forbids tile i directly ABOVE j.  Coordinates
grow rightward in x and upward in y with origin (0, 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .core import SearchBudget, backtrack


@dataclass(frozen=True)
class TilingProblem:
    tiles: int
    h_forbidden: frozenset = frozenset()
    v_forbidden: frozenset = frozenset()

    def __post_init__(self):
        if self.tiles < 1:
            raise ValueError("a tiling problem needs at least one tile type")
        object.__setattr__(self, "h_forbidden", frozenset(map(tuple, self.h_forbidden)))
        object.__setattr__(self, "v_forbidden", frozenset(map(tuple, self.v_forbidden)))
        for a, b in self.h_forbidden | self.v_forbidden:
            if not (1 <= a <= self.tiles and 1 <= b <= self.tiles):
                raise ValueError(f"rule pair ({a},{b}) out of range 1..{self.tiles}")

    def h_ok(self, left: int, right: int) -> bool:
        return (left, right) not in self.h_forbidden

    def v_ok(self, below: int, above: int) -> bool:
        return (below, above) not in self.v_forbidden

    def describe(self) -> str:
        hs = " ".join(f"hnot {a} {b}" for a, b in sorted(self.h_forbidden))
        vs = " ".join(f"vnot {a} {b}" for a, b in sorted(self.v_forbidden))
        return " ".join(x for x in (f"tiles {self.tiles}", hs, vs) if x)


@dataclass(frozen=True)
class Patch:
    """A finite (possibly partial) w x h window of tile assignments."""

    width: int
    height: int
    cells: dict = field(default_factory=dict)

    def __post_init__(self):
        for (x, y), t in self.cells.items():
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ValueError(f"cell ({x},{y}) outside {self.width}x{self.height} patch")
        object.__setattr__(self, "cells", dict(self.cells))

    def tile_at(self, x: int, y: int) -> Optional[int]:
        return self.cells.get((x, y))

    def is_total(self) -> bool:
        return len(self.cells) == self.width * self.height

    def rows(self) -> list:
        """Row-major serialization order: y = 0 row first."""
        return [
            [self.cells.get((x, y)) for x in range(self.width)]
            for y in range(self.height)
        ]

    def __eq__(self, other):
        if not isinstance(other, Patch):
            return NotImplemented
        return (self.width, self.height, self.cells) == (other.width, other.height, other.cells)

    def __hash__(self):
        return hash((self.width, self.height, tuple(sorted(self.cells.items()))))


@dataclass(frozen=True)
class PeriodicTiling:
    """A doubly periodic map: tile_at(x, y) = table[y mod q][x mod p]."""

    px: int
    py: int
    table: tuple  # rows, y = 0 row first; each row a tuple of length px

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.table)
        if len(rows) != self.py or any(len(r) != self.px for r in rows):
            raise ValueError("periodic table must be total on the fundamental domain")
        object.__setattr__(self, "table", rows)

    def tile_at(self, x: int, y: int) -> int:
        return self.table[y % self.py][x % self.px]

    def window(self, n: int) -> Patch:
        return Patch(n, n, {(x, y): self.tile_at(x, y) for x in range(n) for y in range(n)})


TilingMap = Union[Patch, PeriodicTiling]


@dataclass(frozen=True)
class RuleViolation:
    kind: str          # "h" or "v"
    at: tuple          # coordinate of the left / lower cell
    tiles: tuple       # (first, second) in rule order

    def __str__(self) -> str:
        rel = "right of" if self.kind == "h" else "above"
        return f"tile {self.tiles[1]} {rel} tile {self.tiles[0]} at {self.at}"


def check_patch(problem: TilingProblem, m: TilingMap) -> tuple:
    """Validate a tiling map against the rules.

    Finite patches are checked on all assigned adjacent pairs.  Periodic
    maps are checked on one fundamental domain plus wrap-around neighbors,
    which certifies the infinite map.  Returns ``(ok, violations)``.
    """
    bad = []
    if isinstance(m, PeriodicTiling):
        for y in range(m.py):
            for x in range(m.px):
                t = m.tile_at(x, y)
                r = m.tile_at(x + 1, y)
                if not problem.h_ok(t, r):
                    bad.append(RuleViolation("h", (x, y), (t, r)))
                u = m.tile_at(x, y + 1)
                if not problem.v_ok(t, u):
                    bad.append(RuleViolation("v", (x, y), (t, u)))
    else:
        for (x, y), t in sorted(m.cells.items()):
            r = m.tile_at(x + 1, y)
            if r is not None and not problem.h_ok(t, r):
                bad.append(RuleViolation("h", (x, y), (t, r)))
            u = m.tile_at(x, y + 1)
            if u is not None and not problem.v_ok(t, u):
                bad.append(RuleViolation("v", (x, y), (t, u)))
    return (not bad, bad)


def _fill(problem: TilingProblem, w: int, h: int, fits, budget: SearchBudget) -> Optional[dict]:
    """First w x h table, row-major and tiles in ascending order, whose every
    cell passes ``fits(x, y, t, tab)``; ``tab`` holds the cells before
    (x, y) in row-major order.  None when there is none."""
    tiles = range(1, problem.tiles + 1)

    def ok(i, t, tab):
        y, x = divmod(i, w)
        return fits(x, y, t, tab)

    tab = next(backtrack(w * h, lambda i, tab: tiles, ok, budget), None)
    if tab is None:
        return None
    return {(i % w, i // w): t for i, t in enumerate(tab)}


def solve_bounded(
    problem: TilingProblem,
    n: int,
    budget: SearchBudget | None = None,
) -> Optional[Patch]:
    """Exhaustive backtracking search for a valid total n x n patch.

    A definitive ``None`` certifies there is no such patch, hence no total
    plane tiling either.  Budget exhaustion raises (indeterminate), which is
    deliberately distinct from ``None``.
    """
    if n < 1:
        raise ValueError("n must be positive")

    def fits(x, y, t, tab):
        # the left neighbor is the previous cell, the one below is n cells back
        return (x == 0 or problem.h_ok(tab[-1], t)) and (y == 0 or problem.v_ok(tab[-n], t))

    cells = _fill(problem, n, n, fits, budget or SearchBudget())
    return None if cells is None else Patch(n, n, cells)


def solve_periodic(
    problem: TilingProblem,
    max_period: int,
    budget: SearchBudget | None = None,
) -> Optional[PeriodicTiling]:
    """Search for a torus-valid periodic map with periods up to ``max_period``.

    A found map certifies a YES instance (it extends to all of the plane).
    Absence up to the cap is inconclusive.  Period pairs are tried in
    (area, px, py) order and tables lexicographically, so results are
    reproducible.
    """
    if max_period < 1:
        raise ValueError("max_period must be positive")
    budget = budget or SearchBudget()
    dims = sorted(
        ((p, q) for p in range(1, max_period + 1) for q in range(1, max_period + 1)),
        key=lambda pq: (pq[0] * pq[1], pq[0], pq[1]),
    )
    for px, py in dims:

        def fits(x, y, t, tab):
            # period 1 makes a cell its own neighbor; the last cell of a row
            # (column) also meets the first one across the wrap
            left = t if px == 1 else tab[-1] if x else None
            below = t if py == 1 else tab[-px] if y else None
            return (
                (left is None or problem.h_ok(left, t))
                and (below is None or problem.v_ok(below, t))
                and (px == 1 or x < px - 1 or problem.h_ok(t, tab[y * px]))
                and (py == 1 or y < py - 1 or problem.v_ok(t, tab[x]))
            )

        table = _fill(problem, px, py, fits, budget)
        if table is not None:
            rows = tuple(tuple(table[(x, y)] for x in range(px)) for y in range(py))
            cand = PeriodicTiling(px, py, rows)
            ok, _ = check_patch(problem, cand)
            if ok:
                return cand
    return None
