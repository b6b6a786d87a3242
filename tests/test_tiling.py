"""Tiling problems, patch checking, and the two solvability oracles."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from tilejep.matching import BudgetExceededError, SearchBudget
from tilejep.tiling import (
    Patch,
    PeriodicTiling,
    TilingProblem,
    check_patch,
    solve_bounded,
    solve_periodic,
)


def test_problem_validation():
    with pytest.raises(ValueError):
        TilingProblem(0)
    with pytest.raises(ValueError):
        TilingProblem(1, h_forbidden={(1, 2)})


def test_check_patch_trivial():
    t = TilingProblem(1)
    patch = Patch(3, 3, {(x, y): 1 for x in range(3) for y in range(3)})
    ok, bad = check_patch(t, patch)
    assert ok and not bad


def test_check_patch_forced_conflict():
    t = TilingProblem(1, h_forbidden={(1, 1)})
    patch = Patch(2, 1, {(0, 0): 1, (1, 0): 1})
    ok, bad = check_patch(t, patch)
    assert not ok
    assert bad[0].kind == "h" and bad[0].at == (0, 0)


def test_check_patch_figure_row():
    # bottom row 2,2,1 under rules that allow it
    t = TilingProblem(2, h_forbidden={(1, 1)})
    patch = Patch(3, 1, {(0, 0): 2, (1, 0): 2, (2, 0): 1})
    ok, _ = check_patch(t, patch)
    assert ok


def test_periodic_torus_check_covers_wraparound():
    t = TilingProblem(2, h_forbidden={(2, 1)})
    # row 1,2 wraps as (2,1) which is forbidden
    m = PeriodicTiling(2, 1, ((1, 2),))
    ok, bad = check_patch(t, m)
    assert not ok and bad[0].kind == "h"


def test_solve_bounded_examples():
    assert solve_bounded(TilingProblem(1), 4).is_total()
    assert solve_bounded(TilingProblem(1, h_forbidden={(1, 1)}), 2) is None
    t = TilingProblem(2, h_forbidden={(1, 1)}, v_forbidden={(2, 2)})
    patch = solve_bounded(t, 4)
    assert patch is not None
    ok, _ = check_patch(t, patch)
    assert ok


def test_solve_bounded_budget_is_distinct_from_none():
    t = TilingProblem(2, h_forbidden={(1, 1)}, v_forbidden={(2, 2)})
    with pytest.raises(BudgetExceededError):
        solve_bounded(t, 4, budget=SearchBudget(3))


def test_solve_periodic_examples():
    m = solve_periodic(TilingProblem(1), 2)
    assert (m.px, m.py) == (1, 1) and m.table == ((1,),)
    m = solve_periodic(TilingProblem(2, h_forbidden={(1, 1), (2, 2)}), 3)
    assert (m.px, m.py) == (2, 1) and m.table == ((1, 2),)
    assert solve_periodic(TilingProblem(1, h_forbidden={(1, 1)}), 4) is None


def test_found_maps_always_check_out():
    t = TilingProblem(3, h_forbidden={(1, 1), (2, 3)}, v_forbidden={(3, 3)})
    patch = solve_bounded(t, 3)
    assert patch is not None and check_patch(t, patch)[0]
    m = solve_periodic(t, 3)
    assert m is not None and check_patch(t, m)[0]


def test_periodic_window_passes_patch_check():
    t = TilingProblem(2, h_forbidden={(1, 1), (2, 2)})
    m = solve_periodic(t, 2)
    for n in (1, 2, 3, 5):
        ok, _ = check_patch(t, m.window(n))
        assert ok


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.data())
def test_bounded_monotonicity(tiles, data):
    # solvable at n implies solvable at every smaller n
    pairs = [(a, b) for a in range(1, tiles + 1) for b in range(1, tiles + 1)]
    h = {p for p in pairs if data.draw(st.booleans())}
    v = {p for p in pairs if data.draw(st.booleans())}
    t = TilingProblem(tiles, frozenset(h), frozenset(v))
    n = data.draw(st.integers(2, 3))
    if solve_bounded(t, n) is not None:
        for smaller in range(1, n):
            assert solve_bounded(t, smaller) is not None


def test_patch_serialization_order():
    p = Patch(2, 2, {(0, 0): 1, (1, 0): 2, (0, 1): 2})
    assert p.rows() == [[1, 2], [2, None]]


def _two_tile_specs():
    cells = list(product((1, 2), repeat=2))
    for hmask, vmask in product(range(16), repeat=2):
        yield TilingProblem(2, {c for k, c in enumerate(cells) if hmask >> k & 1},
                            {c for k, c in enumerate(cells) if vmask >> k & 1})


def _least_periodic(t, max_period):
    # period pairs in (area, px, py) order, tables lexicographically
    dims = sorted(product(range(1, max_period + 1), repeat=2), key=lambda pq: (pq[0] * pq[1], pq[0], pq[1]))
    return next((m for px, py in dims for tab in product(range(1, t.tiles + 1), repeat=px * py)
                 for m in (PeriodicTiling(px, py, [tab[y * px:(y + 1) * px] for y in range(py)]),)
                 if check_patch(t, m)[0]), None)


def test_oracles_return_the_least_valid_colouring_on_every_two_tile_spec():
    # reference: itertools over all row-major colourings, lexicographically
    for t in _two_tile_specs():
        for n in (2, 3):
            want = next((Patch(n, n, {(i % n, i // n): c for i, c in enumerate(tab)})
                         for tab in product((1, 2), repeat=n * n)
                         if check_patch(t, Patch(n, n, {(i % n, i // n): c for i, c in enumerate(tab)}))[0]),
                        None)
            assert solve_bounded(t, n) == want, (t.describe(), n)
        assert solve_periodic(t, 3) == _least_periodic(t, 3), t.describe()


def test_periodic_oracle_returns_the_least_torus_table_on_three_tile_specs():
    # with three tiles a table that ignores a wrap-around pair can be the
    # first one found while a valid table of the same periods exists
    rng = random.Random(15)
    cells = list(product((1, 2, 3), repeat=2))
    for _ in range(60):
        t = TilingProblem(3, {c for c in cells if rng.random() < 0.4}, {c for c in cells if rng.random() < 0.4})
        assert solve_periodic(t, 3) == _least_periodic(t, 3), t.describe()


def test_bounded_oracle_deeper_than_the_recursion_limit():
    patch = solve_bounded(TilingProblem(1), 40)
    assert patch is not None and patch.is_total()
