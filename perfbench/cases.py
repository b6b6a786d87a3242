"""Workloads, seeded inputs and the known-answer table of the tilejep benchmark.

Everything here runs inside a sample process (see ``sample.py``).  A
workload is a fixed list of cases; each case calls tilejep's public API the
way a user does and returns a record of its verdict, whether that verdict is
definite and computed (``decided``), whether it contradicts the known answer
(``wrong``), its wall time and the exact counts it produced.

Known answers are argued by hand from the tile rules, never taken from
tilejep's own oracles, and they do not change when the tiles are relabelled
or the lines of a graph file are shuffled, which is all the seed does.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from pathlib import Path

from tilejep import cli
from tilejep.core import ColoredGraph
from tilejep.harness import (
    FOUND,
    NONE,
    jep_witness_search,
    run_no_experiment,
    run_yes_experiment,
)
from tilejep.matching import SearchBudget
from tilejep.tiling import TilingProblem
from tilejep.unary import GRID, TILE, canonical_A, canonical_B, compile_unary_class, coordinates

# Specs as (tiles, hnot pairs, vnot pairs); "hnot l k" forbids k right of l,
# "vnot j i" forbids i above j.
SPECS = {
    "checker": (2, ((1, 1), (2, 2)), ((1, 1), (2, 2))),
    "h11": (1, ((1, 1),), ()),
    "three": (2, ((1, 1), (1, 2), (2, 2)), ()),
    "three-swapped": (2, ((2, 2), (2, 1), (1, 1)), ()),
}

# Hand-written reference verdicts, one argument each.
KNOWN_ANSWERS = {
    "checker": (
        "YES",
        "rows 1 2 1 2 ... alternating with rows 2 1 2 1 ... tile the plane: every "
        "horizontal and vertical neighbour pair differs and the rules only forbid equal pairs",
    ),
    "h11": (
        "NO at every depth >= 2",
        "tile 1 is the only tile and may not sit right of itself, so no 1x2 row exists",
    ),
    "three": (
        "NO at depth 3",
        "nothing may sit right of tile 1 and only tile 1 right of tile 2, so the longest "
        "row is 2 1 and no 3-wide row exists",
    ),
    "three-swapped": (
        "NO at depth 3",
        "three with tiles 1 and 2 swapped: relabelling changes no answer",
    ),
    "canonical-member": (
        "member",
        "the canonical model B_n of any spec is built to satisfy c1..c9 and, once "
        "wedged, the guards: only the joint embedding of A_n and B_n tracks tiling",
    ),
}

# Node budget of the witness search on *three* at depth 3.  The search runs
# out of it (about 4.7 s, or 3.6 s with the tiles swapped), so the case stays
# undecided; it must never report a witness.  Both tile orders run in every
# sample, so the seed's relabelling does not change which work is timed.
THREE_D3_BUDGET = 300_000
# Budget of the decided searches, large enough that they conclude.
SEARCH_BUDGET = 60_000_000

# case id -> (kind, spec, argument); ids are stable names for reports.
WORKLOADS = {
    "yes-unary": [
        ("yes/checker/unary/d4", "yes", "checker", ("unary", 4)),
        ("yes/checker/unary/d8", "yes", "checker", ("unary", 8)),
    ],
    "yes-encoded": [
        ("yes/checker/pure/d2", "yes", "checker", ("pure", 2)),
        ("yes/checker/jhp/d2", "yes", "checker", ("jhp", 2)),
    ],
    "no-refute": [
        ("no/h11/d2", "no", "h11", (2, SEARCH_BUDGET)),
        ("no/h11/d3", "no", "h11", (3, SEARCH_BUDGET)),
        ("no/three/d3", "no", "three", (3, THREE_D3_BUDGET)),
        ("no/three-swapped/d3", "no", "three-swapped", (3, THREE_D3_BUDGET)),
        ("search/checker/d3", "search", "checker", (3, SEARCH_BUDGET)),
    ],
    "cli-bundle": [
        ("cli/compile/unary", "cli", "three", ("compile", "--stage", "unary", "{spec}", "-o", "{tmp}/unary")),
        ("cli/canon/unary", "cli", "three", ("canon", "--model", "B", "--depth", "2", "{spec}", "-o", "{tmp}/B2.graph")),
        ("cli/check/unary", "cli", "three", ("check", "{tmp}/unary", "{tmp}/B2.graph")),
        ("cli/compile/pure", "cli", "three", ("compile", "--stage", "pure", "{spec}", "-o", "{tmp}/pure")),
        ("cli/canon/pure", "cli", "three", ("canon", "--model", "B", "--depth", "2", "--stage", "pure", "{spec}", "-o", "{tmp}/B2pure.graph")),
        ("cli/check/pure", "cli", "three", ("check", "{tmp}/pure", "{tmp}/B2pure.graph")),
    ],
}


def seeded_rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"tilejep-bench:{seed}:{purpose}")


def relabel(spec: str, seed: int) -> TilingProblem:
    """The spec with its tiles permuted by the seed; seed 0 is the identity.
    Specs with the same number of tiles get the same permutation, so
    *three* and *three-swapped* stay each other's mirror image."""
    tiles, h, v = SPECS[spec]
    labels = list(range(1, tiles + 1))
    if seed:
        seeded_rng(seed, f"tiles:{tiles}").shuffle(labels)
    m = dict(zip(range(1, tiles + 1), labels))
    return TilingProblem(
        tiles,
        frozenset((m[a], m[b]) for a, b in h),
        frozenset((m[a], m[b]) for a, b in v),
    )


def spec_text(problem: TilingProblem) -> str:
    lines = [f"tiles {problem.tiles}"]
    lines += [f"hnot {a} {b}" for a, b in sorted(problem.h_forbidden)]
    lines += [f"vnot {a} {b}" for a, b in sorted(problem.v_forbidden)]
    return "\n".join(lines) + "\n"


def shuffle_graph_file(path: Path, rng: random.Random) -> None:
    """Shuffle the v and e lines of a graph file, keeping its header first."""
    lines = [ln for ln in path.read_text().splitlines() if ln.strip() and not ln.startswith("#")]
    head, body = lines[0], lines[1:]
    rng.shuffle(body)
    path.write_text("\n".join([head] + body) + "\n")


def rules_respected(problem: TilingProblem, rows: list) -> bool:
    """Bench-side check that a window of tiles (rows, y = 0 first) obeys the rules."""
    for y, row in enumerate(rows):
        for x, t in enumerate(row):
            if t is None or not 1 <= t <= problem.tiles:
                return False
            if x and (row[x - 1], t) in problem.h_forbidden:
                return False
            if y and (rows[y - 1][x], t) in problem.v_forbidden:
                return False
    return True


def grid_tile_pairs(a: ColoredGraph, b: ColoredGraph) -> list:
    """The reduced cross-pair space of the NO experiment, built from public API:
    level-0 grid vertices of one factor against tile vertices of the other,
    row-major by the grid vertex's coordinates."""
    keyed = []
    for src, dst, flip in ((a, b, False), (b, a, True)):
        coords = coordinates(src)
        for x in src.vertices:
            if GRID[0] not in src.colors(x):
                continue
            cx = coords.get(x, (1 << 30, 1 << 30))
            for y in dst.vertices:
                if TILE in dst.colors(y):
                    p = (y, x) if flip else (x, y)
                    keyed.append(((cx[1], cx[0]), src.index(x), dst.index(y), p))
    keyed.sort(key=lambda t: t[:3])
    return [t[3] for t in keyed]


def search_concluded(paths: list) -> bool:
    """A NO case is decided only by a concluded witness search, not by the
    readout argument alone."""
    return any("witness-search" in str(p) for p in paths)


class Workload:
    """The seeded inputs of one workload, prepared before its first case."""

    def __init__(self, name: str, seed: int, tmp: Path):
        self.name = name
        self.seed = seed
        self.tmp = tmp
        self.cases = WORKLOADS[name]
        self.problems = {spec: relabel(spec, seed) for _, _, spec, _ in self.cases}
        self.spec_files = {}
        if any(kind == "cli" for _, kind, _, _ in self.cases):
            for spec, problem in self.problems.items():
                path = tmp / f"{spec}.spec"
                path.write_text(spec_text(problem))
                self.spec_files[spec] = path
        self.rng = seeded_rng(seed, f"graph-lines:{name}")

    def cli_argv(self, spec: str, arg: tuple) -> list:
        return [a.format(spec=self.spec_files[spec], tmp=self.tmp) for a in arg]

    def after_cli(self, argv: list) -> None:
        """Input preparation between cases (not timed): shuffle every graph
        file that ``canon`` wrote, before ``check`` reads it."""
        if argv[0] == "canon" and self.seed:
            shuffle_graph_file(Path(argv[-1]), self.rng)

    def run(self) -> list:
        out = []
        for cid, kind, spec, arg in self.cases:
            if kind == "cli":
                arg = self.cli_argv(spec, arg)
            t0 = time.perf_counter()
            try:
                rec = RUNNERS[kind](self.problems[spec], arg)
            except Exception as exc:  # a raising case counts as wrong
                rec = {"verdict": f"raised {type(exc).__name__}: {exc}", "decided": False, "wrong": True}
            rec["seconds"] = time.perf_counter() - t0
            rec["id"] = cid
            rec.setdefault("counts", {})
            out.append(rec)
            if kind == "cli":
                self.after_cli(arg)
        return out


def run_yes(problem: TilingProblem, arg: tuple) -> dict:
    stage, depth = arg
    rep = run_yes_experiment(problem, depth, stage)
    ok = rep.status == "success" and rep.roundtrip_ok and rules_respected(problem, rep.extracted)
    return {
        "verdict": rep.status,
        "decided": rep.status in ("success", "failure"),
        "wrong": rep.status == "failure" or (rep.status == "success" and not ok),
        "counts": {"joint_vertices": rep.joint.get("vertices", 0)},
    }


def run_no(problem: TilingProblem, arg: tuple) -> dict:
    depth, limit = arg
    budget = SearchBudget(limit)
    rep = run_no_experiment(problem, depth, budget=budget)
    decided = rep.status == "success" and search_concluded(rep.refutation_paths)
    if decided:
        verdict = "refuted"
    else:
        verdict = "readout-only" if rep.status == "success" else rep.status
    return {
        "verdict": verdict,
        "decided": decided,
        "wrong": rep.status == "failure",
        "counts": {"search_nodes": budget.used},
    }


def run_search(problem: TilingProblem, arg: tuple) -> dict:
    depth, limit = arg
    a, b = canonical_A(depth, problem), canonical_B(depth, problem)
    cls = compile_unary_class(problem)
    budget = SearchBudget(limit)
    res = jep_witness_search(
        a, b, cls, budget=budget, cross_pairs=grid_tile_pairs(a, b), identifications=False
    )
    return {
        "verdict": res.status,
        "decided": res.status in (FOUND, NONE),
        "wrong": res.status == NONE,
        "counts": {"search_nodes": budget.used, "explored": res.explored},
    }


def run_cli(problem: TilingProblem, argv: list) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return {
        "verdict": f"exit {code}",
        "decided": code in (cli.EXIT_PASS, cli.EXIT_FAIL),
        "wrong": code != cli.EXIT_PASS,
    }


RUNNERS = {"yes": run_yes, "no": run_no, "search": run_search, "cli": run_cli}

# The answer each kind of case is checked against, per the table above.
EXPECTS = {"yes": "YES", "search": "YES", "no": "NO", "cli": "member"}
for _cases in WORKLOADS.values():
    for _cid, _kind, _spec, _ in _cases:
        _answer = KNOWN_ANSWERS["canonical-member" if _kind == "cli" else _spec][0]
        if not _answer.startswith(EXPECTS[_kind]):
            raise ValueError(f"case {_cid} expects {EXPECTS[_kind]} but {_spec} is {_answer}")
