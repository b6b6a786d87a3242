"""Command-line front end.

Exit codes: 0 = pass/found, 1 = fail/none, 2 = indeterminate, 3 = usage
error.  All outputs are written atomically; reports come in both a
human-readable text form and a JSON form next to it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import run_no_experiment, run_yes_experiment
from .hereditary import INDETERMINATE, PASS, MembershipError
from .matching import BudgetExceededError, SearchBudget
from .stages import STAGES
from .textio import (
    FormatError,
    atomic_write,
    map_to_text,
    read_graph,
    read_map,
    read_tiling,
    read_bundle,
    scheme_to_text,
    write_bundle,
    write_graph,
    write_map,
)
from .tiling import solve_bounded, solve_periodic
from .unary import canonical_A, canonical_B, extract_tiling

# Not called here since every stage goes through STAGES; kept as attributes
# of this module because the traced benchmark replay looks them up by name.
from .encoding import compile_pure_class, wedge  # noqa: F401
from .unary import compile_unary_class  # noqa: F401

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INDET = 2
EXIT_USAGE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive(text: str) -> int:
    """Argument type: an integer of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def cmd_compile(args) -> int:
    stage = STAGES[args.stage]
    cls = stage.compile(read_tiling(args.spec))
    write_bundle(args.output, cls)
    if stage.scheme is not None:
        atomic_write(Path(args.output) / "encoding.scheme", scheme_to_text(stage.scheme))
    print(f"compiled {cls.name}: {len(cls.patterns)} patterns, {len(cls.rules)} semantic rules -> {args.output}")
    return EXIT_PASS


def cmd_canon(args) -> int:
    problem = read_tiling(args.spec)
    stage = STAGES[args.stage]
    g = stage.encode((canonical_A if args.model == "A" else canonical_B)(args.depth, problem))
    # encoded graphs are plain: their language has no colors
    write_graph(args.output, g, palette_size=0 if stage.scheme else len(stage.palette))
    print(f"wrote {g.name}: {len(g)} vertices, {len(g.edges)} edges -> {args.output}")
    return EXIT_PASS


def cmd_jointembed(args) -> int:
    problem = read_tiling(args.spec)
    theta = read_map(args.theta)
    a = read_graph(args.factor_a)
    b = read_graph(args.factor_b)
    stage = STAGES[args.stage]
    joint = stage.join(a, b, problem, theta, stage.compile(problem), check=True)
    write_graph(args.output, joint)
    print(f"wrote joint embedding: {len(joint)} vertices, {len(joint.edges)} edges -> {args.output}")
    return EXIT_PASS


def cmd_check(args) -> int:
    cls = read_bundle(args.bundle)
    g = read_graph(args.graph)
    report = cls.check(g)
    print(report.summary())
    if report.status == PASS:
        return EXIT_PASS
    if report.status == INDETERMINATE:
        return EXIT_INDET
    return EXIT_FAIL


def cmd_tiling(args) -> int:
    problem = read_tiling(args.spec)
    try:
        if args.mode == "solve":
            result = solve_bounded(problem, args.n, SearchBudget(args.budget))
        else:
            result = solve_periodic(problem, args.max_period, SearchBudget(args.budget))
    except BudgetExceededError as exc:
        print(f"indeterminate: {exc}")
        return EXIT_INDET
    if result is None:
        print("none")
        return EXIT_FAIL
    if args.output:
        write_map(args.output, result)
    print(map_to_text(result), end="")
    return EXIT_PASS


def cmd_experiment(args) -> int:
    problem = read_tiling(args.spec)
    theta = read_map(args.theta) if args.theta else None
    if args.kind == "yes":
        rep = run_yes_experiment(problem, args.depth, args.stage, theta=theta)
    elif args.stage != "unary":
        raise UsageError(f"experiment no supports only --stage unary, not {args.stage!r}")
    else:
        rep = run_no_experiment(problem, args.depth)
    print(rep.to_text(), end="")
    if args.output:
        atomic_write(args.output, rep.to_text())
        atomic_write(str(args.output) + ".json", rep.to_json() + "\n")
    if rep.status == "success":
        return EXIT_PASS
    if rep.status == "failure":
        return EXIT_FAIL
    return EXIT_INDET


def cmd_extract(args) -> int:
    problem = read_tiling(args.spec)
    g = STAGES[args.stage].decode(read_graph(args.graph))
    patch = extract_tiling(g, args.depth, problem)
    if args.output:
        write_map(args.output, patch)
    print(map_to_text(patch), end="")
    return EXIT_PASS if patch.cells else EXIT_FAIL


def build_parser() -> _Parser:
    p = _Parser(prog="tilejep", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("compile", help="tiling spec -> class bundle")
    c.add_argument("--stage", choices=tuple(STAGES), default="unary")
    c.add_argument("spec")
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(fn=cmd_compile)

    c = sub.add_parser("canon", help="emit canonical/encoded truncations")
    c.add_argument("--model", choices=("A", "B"), required=True)
    c.add_argument("--depth", type=_positive, required=True)
    c.add_argument("--stage", choices=tuple(STAGES), default="unary")
    c.add_argument("spec")
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(fn=cmd_canon)

    c = sub.add_parser("jointembed", help="run the stage procedure on two members")
    c.add_argument("--stage", choices=tuple(STAGES), default="unary")
    c.add_argument("--theta", required=True, help="tiling map file")
    c.add_argument("spec")
    c.add_argument("factor_a")
    c.add_argument("factor_b")
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(fn=cmd_jointembed)

    c = sub.add_parser("check", help="membership + violation report")
    c.add_argument("bundle")
    c.add_argument("graph")
    c.set_defaults(fn=cmd_check)

    c = sub.add_parser("tiling", help="solvability oracles")
    csub = c.add_subparsers(dest="mode", required=True)
    s = csub.add_parser("solve", help="bounded n x n search (definitive none)")
    s.add_argument("--n", type=_positive, required=True)
    s.add_argument("--budget", type=int, default=20_000_000)
    s.add_argument("spec")
    s.add_argument("-o", "--output")
    s.set_defaults(fn=cmd_tiling, mode="solve")
    s = csub.add_parser("periodic", help="torus search (certifies YES)")
    s.add_argument("--max-period", type=int, default=4)
    s.add_argument("--budget", type=int, default=20_000_000)
    s.add_argument("spec")
    s.add_argument("-o", "--output")
    s.set_defaults(fn=cmd_tiling, mode="periodic")

    c = sub.add_parser("experiment", help="end-to-end YES/NO drivers")
    c.add_argument("kind", choices=("yes", "no"))
    c.add_argument("--stage", choices=tuple(STAGES), default="unary")
    c.add_argument("--depth", type=_positive, required=True)
    c.add_argument("--theta", help="optional explicit tiling map (yes experiments)")
    c.add_argument("spec")
    c.add_argument("-o", "--output")
    c.set_defaults(fn=cmd_experiment)

    c = sub.add_parser("extract", help="tiling readout from a joint embedding")
    c.add_argument("--depth", type=_positive, required=True)
    c.add_argument("--stage", choices=tuple(STAGES), default="unary")
    c.add_argument("spec")
    c.add_argument("graph")
    c.add_argument("-o", "--output")
    c.set_defaults(fn=cmd_extract)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (UsageError, FileNotFoundError, FormatError, MembershipError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
