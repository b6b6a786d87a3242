"""Command-line front end.

Exit codes: 0 = pass/found, 1 = fail/none, 2 = indeterminate, 3 = usage
error.  All outputs are written atomically; reports come in both a
human-readable text form and a JSON form next to it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .encoding import (
    EncodingScheme,
    compile_pure_class,
    complete_and_joint_embed_pure,
    vee,
    wedge,
)
from .harness import run_no_experiment, run_yes_experiment
from .hereditary import INDETERMINATE, PASS, MembershipError
from .jhp import augment, compile_jhp_class
from .matching import BudgetExceededError, SearchBudget
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
from .unary import (
    canonical_A,
    canonical_B,
    compile_unary_class,
    extract_tiling,
    joint_embed_unary,
    stage_palette,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INDET = 2
EXIT_USAGE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_spec(path):
    """The tiling spec at path; a malformed spec is a usage error."""
    try:
        return read_tiling(path)
    except (ValueError, IndexError) as exc:
        raise UsageError(f"bad tiling spec {path}: {exc}") from exc


def _compile(stage, problem):
    if stage == "unary":
        return compile_unary_class(problem)
    if stage == "pure":
        return compile_pure_class(problem)
    if stage == "jhp":
        return compile_jhp_class(problem)
    raise UsageError(f"unknown stage {stage!r}")


def _canonical(problem, model, depth, stage):
    g = canonical_A(depth, problem) if model == "A" else canonical_B(depth, problem)
    if stage == "unary":
        return g
    scheme = EncodingScheme(stage_palette(stage))
    if stage == "jhp":
        g = augment(g).graph
    return wedge(g, scheme)


def cmd_compile(args) -> int:
    problem = _read_spec(args.spec)
    cls = _compile(args.stage, problem)
    write_bundle(args.output, cls)
    if args.stage in ("pure", "jhp"):
        scheme = EncodingScheme(EncodingScheme(stage_palette(args.stage)).palette)
        atomic_write(Path(args.output) / "encoding.scheme", scheme_to_text(scheme))
    print(f"compiled {cls.name}: {len(cls.patterns)} patterns, {len(cls.rules)} semantic rules -> {args.output}")
    return EXIT_PASS


def cmd_canon(args) -> int:
    problem = _read_spec(args.spec)
    g = _canonical(problem, args.model, args.depth, args.stage)
    k = len(stage_palette(args.stage)) if args.stage == "unary" else 0
    write_graph(args.output, g, palette_size=k)
    print(f"wrote {g.name}: {len(g)} vertices, {len(g.edges)} edges -> {args.output}")
    return EXIT_PASS


def cmd_jointembed(args) -> int:
    problem = _read_spec(args.spec)
    theta = read_map(args.theta)
    a = read_graph(args.factor_a)
    b = read_graph(args.factor_b)
    if args.stage == "unary":
        cls = compile_unary_class(problem)
        joint = joint_embed_unary(a, b, theta, problem, cls)
    else:
        cls = _compile(args.stage, problem)
        joint = complete_and_joint_embed_pure(a, b, problem, theta, stage=args.stage, cls=cls)
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
    problem = _read_spec(args.spec)
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
    problem = _read_spec(args.spec)
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
    problem = _read_spec(args.spec)
    g = read_graph(args.graph)
    if args.stage != "unary":
        scheme = EncodingScheme(stage_palette(args.stage))
        g = vee(g, scheme)
    patch = extract_tiling(g, args.depth, problem)
    if args.output:
        write_map(args.output, patch)
    print(map_to_text(patch), end="")
    return EXIT_PASS if patch.cells else EXIT_FAIL


def build_parser() -> _Parser:
    p = _Parser(prog="tilejep", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("compile", help="tiling spec -> class bundle")
    c.add_argument("--stage", choices=("unary", "pure", "jhp"), default="unary")
    c.add_argument("spec")
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(fn=cmd_compile)

    c = sub.add_parser("canon", help="emit canonical/encoded truncations")
    c.add_argument("--model", choices=("A", "B"), required=True)
    c.add_argument("--depth", type=int, required=True)
    c.add_argument("--stage", choices=("unary", "pure", "jhp"), default="unary")
    c.add_argument("spec")
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(fn=cmd_canon)

    c = sub.add_parser("jointembed", help="run the stage procedure on two members")
    c.add_argument("--stage", choices=("unary", "pure", "jhp"), default="unary")
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
    s.add_argument("--n", type=int, required=True)
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
    c.add_argument("--stage", choices=("unary", "pure", "jhp"), default="unary")
    c.add_argument("--depth", type=int, required=True)
    c.add_argument("--theta", help="optional explicit tiling map (yes experiments)")
    c.add_argument("spec")
    c.add_argument("-o", "--output")
    c.set_defaults(fn=cmd_experiment)

    c = sub.add_parser("extract", help="tiling readout from a joint embedding")
    c.add_argument("--depth", type=int, required=True)
    c.add_argument("--stage", choices=("unary", "pure", "jhp"), default="unary")
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
