"""The traced run: per-module rows from spans around tilejep's public calls.

A traced sample replays each case of a workload by calling the public
functions in the order the drivers call them (oracle, canonical, compile,
wedge/augment, check A/B, procedure, check joint, vee, extract, search).
Each call is a span with a name, start, end, parent and case id; spans stay
in memory and are turned into rows when the replay ends.  A span's self
time is its duration minus the time its child spans cover.  No span lives
inside ``src/tilejep``: for the CLI cases, the functions ``tilejep.cli``
imported are wrapped in its namespace for the duration of the call.

After the replay, the rows that memoised values would blur are measured on
freshly rebuilt copies of the same hosts, each with an explicit
``SearchBudget`` so its node count can be read:

* ``matching.pattern_*.<fam>``: ``cls.subset(tags).check(h, use_rules=False)``;
* ``hereditary.rule_*.<r>``: a one-rule class checked with ``use_patterns=False``,
  after the memoised relations, profile and K4 witness it reads are primed;
* ``unary.derive_relations_s``, ``unary.coordinates_s``,
  ``encoding.neighborhood_profile_s`` and ``jhp.k4_scan_s``: the call alone.
"""

from __future__ import annotations

import contextlib
import io
import time
from pathlib import Path

from tilejep import cli
from tilejep.core import ColoredGraph, disjoint_union
from tilejep.encoding import (
    EncodingScheme,
    complete_and_joint_embed_pure,
    compile_colored_class,
    compile_pure_class,
    neighborhood_profile,
    vee,
    wedge,
)
from tilejep.harness import FOUND, NONE, jep_witness_search
from tilejep.hereditary import FAIL, PASS, HereditaryClass
from tilejep.jhp import augment, compile_jhp_class, contains_k4
from tilejep.matching import SearchBudget
from tilejep.tiling import solve_bounded, solve_periodic
from tilejep.unary import (
    canonical_A,
    canonical_B,
    compile_unary_class,
    coordinates,
    derive_relations,
    extract_tiling,
    joint_embed_unary,
    stage_palette,
)

from cases import Workload, grid_tile_pairs, rules_respected

CHECK_BUDGET = 80_000_000  # the default limit of HereditaryClass.check
ORACLE_BUDGET = 20_000_000  # the limit the NO driver gives the bounded oracle
FULL_SEARCH_CAP = 24  # the NO driver's threshold for searching the full space

FAMILIES = ("c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9",
            "grid-edge", "wheel-shape", "H1", "H2", "wedged", "K4")
RULES = ("c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9",
         "grid-edge", "guards", "pure-membership", "no-proper-image")
RULE_ROW = {"w:*": "pure-membership", "wheel-image": "no-proper-image"}

# Every per-layer metric with its unit, in report order.
PER_LAYER = (
    [(f"matching.pattern_s.{f}", "s") for f in FAMILIES]
    + [(f"matching.pattern_nodes.{f}", "count") for f in FAMILIES]
    + [("matching.nodes_per_s", "1/s"), ("hereditary.check_s", "s"), ("hereditary.checks", "count")]
    + [(f"hereditary.rule_s.{r}", "s") for r in RULES]
    + [(f"hereditary.rule_nodes.{r}", "count") for r in RULES]
    + [("unary.compile_s", "s"), ("unary.patterns", "count"), ("unary.canonical_s", "s"),
       ("unary.derive_relations_s", "s"), ("unary.coordinates_s", "s"),
       ("unary.joint_embed_s", "s"), ("unary.extract_s", "s")]
    + [("encoding.compile_s", "s"), ("encoding.patterns", "count"),
       ("encoding.forbidden_pairs", "count"), ("encoding.wedge_s", "s"), ("encoding.vee_s", "s"),
       ("encoding.neighborhood_profile_s", "s"), ("encoding.procedure_s", "s"),
       ("encoding.host_vertices", "count")]
    + [("jhp.compile_s", "s"), ("jhp.augment_s", "s"), ("jhp.augment_vertices", "count"),
       ("jhp.k4_scan_s", "s"), ("jhp.joint_vertices", "count")]
    + [("harness.search_s", "s"), ("harness.search_nodes", "count"),
       ("harness.explored", "count"), ("harness.nodes_per_s", "1/s")]
    + [("tiling.oracle_s", "s"), ("tiling.oracle_nodes", "count")]
    + [("textio.write_bundle_s", "s"), ("textio.read_bundle_s", "s"),
       ("textio.bundle_files", "count"), ("textio.bundle_bytes", "B"), ("textio.graph_io_s", "s")]
    + [("cli.compile_s", "s"), ("cli.canon_s", "s"), ("cli.check_s", "s")]
)
# Counts that describe a size rather than work: reported as the largest seen.
SIZE_COUNTS = {"unary.patterns", "encoding.patterns", "encoding.forbidden_pairs"}


def time_metric(span_name: str) -> str:
    """``matching.pattern.c7`` -> ``matching.pattern_s.c7``; ``unary.compile`` -> ``unary.compile_s``."""
    layer, op, *fam = span_name.split(".", 2)
    return ".".join([layer, op + "_s", *fam])


class Tracer:
    """In-memory spans: name, case, parent index, start and end."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.case = ""

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        rec = {"name": name, "case": self.case, "parent": self.stack[-1] if self.stack else None,
               "counts": counts, "t0": time.perf_counter(), "t1": None}
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec["counts"]
        finally:
            rec["t1"] = time.perf_counter()
            self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i]["name"] == name for i in self.stack)

    def rows(self) -> dict:
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["t1"] - s["t0"]
        out = {name: 0 for name, _ in PER_LAYER}
        for i, s in enumerate(self.spans):
            if s["name"] == "case":
                continue
            out[time_metric(s["name"])] += (s["t1"] - s["t0"]) - child_time[i]
            if s["name"] == "hereditary.check":
                out["hereditary.checks"] += 1
            for key, n in s["counts"].items():
                out[key] = max(out[key], n) if key in SIZE_COUNTS else out[key] + n
        pattern_s = sum(out[f"matching.pattern_s.{f}"] for f in FAMILIES)
        pattern_nodes = sum(out[f"matching.pattern_nodes.{f}"] for f in FAMILIES)
        out["matching.nodes_per_s"] = pattern_nodes / pattern_s if pattern_s else 0.0
        s = out["harness.search_s"]
        out["harness.nodes_per_s"] = out["harness.search_nodes"] / s if s else 0.0
        return out

    def wall(self) -> float:
        return sum(s["t1"] - s["t0"] for s in self.spans if s["name"] == "case")


def fresh(g: ColoredGraph) -> ColoredGraph:
    """A copy of g with none of the values tilejep memoises on graph objects."""
    return ColoredGraph(g.vertices, g.edges, g.color_map, name=g.name)


def family_of(tag: str) -> str:
    return "wedged" if tag.startswith("w:") else tag


# --------------------------------------------------------------------------
# rows measured on rebuilt hosts
# --------------------------------------------------------------------------


def prime(cls: HereditaryClass, h: ColoredGraph) -> None:
    """Fill the memos the class's rules read, so rule rows exclude them."""
    stage = cls.meta.get("stage", "")
    if stage.startswith(("unary", "colored")):
        derive_relations(h, cls.meta["tiles"])
    else:
        neighborhood_profile(h)
    if stage == "jhp":
        contains_k4(h)


def class_rows(tr: Tracer, cls: HereditaryClass, hosts: list) -> None:
    families: dict = {}
    for p in cls.patterns:
        families.setdefault(family_of(p.constraint), set()).add(p.constraint)
    groups: dict = {}
    for r in cls.rules:
        groups.setdefault(RULE_ROW.get(r.constraint, r.constraint), []).append(r)
    for h in hosts:
        for fam, tags in families.items():
            sub, host, budget = cls.subset(tags), fresh(h), SearchBudget(CHECK_BUDGET)
            with tr.span(f"matching.pattern.{fam}") as c:
                sub.check(host, budget=budget, use_rules=False)
                c[f"matching.pattern_nodes.{fam}"] = budget.used
        for row, rules in groups.items():
            one = HereditaryClass(f"{cls.name}|{row}", cls.palette, (), tuple(rules), dict(cls.meta))
            host, budget = fresh(h), SearchBudget(CHECK_BUDGET)
            prime(cls, host)
            with tr.span(f"hereditary.rule.{row}") as c:
                one.check(host, budget=budget, use_patterns=False)
                c[f"hereditary.rule_nodes.{row}"] = budget.used


def relation_rows(tr: Tracer, tiles: int, hosts: list) -> None:
    for h in hosts:
        host = fresh(h)
        with tr.span("unary.derive_relations"):
            derive_relations(host, tiles)
        host = fresh(h)
        derive_relations(host, 1)
        with tr.span("unary.coordinates"):
            coordinates(host)


def encoded_rows(tr: Tracer, hosts: list, k4: bool) -> None:
    for h in hosts:
        host = fresh(h)
        with tr.span("encoding.neighborhood_profile"):
            neighborhood_profile(host)
        if k4:
            host = fresh(h)
            with tr.span("jhp.k4_scan"):
                contains_k4(host)


# --------------------------------------------------------------------------
# replays
# --------------------------------------------------------------------------


COMPILERS = {
    "unary": (compile_unary_class, "unary"),
    "pure": (compile_pure_class, "encoding"),
    "jhp": (compile_jhp_class, "jhp"),
}


def class_counts(cls: HereditaryClass) -> dict:
    """The size rows of a compiled unary or pure class."""
    stage = cls.meta.get("stage")
    if stage == "unary":
        return {"unary.patterns": len(cls.patterns)}
    if stage == "pure":
        return {"encoding.patterns": len(cls.patterns),
                "encoding.forbidden_pairs": sum(len(p.forbidden) for p in cls.patterns)}
    return {}


def checked(tr: Tracer, cls: HereditaryClass, g: ColoredGraph, **counts) -> str:
    with tr.span("hereditary.check", **counts):
        return cls.check(g, budget=SearchBudget(CHECK_BUDGET)).status


def replay_yes(tr: Tracer, problem, stage: str, n: int) -> tuple:
    """run_yes_experiment, step by step; returns the verdict, the counts the
    untraced case also reports, and the hosts for the rebuilt-host rows."""
    budget = SearchBudget()
    with tr.span("tiling.oracle") as c:
        theta = solve_periodic(problem, 4, budget)
        c["tiling.oracle_nodes"] = budget.used
    if theta is None:
        return "indeterminate", {}, None
    with tr.span("unary.canonical"):
        a, b = canonical_A(n, problem), canonical_B(n, problem)
    scheme = None if stage == "unary" else EncodingScheme(stage_palette(stage))
    compile_fn, layer = COMPILERS[stage]
    with tr.span(f"{layer}.compile") as c:
        cls = compile_fn(problem)
        c.update(class_counts(cls))
    if stage == "jhp":
        with tr.span("jhp.augment") as c:
            a, b = augment(a).graph, augment(b).graph
            c["jhp.augment_vertices"] = len(a) + len(b)
    if scheme is not None:
        with tr.span("encoding.wedge"):
            a, b = wedge(a, scheme), wedge(b, scheme)
    statuses = [
        checked(tr, cls, g, **({"encoding.host_vertices": len(g)} if scheme else {})) for g in (a, b)
    ]
    if any(s != PASS for s in statuses):
        return "failure" if FAIL in statuses else "indeterminate", {}, None
    if stage == "unary":
        with tr.span("unary.joint_embed"):
            joint = joint_embed_unary(a, b, theta, problem, cls, check=False)
    else:
        with tr.span("encoding.procedure"):
            joint = complete_and_joint_embed_pure(a, b, problem, theta, stage=stage, cls=cls, check=False)
    counts = {}
    if scheme is not None:
        counts["encoding.host_vertices"] = len(joint)
    if stage == "jhp":
        counts["jhp.joint_vertices"] = len(joint)
    status = checked(tr, cls, joint, **counts)
    if status != PASS:
        return "failure" if status == FAIL else "indeterminate", {}, None
    shadow = joint
    if scheme is not None:
        with tr.span("encoding.vee"):
            shadow = vee(joint, scheme)
    with tr.span("unary.extract"):
        patch = extract_tiling(shadow, n, problem)
    rows = [[patch.tile_at(x, y) for x in range(n)] for y in range(n)]
    exact = rows == [[theta.tile_at(x, y) for x in range(n)] for y in range(n)]
    verdict = "success" if exact and rules_respected(problem, rows) else "failure"
    return verdict, {"joint_vertices": len(joint)}, (cls, [a, b, joint], scheme)


def replay_search(tr: Tracer, problem, n: int, limit: int, kind: str) -> tuple:
    """run_no_experiment (kind "no") or the direct reduced search (kind
    "search"); returns like ``replay_yes``.  Only the direct search is the
    same call as its untraced case, so only it reports comparable counts."""
    if kind == "no":
        with tr.span("tiling.oracle") as c:
            budget = SearchBudget(ORACLE_BUDGET)
            patch = solve_bounded(problem, n, budget)
            c["tiling.oracle_nodes"] = budget.used
        if patch is not None:
            return "failure", {}, None
    with tr.span("unary.canonical"):
        a, b = canonical_A(n, problem), canonical_B(n, problem)
    with tr.span("unary.compile") as c:
        cls = compile_unary_class(problem)
        c.update(class_counts(cls))
    if kind == "no":
        for g in (a, b):
            checked(tr, cls, g)
    budget = SearchBudget(limit)
    with tr.span("harness.search") as c:
        if kind == "no" and len(a) + len(b) <= FULL_SEARCH_CAP:
            res = jep_witness_search(a, b, cls, budget=budget)
        else:
            pairs = grid_tile_pairs(a, b)
            res = jep_witness_search(a, b, cls, budget=budget, cross_pairs=pairs, identifications=False)
        c["harness.search_nodes"] = budget.used
        c["harness.explored"] = res.explored
    hosts = (cls, [a, b], disjoint_union(a, b)[0])
    if kind == "search":
        return res.status, {"search_nodes": budget.used, "explored": res.explored}, hosts
    # an inconclusive search leaves the NO driver on the readout argument
    return {NONE: "refuted", FOUND: "failure"}.get(res.status, "readout-only"), {}, hosts


CLI_WRAPS = {
    "write_bundle": "textio.write_bundle",
    "read_bundle": "textio.read_bundle",
    "read_graph": "textio.graph_io",
    "write_graph": "textio.graph_io",
    "compile_unary_class": "unary.compile",
    "compile_pure_class": "encoding.compile",
    "canonical_A": "unary.canonical",
    "canonical_B": "unary.canonical",
    "wedge": "encoding.wedge",
}


@contextlib.contextmanager
def wrapped_cli(tr: Tracer, seen: list):
    """Spans around the calls tilejep.cli makes into the other modules, and
    around each top-level class check; ``seen`` collects (class, host)."""
    saved = {name: getattr(cli, name) for name in CLI_WRAPS}
    plain_check = HereditaryClass.check

    def wrap(name, fn):
        def call(*args, **kwargs):
            with tr.span(CLI_WRAPS[name]) as c:
                out = fn(*args, **kwargs)
                if isinstance(out, HereditaryClass):
                    c.update(class_counts(out))
                return out
        return call

    def check(self, g, *args, **kwargs):
        if tr.inside("hereditary.check"):
            return plain_check(self, g, *args, **kwargs)
        seen.append((self, g))
        counts = {"encoding.host_vertices": len(g)} if self.meta.get("stage") == "pure" else {}
        with tr.span("hereditary.check", **counts):
            return plain_check(self, g, *args, **kwargs)

    try:
        for name, fn in saved.items():
            setattr(cli, name, wrap(name, fn))
        HereditaryClass.check = check
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)
        HereditaryClass.check = plain_check


def replay_cli(tr: Tracer, work: Workload, spec: str, arg: tuple, seen: list) -> str:
    argv = work.cli_argv(spec, arg)
    with wrapped_cli(tr, seen), tr.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    work.after_cli(argv)
    return f"exit {code}"


def bundle_counts(tmp: Path) -> dict:
    files = [p for d in ("unary", "pure") for p in (tmp / d).iterdir() if p.is_file()]
    return {"textio.bundle_files": len(files), "textio.bundle_bytes": sum(p.stat().st_size for p in files)}


def run_traced(work: Workload) -> dict:
    """Replay every case under spans, then measure the rebuilt-host rows.
    Returns the per-case verdicts and counts, the rows as (name, value,
    unit) and the traced wall (the replay alone, without the rebuilt-host
    rows); ``run.py`` adds ``trace.wall_s`` and ``trace.overhead_s``."""
    tr = Tracer()
    cases = {}
    row_jobs = []
    seen: list = []
    for cid, kind, spec, arg in work.cases:
        problem = work.problems[spec]
        tr.case = cid
        with tr.span("case"):
            if kind == "yes":
                verdict, counts, hosts = replay_yes(tr, problem, *arg)
            elif kind == "cli":
                verdict, counts, hosts = replay_cli(tr, work, spec, arg, seen), {}, None
            else:
                verdict, counts, hosts = replay_search(tr, problem, arg[0], arg[1], kind)
        cases[cid] = {"verdict": verdict, "counts": counts}
        if hosts is not None:
            row_jobs.append((cid, kind, problem, hosts))
    wall = tr.wall()
    for cid, kind, problem, hosts in row_jobs:
        tr.case = cid
        if kind == "yes":
            cls, graphs, scheme = hosts
            if scheme is None:
                class_rows(tr, cls, graphs)
                relation_rows(tr, problem.tiles, graphs)
            else:
                stage = cls.meta["stage"]
                class_rows(tr, cls, graphs)
                encoded_rows(tr, graphs, k4=stage == "jhp")
                shadows = [vee(g, scheme) for g in graphs]
                class_rows(tr, compile_colored_class(problem, stage), shadows)
                relation_rows(tr, problem.tiles, shadows)
        else:
            cls, factors, union = hosts
            class_rows(tr, cls, factors)
            relation_rows(tr, problem.tiles, factors + [union])
    for cls, g in seen:
        tr.case = "cli"
        class_rows(tr, cls, [g])
        if cls.meta.get("stage") == "unary":
            relation_rows(tr, cls.meta["tiles"], [g])
        else:
            encoded_rows(tr, [g], k4=False)
    rows = tr.rows()
    if any(kind == "cli" for _, kind, _, _ in work.cases):
        rows.update(bundle_counts(work.tmp))
    return {"cases": cases, "rows": [(name, rows[name], unit) for name, unit in PER_LAYER], "wall": wall}

