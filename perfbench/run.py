"""tilejep benchmark driver (stdlib only).

    python3 perfbench/run.py --workload yes-unary --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 1      # every workload, one table

Each sample runs in a fresh process and a fresh temporary directory under
``.perfbench_work/`` in the checkout, one at a time, with ``PYTHONHASHSEED``
set to the seed: budget node counts depend on set iteration order, so the
hash seed is part of the seeded input.  A run first starts a
few set-up probes, then takes untraced samples until the next one would end
after ``--seconds`` (at least one), and with ``--trace 1`` one traced
sample after them.  Every verdict is checked against the known-answer table
in ``cases.py``; the exact counts of a case must repeat across samples, and
the traced replay must reach the untraced verdicts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer rows with ``--trace 1``.  The exit
code is 0 when every check held, 1 when one failed, 2 when the benchmark
could not run (for example, no ``src/tilejep`` in the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
WORKLOADS = ("yes-unary", "yes-encoded", "no-refute", "cli-bundle")
SETUP_PROBES = 10
DEADLINE_S = 170  # one run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def spawn(workload: str, seed: int, mode: str, deadline: float) -> tuple:
    """Run one sample process in a fresh temp dir; returns (result, seconds)."""
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        out = tmp / "result.json"
        t0 = time.perf_counter()
        cmd = [sys.executable, str(HERE / "sample.py"), "--root", str(ROOT), "--workload", workload,
               "--seed", str(seed), "--tmp", str(tmp), "--mode", mode, "--spawned", repr(t0),
               "--out", str(out)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=max(1.0, deadline - t0),
                                  env=dict(os.environ, TMPDIR=str(tmp), PYTHONHASHSEED=str(seed % 2**32)))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} sample of {workload} ran past the run's deadline")
        if proc.returncode != 0:
            raise BenchError(f"{mode} sample of {workload} exited with code {proc.returncode}")
        return json.loads(out.read_text()), time.perf_counter() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_samples(samples: list, problems: list) -> None:
    """Every case must reach the same verdict and counts in every sample."""
    first = {c["id"]: c for c in samples[0]["cases"]}
    for s in samples[1:]:
        for c in s["cases"]:
            ref = first[c["id"]]
            if (c["verdict"], c["counts"]) != (ref["verdict"], ref["counts"]):
                problems.append(f"{c['id']}: {c['verdict']} {c['counts']} differs from "
                                f"{ref['verdict']} {ref['counts']} in another sample")


def check_trace(traced: dict, sample: dict, problems: list) -> None:
    """The traced replay must reach the untraced verdicts; counts that both
    report come from the same public call and must be equal."""
    for c in sample["cases"]:
        t = traced["cases"][c["id"]]
        if t["verdict"] != c["verdict"]:
            problems.append(f"{c['id']}: traced verdict {t['verdict']} != untraced {c['verdict']}")
        for key, n in t["counts"].items():
            if c["counts"].get(key) != n:
                problems.append(f"{c['id']}: traced {key}={n} != untraced {c['counts'].get(key)}")


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    setups = [spawn(workload, seed, "setup", deadline)[0]["setup"] for _ in range(SETUP_PROBES)]
    samples, durations = [], []
    t_start = time.perf_counter()
    while not samples or time.perf_counter() - t_start + max(durations) <= seconds:
        result, took = spawn(workload, seed, "sample", deadline)
        samples.append(result)
        durations.append(took)
    problems: list = []
    check_samples(samples, problems)
    cases = [c for s in samples for c in s["cases"]]
    wrong = [c for c in cases if c["wrong"]]
    problems += [f"{c['id']}: verdict {c['verdict']} contradicts the known answer" for c in wrong]
    wall = statistics.median(s["wall"] for s in samples)
    per_sample = len(samples[0]["cases"])
    res = {
        "workload": workload,
        "samples": len(samples),
        "cases": samples[0]["cases"],
        "attempted": len(cases),
        "failed": len(wrong),
        "wrong_frac": len(wrong) / len(cases),
        "end_to_end": {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setups + [s["setup"] for s in samples]), "s"),
            "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MiB"),
            "decided_frac": (statistics.median(
                sum(c["decided"] for c in s["cases"]) / per_sample for s in samples), "ratio"),
        },
    }
    if trace:
        traced = spawn(workload, seed, "trace", deadline)[0]
        check_trace(traced, samples[0], problems)
        rows = {name: (value, unit) for name, value, unit in traced["rows"]}
        rows["trace.wall_s"] = (traced["wall"], "s")
        rows["trace.overhead_s"] = (traced["wall"] - wall, "s")
        res["per_layer"] = rows
    res["problems"] = problems
    return res


def report(res: dict, trace: bool) -> None:
    w = res["workload"]
    for c in res["cases"]:
        print(f"{w}  case {c['id']}: {c['verdict']} ({'decided' if c['decided'] else 'undecided'}"
              f"{', WRONG' if c['wrong'] else ''})  {c['seconds']:.3f} s  {c['counts']}")
    for name, (value, unit) in res["end_to_end"].items():
        n = res["samples"] + (SETUP_PROBES if name == "setup_s" else 0)
        print(f"{w}  {name} = {value:.6g} {unit}  (median of {n} processes)")
    print(f"{w}  wrong_frac = {res['wrong_frac']:.6g} ratio  ({res['failed']} of {res['attempted']} cases)")
    if trace:
        for name, (value, unit) in res["per_layer"].items():
            print(f"{w}  {name} = {value:.6g} {unit}")
    for p in res["problems"]:
        print(f"{w}  PROBLEM: {p}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0, help="0 keeps the specs as written")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "tilejep" / "__init__.py").is_file():
        print(f"no tilejep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    for res in results:
        report(res, bool(args.trace))
    key = "per_layer" if args.trace else "end_to_end"
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": unit}
        for r in results for name, (value, unit) in r[key].items()
    }
    ok = not any(r["problems"] for r in results)
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
