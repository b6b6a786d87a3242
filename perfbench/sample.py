"""One benchmark sample, run in a fresh process by ``run.py``.

Modes:
  setup   import tilejep and prepare the seeded inputs, then stop;
  sample  one untraced pass over the workload's cases;
  trace   one traced replay of the cases (see ``traced.py``).

``--spawned`` is the parent's ``time.perf_counter()`` just before it started
this process; on Linux both read CLOCK_MONOTONIC, so the difference to the
first case is the set-up time: interpreter start, ``import tilejep`` and
input generation.  The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--mode", choices=("setup", "sample", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    import tilejep

    if src not in Path(tilejep.__file__).resolve().parents:
        raise SystemExit(f"tilejep was imported from {tilejep.__file__}, not from {src}")
    from cases import Workload

    work = Workload(args.workload, args.seed, Path(args.tmp))
    result = {"setup": time.perf_counter() - args.spawned}
    if args.mode == "sample":
        cases = work.run()
        result["cases"] = cases
        result["wall"] = sum(c["seconds"] for c in cases)
    elif args.mode == "trace":
        from traced import run_traced

        result.update(run_traced(work))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
