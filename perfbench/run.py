"""bcdcert benchmark: certified solves, oracle traffic and the run/report/check CLI.

    python3 perfbench/run.py --workload {solve_small,solve_mf,cli_audit} --seed N
                             --seconds S --trace {0,1} [--tiny]

Run from the root of a source checkout; the program is taken from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the workload, the environment and any errors. See README.md.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools stay at one thread, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("solve_small", "solve_mf", "cli_audit")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest instances; for the smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "bcdcert" / "cli.py").is_file():
        print(f"error: no bcdcert sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    work = HERE / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = bench.Tally()
    b = bench.Bench(args.workload, args.seed, args.tiny, work, tally)
    if args.trace:
        metrics, info = bench.run_traced(b, args.seconds, args.tiny)
    else:
        metrics, info = bench.run_untraced(b, args.seconds, args.tiny)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **info,
            "env": bench.environment(), "errors": tally.errors}
    (work / "result.json").write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
