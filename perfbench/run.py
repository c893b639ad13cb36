"""Benchmark of the fhn toolkit: one seeded workload per run, outputs checked.

    python3 perfbench/run.py --workload trajectories --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; fhn is imported from its src/ directory.
Set-up time is the median over several fresh interpreters that import fhn
and pay its lazy set-up; the workload itself runs in one more such process.
With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced pass.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("trajectories", "diagram", "canard", "requests")
SETUP_PROBES = 6  # set-up samples besides the workload process itself
TIME_LIMIT_S = 170.0


def _spawn(args: list[str], deadline: float) -> dict:
    now = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--t0", repr(now)] + args
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - now, 0.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fhn" / "__init__.py").is_file():
        print(f"error: no fhn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        probes = [_spawn(["--probe"], deadline) for _ in range(SETUP_PROBES)]
        res = _spawn(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    probes.append(res)
    setups = [p["setup_s"] for p in probes]

    metrics = res["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    details = {k: res[k] for k in ("notes", "passes", "latency", "raw_wall_s", "spans", "failures")
               if k in res}
    details["setup_samples_s"] = setups
    details["raw_setup_samples_s"] = [p["raw_setup_s"] for p in probes]
    details["error_rate"] = res["failed"] / res["attempted"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "details": details}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
