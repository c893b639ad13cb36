"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 perfbench/spread.py --workload canard --seeds 1-10 --seconds 10

Runs run.py once per seed (one after the other) and prints, per metric, the
median and the spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median.  BENCHMARK.json
fixes each metric's bound; a steady benchmark keeps spreads below a third of
it.  Raw results go to .bench_build/perfbench/spread-<workload>.json.
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


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in seed_list(args.seeds):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        elapsed = time.monotonic() - t0
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "elapsed_s": elapsed, **res})
        vals = {k: round(v["value"], 6) for k, v in res["metrics"].items()}
        print(f"seed {seed}: {elapsed:.1f}s correct={res['correct']} failed={res['failed']} {vals}",
              flush=True)

    report = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        s = spread(values) if len(values) >= 2 else 0.0
        report[name] = {"median": statistics.median(values), "spread": s, "bound": bounds.get(name)}
        bound = bounds.get(name)
        flag = "" if bound is None or s < bound / 3 else ("  > bound/3" if s <= bound else "  > bound")
        print(f"{name:18s} median {statistics.median(values):12.6g}  spread {s:7.4f}"
              f"  bound {bound}{flag}")
    out = ROOT / ".bench_build" / "perfbench" / f"spread-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "report": report}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
