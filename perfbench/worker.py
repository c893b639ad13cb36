"""One benchmark process: set up fhn, run one workload, print its measurements.

run.py starts this file in a fresh interpreter, so import cost and lazy
set-up are paid here and measured as set-up time, never inside `wall_s`.
`--probe` stops after set-up; run.py uses probes for more set-up samples.
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

from tracing import REQUEST, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]


def set_up() -> None:
    """Import fhn from this checkout and pay the lazy set-up of first calls."""
    sys.path.insert(0, str(SRC))
    import fhn

    if Path(fhn.__file__).resolve().parent != (SRC / "fhn").resolve():
        raise SystemExit(f"fhn imported from {fhn.__file__}, not from {SRC}")
    import numpy as np

    from fhn import bifurcation, canard, cli, dynamics, singular, slow_manifold  # noqa: F401
    from fhn.core import SystemParams

    # classify_canard builds its middle-branch KD-tree on first use
    th = np.linspace(0.0, 2.0 * math.pi, 64)
    circle = dynamics.LimitCycle(th, np.cos(th), np.sin(th), 2.0 * math.pi, 2.0 * math.pi,
                                 dynamics.Stability.STABLE, True, 0.0, 1, 0.0)
    canard.classify_canard(circle)
    singular.relaxation_period(SystemParams(0.0, 0.0, 0.0))


def run_pass(requests, tracer=None):
    """Send each request after the previous one returned (closed loop, one client)."""
    clock = time.perf_counter
    latencies, outputs = [], []
    t0 = clock()
    for rid, req in enumerate(requests):
        s = clock()
        try:
            out = req.call() if tracer is None else tracer.request(rid, req.call)
        except Exception as exc:  # a raising request counts as failed, the run goes on
            out = exc
        latencies.append(clock() - s)
        outputs.append(out)
    return clock() - t0, latencies, outputs


def latency_summary(per_request: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it.

    Below 20 samples that percentile would sit under the median, so the tail
    is the maximum there.
    """
    xs = sorted(per_request)
    n = len(xs)
    if n >= 20:
        tail, pct = xs[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = xs[-1], 100.0
    return {"p50": statistics.median(xs), "tail": tail, "tail_percentile": pct, "samples": n}


# The CPU of a shared host runs the same code up to twice as slowly in
# phases that last from seconds to minutes, longer than a run.  Timings are
# therefore scaled by the host's speed at the time.  While a pass runs, a
# timer signal every CAL_EVERY_S times a fixed kernel in the signal handler
# (in the one thread; Python runs handlers between bytecodes).  A request's
# scaled latency is the time it would take on a host where the kernel takes
# CAL_REF_S: its latency, less the handler time inside it, times CAL_REF_S
# over the mean kernel time measured during and around it.  CAL_REF_S is the kernel's
# time on a 2-vCPU x86-64 VM under Python 3.11 in a quiet phase, so that
# there the scaled and raw times agree.
CAL_REF_S = 1.2e-3
CAL_EVERY_S = 0.05
# A single sample varies by some 20% from the next; the phases last seconds,
# so a request's speed is the mean over a window about ten samples wider.
CAL_WINDOW_S = 0.25


def _kernel() -> float:
    """Fixed pure-Python float work, like fhn's stepping loops (fhn is not called)."""
    x, y, h = -2.8, 1.64, 1e-4
    for _ in range(8000):
        fx = 2.0 * (4.0 * x - x * x * x - y)
        fy = x - 0.1 * y - 0.2
        x, y = x + h * fx, y + h * fy
    return x


class SpeedSampler:
    """Kernel timings taken by a SIGALRM handler every CAL_EVERY_S while active."""

    def __init__(self):
        self.at: list[float] = []  # start of each sample
        self.kernel_s: list[float] = []
        self.spent = 0.0  # total handler time, taken out of latencies
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.kernel_s.append(t1 - t0)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: float, end: float) -> float:
        """CAL_REF_S over the mean kernel time of the samples taken from
        CAL_WINDOW_S before `start` to CAL_WINDOW_S after `end`, or of the one
        nearest to that window when none was."""
        start, end = start - CAL_WINDOW_S, end + CAL_WINDOW_S
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        if lo == hi:
            near = [k for k in (lo - 1, lo) if 0 <= k < len(self.at)]
            lo = min(near, key=lambda k: min(abs(self.at[k] - start), abs(self.at[k] - end)))
            hi = lo + 1
        return CAL_REF_S * (hi - lo) / math.fsum(self.kernel_s[lo:hi])


def calibrated_pass(requests) -> tuple[list[float], list[float], list]:
    """An untraced pass with the speed sampler running.

    Returns (scaled latencies, raw latencies, outputs); a raw latency leaves
    out the handler time inside it.
    """
    clock = time.perf_counter
    spans, raw, outputs = [], [], []
    with SpeedSampler() as sampler:
        sampler.sample()  # at least one sample per pass
        for req in requests:
            spent = sampler.spent
            s = clock()
            try:
                out = req.call()
            except Exception as exc:  # a raising request counts as failed, the run goes on
                out = exc
            e = clock()
            raw.append(e - s - (sampler.spent - spent))
            spans.append((s, e))
            outputs.append(out)
    scaled = [t * sampler.factor(s, e) for t, (s, e) in zip(raw, spans)]
    return scaled, raw, outputs


def measure(requests, seconds: float) -> tuple[dict, list, dict]:
    """Calibrated passes while another one fits in `seconds` (at least one).

    A request's latency is the median of its scaled latencies over the
    passes, and `wall_s` is the sum of those medians.  The details hold the
    same sum of raw latencies.  Returns (metrics, outputs of the first pass,
    details).
    """
    scaled, raw, outputs, rss_mb = [], [], None, 0.0
    start = time.perf_counter()
    while True:
        lat, lat_raw, outs = calibrated_pass(requests)
        scaled.append(lat)
        raw.append(lat_raw)
        if outputs is None:
            # peak memory of one full request set, whatever the pass count
            outputs = outs
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        del outs
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(scaled) > seconds:
            break
    per_request = [statistics.median(col) for col in zip(*scaled)]
    wall = math.fsum(per_request)
    lat = latency_summary(per_request)
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "requests_per_s": {"value": len(requests) / wall, "unit": "1/s"},
        "latency_p50_ms": {"value": 1e3 * lat["p50"], "unit": "ms"},
        "latency_tail_ms": {"value": 1e3 * lat["tail"], "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    details = {"passes": len(scaled), "latency": lat,
               "raw_wall_s": math.fsum(statistics.median(col) for col in zip(*raw))}
    return metrics, outputs, details


def trace(requests) -> tuple[dict, list, Tracer]:
    """One untraced and one traced pass; (per-layer metrics, outputs, tracer)."""
    wall_u, _, outputs = run_pass(requests)
    tracer = Tracer()
    with tracer:
        wall_t, _, _ = run_pass(requests, tracer)
    return layer_metrics(tracer, wall_t, wall_u), outputs, tracer


def judge(workload, outputs) -> tuple[int, float, list[str]]:
    """(failed requests, largest finite ratio, failure notes)."""
    ratios = workload.check(outputs)
    failed, worst, notes = 0, 0.0, []
    for i, out in enumerate(outputs):
        if isinstance(out, BaseException):
            failed += 1
            notes.append(f"request {i} ({workload.requests[i].kind}) raised {type(out).__name__}: {out}")
            continue
        rs = ratios.get(i, [math.inf])
        finite = [r for r in rs if math.isfinite(r)]
        if finite:
            worst = max(worst, max(finite))
        if not rs or max(rs) > 1.0:
            failed += 1
            notes.append(f"request {i} ({workload.requests[i].kind}) failed its check: {rs}")
    return failed, worst, notes


def layer_metrics(tracer, wall_traced: float, wall_untraced: float) -> dict:
    """Every per_layer metric of BENCHMARK.json, from one traced pass.

    `<span>.calls` and `<span>.self_frac` (self time as a share of the traced
    pass) follow from the span name; counters the tracer keeps under the
    metric's own name are read as they are; the rest are derived below.
    """
    self_s = tracer.self_times()
    calls = tracer.call_counts()
    counts = tracer.counts
    integrate_s = self_s.get("dynamics.integrate", 0.0)
    steps = counts["dynamics.integrate.steps"]
    searches = tracer.under("dynamics.find_limit_cycle", "bifurcation.sweep_values")
    useful = counts["bifurcation.sweep_values.cycle_records"]
    accounted = sum(self_s.values())
    # everything outside the fhn spans: request closures and the loop between them
    in_fhn = accounted - self_s.get(REQUEST, 0.0)
    derived = {
        "dynamics.integrate.steps_per_s": steps / integrate_s if integrate_s > 0 else 0.0,
        "dynamics.find_limit_cycle.failed": sum(
            v for k, v in counts.items() if k.startswith("dynamics.find_limit_cycle.failed.")),
        "bifurcation.cycle_useful_frac": useful / searches if searches else 0.0,
        "bench.self_frac": 1.0 - in_fhn / wall_traced,
        "trace.accounted_frac": accounted / wall_traced,
        "trace.wall_s": wall_traced,
        "trace.overhead_frac": wall_traced / wall_untraced - 1.0,
    }
    out = {}
    for m in PER_LAYER:
        name = m["name"]
        span, _, kind = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif kind == "calls":
            value = calls[span]
        elif kind == "self_frac":
            value = self_s.get(span, 0.0) / wall_traced
        else:
            value = counts[name]
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    # set-up time is scaled by the host's speed like the latencies (see CAL_REF_S)
    with SpeedSampler() as sampler:
        sampler.sample()
        set_up()
        raw_setup_s = time.monotonic() - args.t0 - sampler.spent
    setup_s = raw_setup_s * sampler.factor(0.0, math.inf)
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    import workloads  # imports fhn, so only after set-up is timed

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.workload == "requests":
            wl = workloads.build_requests(args.seed, workdir=workdir)
        else:
            wl = workloads.BY_NAME[args.workload](args.seed)
        result = {"setup_s": setup_s, "raw_setup_s": raw_setup_s, "attempted": len(wl.requests),
                  "notes": wl.notes}
        if args.trace:
            metrics, outputs, tracer = trace(wl.requests)
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            result["spans"] = len(tracer.spans)
        else:
            metrics, outputs, details = measure(wl.requests, args.seconds)
            result.update(details)
        failed, worst, notes = judge(wl, outputs)
        if not args.trace:
            metrics["accuracy_ratio"] = {"value": worst, "unit": "1"}
        result.update(metrics=metrics, failed=failed, failures=notes[:20])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
