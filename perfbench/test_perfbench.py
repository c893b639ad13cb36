"""The benchmark's own tests: reduced-size smoke passes, tracing, oracle.

    python -m pytest perfbench -q

They are not part of the repository's tests/ suite.  The smoke passes build
reduced request sets in this process and run them through the worker's
measuring and tracing code; one test runs the real command on a full
request set.  About two minutes in all.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import fhn.bifurcation  # noqa: E402
import fhn.canard  # noqa: E402
import fhn.cli  # noqa: E402
import fhn.dynamics  # noqa: E402
from fhn.core import SystemParams  # noqa: E402

import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCH["per_layer"]}


def _reduced(name: str, workdir: Path):
    """The workload at smoke size: same build functions, fewer requests (diagram at
    full size, see workloads.build_diagram)."""
    if name == "trajectories":
        return workloads.build_trajectories(7, scale=0.05)
    if name == "diagram":
        return workloads.build_diagram(7)
    if name == "canard":
        # the eps = 0.5 locate only; the check covers the outputs it is given
        wl = workloads.build_canard(7)
        wl.requests = wl.requests[:1]
        return wl
    return workloads.build_requests(7, scale=0.05, workdir=workdir)


def _assert_all_correct(wl, outputs):
    failed, worst, notes = worker.judge(wl, outputs)
    assert failed == 0, notes
    assert 0.0 < worst <= 1.0
    return worst


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_smoke_pass_checks_outputs_and_reports_every_end_to_end_metric(name, tmp_path):
    wl = _reduced(name, tmp_path)
    metrics, outputs, details = worker.measure(wl.requests, seconds=0.0)
    assert details["passes"] == 1
    _assert_all_correct(wl, outputs)
    # run.py adds setup_s and the worker accuracy_ratio
    assert set(metrics) | {"setup_s", "accuracy_ratio"} == set(END_TO_END)
    for key, got in metrics.items():
        assert got["unit"] == END_TO_END[key]["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0.0, key


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_traced_smoke_pass_reports_every_per_layer_metric(name, tmp_path):
    wl = _reduced(name, tmp_path)
    metrics, outputs, tracer = worker.trace(wl.requests)
    _assert_all_correct(wl, outputs)
    assert set(metrics) == set(PER_LAYER)
    for key, got in metrics.items():
        assert got["unit"] == PER_LAYER[key]["unit"]
        assert math.isfinite(got["value"]), key
    assert abs(metrics["trace.accounted_frac"]["value"] - 1.0) < 0.05
    assert len({s[4] for s in tracer.spans}) == len(wl.requests)


def test_command_prints_the_result_line_last():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "requests", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    for key, got in result["metrics"].items():
        assert got["unit"] == END_TO_END[key]["unit"]
        assert got["value"] > 0.0, key


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "requests", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrappers_rebind_every_importing_namespace():
    original = fhn.dynamics.find_limit_cycle
    with Tracer():
        wrapped = fhn.dynamics.find_limit_cycle
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert fhn.bifurcation.find_limit_cycle is wrapped
        assert fhn.canard.find_limit_cycle is wrapped
        assert fhn.bifurcation.integrate is fhn.dynamics.integrate is fhn.cli.integrate
        assert fhn.cli.integrate.__wrapped__ is not None
    assert fhn.bifurcation.find_limit_cycle is original
    assert fhn.canard.find_limit_cycle is original
    assert not hasattr(fhn.cli.integrate, "__wrapped__")


def test_sweep_row_records_cycle_searches_under_its_sweep_span():
    tracer = Tracer()
    with tracer:
        rows = tracer.request(
            0, lambda: fhn.bifurcation.sweep_values("b", [0.3], SystemParams(0.0, 0.0, 0.5)))
    assert len(rows) == 1
    names = [s[0] for s in tracer.spans]
    sweep = names.index("bifurcation.sweep_values")
    searches = [s for s in tracer.spans if s[0] == "dynamics.find_limit_cycle"]
    assert searches, "the row's cycle searches were not traced"
    for s in searches:
        assert s[3] == sweep and s[4] == 0
    assert tracer.under("dynamics.find_limit_cycle", "bifurcation.sweep_values") == len(searches)
    self_s = tracer.self_times()
    root = tracer.spans[0]
    assert math.isclose(sum(self_s.values()), root[2] - root[1], rel_tol=1e-9)


def test_latency_tail_is_the_highest_percentile_with_ten_samples_beyond():
    lat = worker.latency_summary([float(i) for i in range(100)])
    assert lat["tail"] == 89.0 and lat["tail_percentile"] == 90.0 and lat["samples"] == 100
    small = worker.latency_summary([3.0, 1.0, 2.0])
    assert small["tail"] == 3.0 and small["tail_percentile"] == 100.0 and small["p50"] == 2.0


def test_speed_factor_uses_the_samples_inside_a_request_or_else_the_nearest():
    sampler = worker.SpeedSampler()
    sampler.at, sampler.kernel_s = [0.0, 1.0, 2.0], [1e-3, 2e-3, 4e-3]
    ref = worker.CAL_REF_S
    assert sampler.factor(0.5, 2.5) == pytest.approx(ref / 3e-3)
    assert sampler.factor(1.1, 1.2) == pytest.approx(ref / 2e-3)
    assert sampler.factor(1.8, 1.9) == pytest.approx(ref / 4e-3)
    assert sampler.factor(3.0, 4.0) == pytest.approx(ref / 4e-3)


@pytest.mark.parametrize("seed", range(1, 6))
def test_canard_brackets_straddle_and_share_the_bisection_mix(seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    g = workloads.CANARD_LATTICE
    for eps, (k, (share_lo, share_hi)) in workloads.CANARD_BRACKETS.items():
        lo, hi = workloads._canard_bracket(rng, eps)
        cell = workloads.CANARD_CELL[eps]
        assert hi - lo == 2 ** k * g and hi < oracle.HOPF_C
        assert share_lo <= (cell * g - lo) / (hi - lo) < share_hi
        assert abs(cell * g - oracle.CANARD_C[eps][0]) < oracle.CANARD_C[eps][1]
        d = cell - round(lo / g)
        assert bin(d).count("1") == k // 2


def test_trajectory_inputs_follow_the_seed():
    a = workloads.trajectory_specs(3, 0.1)[0]
    b = workloads.trajectory_specs(3, 0.1)[0]
    c = workloads.trajectory_specs(4, 0.1)[0]
    assert a == b and a != c


def test_stored_eps_family_reference_matches_a_fresh_radau_solve():
    x0, y0 = oracle.EPS_FAMILY_START
    end = oracle.radau_endpoint(x0, y0, 0.0, 0.0, 1.0, oracle.EPS_FAMILY_T, False, 1, 1e-12)
    ref = oracle.EPS_FAMILY_END[1.0]
    assert max(abs(end[0] - ref[0]), abs(end[1] - ref[1])) < 1e-9
