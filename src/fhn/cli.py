"""Command-line front end: analyses to CSV plus a JSON run manifest.

Subcommands: singular, simulate, bifurcate, canard, slow-manifold.  Every
run writes manifest.json (config echo, version, the loop that took the
integration steps, timings, warnings) to the output directory, success or
failure.  Exit codes: 0 success, 3 integration failure (IntegrationError),
4 search failure (SearchError), 2 any other FHNError, a ValueError, or a
MemoryError from an output too large to allocate (config error).  A usage error, or an --out that
cannot be made a directory (it names a file, say), exits 2 before any run
and writes no manifest; the latter prints the OSError's message to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

from . import __version__
from .core import PhasePoint, SystemParams, TimeScale
from .dynamics import Stability, integrate, kernel
from .errors import FHNError, IntegrationError, SearchError
from .singular import Fate, classify_singular_fate, relaxation_period
from .slow_manifold import Branch, BranchGraph, h0, h1


_CHUNK = 4096  # table rows formatted by one `%`


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Rows in `_fmt` form, `_CHUNK` at a time with one `%`: a chunk's column of
    cells all of type float takes %.17g (`_fmt`'s bytes), any other column goes
    through `_fmt`.  A row whose width is not the first row's is a ValueError."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), _CHUNK):
            chunk = rows[start : start + _CHUNK]
            cols = list(zip(*chunk, strict=True))
            if len(cols) != len(rows[0]):
                raise ValueError("every table row must have the first row's width")
            floats = [set(map(type, col)) == {float} for col in cols]
            line = ",".join(["%.17g" if f else "%s" for f in floats]) + "\n"
            cols = [col if f else map(_fmt, col) for col, f in zip(cols, floats)]
            fh.write(line * len(chunk) % tuple(chain.from_iterable(zip(*cols))))


@dataclass
class RunManifest:
    command: str
    config: dict
    version: str = __version__
    # "c" or "python": which loop of `integrate` took the steps (`dynamics.kernel`)
    kernel: str = field(default_factory=kernel)
    timings: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    status: str = "success"
    error: str | None = None

    def write(self, outdir: Path) -> None:
        _write_json(outdir / "manifest.json", asdict(self))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fhn", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("singular", help="compose and classify an eps = 0 orbit")
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--x0", type=float)
    sp.add_argument("--y0", type=float)
    sp.add_argument("--period-only", action="store_true", help="only the relaxation period")
    common(sp)

    sp = sub.add_parser("simulate", help="integrate the regular eps > 0 system")
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--y0", type=float, required=True)
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--scale", choices=["slow", "fast"], default="slow")
    sp.add_argument("--dt-out", type=float, default=None, help="output sample spacing")
    sp.add_argument("--tol", type=float, default=1e-8, help="integration tolerance")
    common(sp)

    sp = sub.add_parser("bifurcate", help="one-parameter sweep with landmarks")
    sp.add_argument("--param", choices=["b", "c"], required=True)
    sp.add_argument("--from", dest="lo", type=float, required=True)
    sp.add_argument("--to", dest="hi", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--b", type=float, help="fixed b when sweeping c (default 0)")
    sp.add_argument("--c", type=float, help="fixed c when sweeping b (default 0)")
    sp.add_argument(
        "--landmarks",
        nargs="?",
        const="auto",
        default=None,
        help="comma list of the swept family's landmarks, or 'auto' for all of them",
    )
    sp.add_argument("--no-cycles", action="store_true", help="equilibria only, no cycle search")
    sp.add_argument("--tol", type=float, default=None,
                    help="integration tolerance of the cycle searches (default: the sweep's, 1e-9)")
    common(sp)

    sp = sub.add_parser("canard", help="canard explosion scan and asymptotic report")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--bracket-lo", type=float, default=None)
    sp.add_argument("--bracket-hi", type=float, default=None)
    sp.add_argument("--points", type=int, default=40)
    common(sp)

    sp = sub.add_parser("slow-manifold", help="tabulate the slow-manifold graph")
    sp.add_argument("--branch", choices=["left", "right"], required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--y-from", dest="y_lo", type=float, default=None)
    sp.add_argument("--y-to", dest="y_hi", type=float, default=None)
    sp.add_argument("--samples", type=int, default=200)
    common(sp)

    return p


# parse_args keeps no state in the parser, so one serves every main call in a process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"fhn: --out: {exc}", file=sys.stderr)
        return 2
    config = {k: v for k, v in vars(args).items() if k != "command"}
    manifest = RunManifest(args.command, config)
    handler = {
        "singular": _cmd_singular,
        "simulate": _cmd_simulate,
        "bifurcate": _cmd_bifurcate,
        "canard": _cmd_canard,
        "slow-manifold": _cmd_slow_manifold,
    }[args.command]

    t0 = time.perf_counter()
    try:
        handler(args, outdir, manifest)
        code = 0
    except IntegrationError as exc:
        manifest.status, manifest.error, code = "integration-error", str(exc), 3
    except SearchError as exc:
        manifest.status, manifest.error, code = "search-error", str(exc), 4
    except (FHNError, ValueError, MemoryError) as exc:
        manifest.status, manifest.error, code = "config-error", str(exc) or type(exc).__name__, 2
    manifest.timings["total_s"] = time.perf_counter() - t0
    manifest.write(outdir)
    return code


def _cmd_singular(args, outdir: Path, manifest: RunManifest) -> None:
    params = SystemParams(args.b, args.c, 0.0)

    if args.period_only:
        if args.x0 is not None or args.y0 is not None:
            raise ValueError("--period-only takes no start point: drop --x0 and --y0")
        period = relaxation_period(params)
        _write_csv(outdir / "period.csv", ["b", "c", "period"], [[args.b, args.c, period]])
        manifest.outputs["period"] = period
        return

    if args.x0 is None or args.y0 is None:
        raise ValueError("--x0 and --y0 are required unless --period-only is given")
    orbit = classify_singular_fate(PhasePoint(args.x0, args.y0), params)
    rows = [
        [seg.kind.value, seg.start.x, seg.start.y, seg.end.x, seg.end.y, seg.duration]
        for seg in orbit.segments
    ]
    _write_csv(
        outdir / "singular_orbit.csv",
        ["segment_kind", "x0", "y0", "x1", "y1", "duration"],
        rows,
    )
    manifest.outputs["fate"] = orbit.fate.value
    if orbit.fate is Fate.PERIODIC_CYCLE:
        manifest.outputs["period"] = orbit.cycle_period()


def _cmd_simulate(args, outdir: Path, manifest: RunManifest) -> None:
    if args.eps <= 0.0:
        raise ValueError("simulate requires eps > 0; use the singular command for eps = 0")
    dt = args.dt_out if args.dt_out is not None else args.tmax / 2000.0
    for flag, value in (("--tmax", args.tmax), ("--dt-out", dt)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{flag} must be finite and > 0")
    params = SystemParams(args.b, args.c, args.eps)
    scale = TimeScale.SLOW if args.scale == "slow" else TimeScale.FAST
    try:
        traj = integrate(PhasePoint(args.x0, args.y0), params, args.tmax, scale, tol=args.tol)
    except IntegrationError as exc:
        _write_trajectory(outdir, exc.trajectory, dt)
        manifest.outputs["last_state"] = [exc.last_state.x, exc.last_state.y]
        raise
    _write_trajectory(outdir, traj, dt)
    manifest.outputs["steps"] = traj.stats["steps"]
    manifest.outputs["rejected"] = traj.stats["rejected"]


def _write_trajectory(outdir: Path, traj, dt: float) -> None:
    ts, xs, ys = (a.tolist() for a in traj.sample_uniform(dt))
    _write_csv(outdir / "trajectory.csv", ["time", "x", "y"], list(zip(ts, xs, ys)))


def _cmd_bifurcate(args, outdir: Path, manifest: RunManifest) -> None:
    from .bifurcation import SWEEP_TOL, hopf_in_b, hopf_in_c, homoclinic_in_b, pitchfork_in_b, sweep

    swept = getattr(args, args.param)
    # the swept parameter takes each row's value, the fixed one 0 unless given
    args.b, args.c = (0.0 if v is None else v for v in (args.b, args.c))
    manifest.config.update(b=args.b, c=args.c)
    if swept is not None:
        raise ValueError(f"--{args.param} is the swept parameter: its values come from --from and --to")
    params0 = SystemParams(args.b, args.c, args.eps)
    wanted = None if args.landmarks is None else _landmark_set(args)
    # without --tol, at the sweep's own default, which the manifest echoes
    tol = manifest.config["tol"] = SWEEP_TOL if args.tol is None else args.tol
    t0 = time.perf_counter()
    # one sequential sweep: continuation carries each row's cycle into the next
    rows = sweep(args.param, args.lo, args.hi, args.steps, params0, cycles=not args.no_cycles, tol=tol)
    manifest.timings["sweep_s"] = time.perf_counter() - t0

    csv_rows = []
    for row in rows:
        eqs = sorted(row.equilibria, key=lambda e: e.point.x)
        flat = [row.param_value, len(eqs)]
        for k in range(3):
            if k < len(eqs):
                flat += [eqs[k].point.x, eqs[k].classification.value]
            else:
                flat += [None, None]
        stable = next((c for c in row.cycles if c.stability is Stability.STABLE), None)
        unstable = next((c for c in row.cycles if c.stability is Stability.UNSTABLE), None)
        for rec in (stable, unstable):
            flat += [rec.period, rec.length, rec.stability.value, rec.converged] if rec else [None] * 4
        flat.append(row.error)
        csv_rows.append(flat)
    header = ["param", "n_equilibria"]
    for k in (1, 2, 3):
        header += [f"eq{k}_x", f"eq{k}_class"]
    for prefix in ("cycle", "cycle2"):
        header += [f"{prefix}_T", f"{prefix}_A", f"{prefix}_stability", f"{prefix}_converged"]
    header.append("error")
    _write_csv(outdir / "bifurcation.csv", header, csv_rows)

    if wanted is not None:
        landmarks = {}
        t0 = time.perf_counter()
        if "pitchfork" in wanted:
            landmarks["pitchfork_b"] = pitchfork_in_b().param_value
        if "hopf_c" in wanted:
            plus, minus = hopf_in_c(args.eps)
            landmarks["hopf_c"] = plus.param_value
            landmarks["hopf_c_minus"] = minus.param_value
        if "hopf_b" in wanted:
            landmarks["hopf_b"] = hopf_in_b(args.eps).param_value
        if "homoclinic" in wanted:
            hom = homoclinic_in_b(args.eps)
            landmarks["homoclinic_b"] = hom.param_value
            cols = (hom.orbit.t.tolist(), hom.orbit.x.tolist(), hom.orbit.y.tolist())
            _write_csv(outdir / "homoclinic_orbit.csv", ["t", "x", "y"], list(zip(*cols)))
        manifest.timings["landmarks_s"] = time.perf_counter() - t0
        _write_json(outdir / "landmarks.json", landmarks)
        manifest.outputs["landmarks"] = landmarks


def _landmark_set(args) -> set[str]:
    if args.param == "b" and args.c == 0.0:
        family = {"pitchfork", "hopf_b", "homoclinic"}
    elif args.param == "c" and args.b == 0.0:
        family = {"hopf_c"}
    else:
        family = set()
    if args.landmarks == "auto":
        return family
    wanted = {w.strip() for w in args.landmarks.split(",") if w.strip()}
    if not wanted <= family:
        raise ValueError(f"landmarks {sorted(wanted - family)} not among this sweep's {sorted(family)}")
    return wanted


def _cmd_canard(args, outdir: Path, manifest: RunManifest) -> None:
    from .canard import (
        MIDDLE_BAND,
        MIN_MIDDLE_ARC,
        SMALL_CYCLE_DIAMETER,
        asymptotic_loci,
        explosion_scan,
        normal_form_case_i,
    )

    if args.eps <= 0.0:
        raise ValueError("canard requires eps > 0")
    bracket = None
    if (args.bracket_lo is None) != (args.bracket_hi is None):
        raise ValueError("give both --bracket-lo and --bracket-hi, or neither")
    if args.bracket_lo is not None:
        bracket = (args.bracket_lo, args.bracket_hi)

    c_star, records = explosion_scan(args.eps, bracket=bracket, n_points=args.points)
    _write_csv(
        outdir / "canard_scan.csv",
        ["c", "T", "A", "class", "converged"],
        [[r.c, r.period, r.length, r.klass.value, r.converged] for r in records],
    )

    summary = {
        "explosion_c": c_star,
        "classifier": {
            "middle_band": MIDDLE_BAND,
            "min_middle_arc": MIN_MIDDLE_ARC,
            "small_cycle_diameter": SMALL_CYCLE_DIAMETER,
        },
    }
    if args.eps <= 0.5:
        loci = asymptotic_loci(normal_form_case_i(), args.eps)
        summary["lambda_h"] = loci.lambda_h
        summary["lambda_c"] = loci.lambda_c
        summary["lambda_c_flipped"] = loci.lambda_c_flipped
        manifest.warnings.append(loci.note)
    else:
        manifest.warnings.append("asymptotic loci reported only for eps <= 0.5")
    _write_json(outdir / "canard_summary.json", summary)
    manifest.outputs["explosion_c"] = c_star


def _cmd_slow_manifold(args, outdir: Path, manifest: RunManifest) -> None:
    if args.samples < 2:
        raise ValueError("--samples must be at least 2")
    branch = Branch.LEFT_ATTRACTING if args.branch == "left" else Branch.RIGHT_ATTRACTING
    params = SystemParams(args.b, args.c, args.eps)
    graph = BranchGraph.for_branch(branch)
    y_lo = graph.y_lo if args.y_lo is None else args.y_lo
    y_hi = graph.y_hi if args.y_hi is None else args.y_hi
    clipped_lo, clipped_hi = max(y_lo, graph.y_lo), min(y_hi, graph.y_hi)
    if (clipped_lo, clipped_hi) != (y_lo, y_hi):
        manifest.warnings.append(
            f"y range clipped to the validity interval [{clipped_lo}, {clipped_hi}]"
        )
    if not clipped_lo < clipped_hi:
        raise ValueError("empty y range after clipping to the validity interval")
    rows = []
    for k in range(args.samples):
        y = clipped_lo + (clipped_hi - clipped_lo) * k / (args.samples - 1)
        x0 = h0(y, graph)
        x1 = h1(y, graph, params)
        rows.append([y, x0, x1, x0 + args.eps * x1])
    _write_csv(outdir / "slow_manifold.csv", ["y", "h0", "h1", "h_eps"], rows)


if __name__ == "__main__":
    raise SystemExit(main())
