"""Outside-in span tracing of the fhn layers.

The tracer wraps public functions of the fhn modules and records one span
per call: name, start, end, parent span and request id.  Spans stay in
memory until the run ends.  A layer's self time is its span duration minus
the time its child spans cover.

fhn modules import each other's functions by name (`from .dynamics import
find_limit_cycle`), so wrapping the defining module alone would miss every
call made through such a binding.  `install` therefore rebinds the wrapper in
every loaded fhn namespace whose attribute is the original function object.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name); "Class.method" targets wrap the class attribute
TARGETS = (
    ("fhn.core", "solve_cubic", "core.solve_cubic"),
    ("fhn.singular", "classify_singular_fate", "singular.classify_singular_fate"),
    ("fhn.singular", "relaxation_period", "singular.relaxation_period"),
    ("fhn.slow_manifold", "h0", "slow_manifold.h0"),
    ("fhn.slow_manifold", "h1", "slow_manifold.h1"),
    ("fhn.slow_manifold", "h_eps", "slow_manifold.h_eps"),
    ("fhn.slow_manifold", "invariance_defect", "slow_manifold.invariance_defect"),
    ("fhn.dynamics", "integrate", "dynamics.integrate"),
    ("fhn.dynamics", "Trajectory.sample", "dynamics.sample"),
    ("fhn.dynamics", "Trajectory.sample_uniform", "dynamics.sample"),
    ("fhn.dynamics", "find_limit_cycle", "dynamics.find_limit_cycle"),
    ("fhn.bifurcation", "equilibria", "bifurcation.equilibria"),
    ("fhn.bifurcation", "hopf_in_b", "bifurcation.hopf_in_b"),
    ("fhn.bifurcation", "hopf_in_c", "bifurcation.hopf_in_c"),
    ("fhn.bifurcation", "pitchfork_in_b", "bifurcation.pitchfork_in_b"),
    ("fhn.bifurcation", "homoclinic_in_b", "bifurcation.homoclinic_in_b"),
    ("fhn.bifurcation", "sweep_values", "bifurcation.sweep_values"),
    ("fhn.canard", "locate_canard_explosion", "canard.locate_canard_explosion"),
    ("fhn.canard", "classify_canard", "canard.classify_canard"),
    ("fhn.cli", "main", "cli.main"),
)

REQUEST = "request"


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _after_integrate(tracer, result, args, kwargs):
    tracer.counts["dynamics.integrate.steps"] += result.stats["steps"]
    tracer.counts["dynamics.integrate.rejected"] += result.stats["rejected"]


def _after_find_limit_cycle(tracer, result, args, kwargs):
    if not result.converged:
        tracer.counts["dynamics.find_limit_cycle.unconverged"] += 1


def _after_sweep_values(tracer, result, args, kwargs):
    tracer.counts["bifurcation.sweep_values.rows"] += len(result)
    tracer.counts["bifurcation.sweep_values.cycle_records"] += sum(len(r.cycles) for r in result)


def _after_locate(tracer, result, args, kwargs):
    cache = kwargs.get("cache")
    if cache is not None:
        tracer.counts["canard.cycles_measured"] += len(cache)


def _after_cli_main(tracer, result, args, kwargs):
    argv = list(args[0] if args else kwargs["argv"])
    tracer.counts["cli.bytes_written"] += _dir_bytes(Path(argv[argv.index("--out") + 1]))


HOOKS = {
    "dynamics.integrate": _after_integrate,
    "dynamics.find_limit_cycle": _after_find_limit_cycle,
    "bifurcation.sweep_values": _after_sweep_values,
    "canard.locate_canard_explosion": _after_locate,
    "cli.main": _after_cli_main,
}


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, request id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._request_id = None
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        hook = HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._request_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = clock()
                stack.pop()
                tracer.counts[f"{name}.failed.{type(exc).__name__}"] += 1
                raise
            rec[2] = clock()
            stack.pop()
            if hook is not None:
                hook(tracer, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def request(self, request_id, fn):
        """Run `fn()` as one request: a root span that every call inside inherits."""
        self._request_id = request_id
        try:
            return self.wrap(fn, REQUEST)()
        finally:
            self._request_id = None

    def install(self) -> None:
        fhn_modules = [m for n, m in sys.modules.items() if n == "fhn" or n.startswith("fhn.")]
        for module_name, attr, span_name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self.wrap(original, span_name))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, span_name)
            for module in fhn_modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: duration minus the duration of direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def call_counts(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def under(self, name: str, ancestor: str) -> int:
        """Number of `name` spans that have an `ancestor` span above them."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0:
                if self.spans[p][0] == ancestor:
                    n += 1
                    break
                p = self.spans[p][3]
        return n

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "request": rid}) + "\n")
