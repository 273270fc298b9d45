"""Per-layer spans and counts, recorded from outside the package.

The tracer replaces the public functions of each layer with wrappers that
record a span (name, start, end, parent span, run id) per call.  Spans stay in
memory and are written out when the traced operation ends.  Nothing here is
installed in an untraced run.

Self time is a span's duration minus the time its direct child spans cover.
`linalg` is a service layer called from pressure, transport and observation,
so its spans are reported on their own and not subtracted from the caller:
``pressure.solve_s`` is the time in ``solve_pressure`` outside pressure
assembly, which is mostly the CG solve.
"""

import functools
import json
import statistics
import time
from collections import defaultdict

import numpy as np

SERVICE_PREFIX = "linalg."

# (owner module or class path, attribute, span name).  The driver imports
# solve_pressure, postprocess_flux, l2_diff and l2_norm by name, so those are
# wrapped where the driver looks them up.
_TARGETS = [
    ("scenarios", "build_mesh", "mesh.build"),
    ("linalg", "assemble", "linalg.assemble"),
    ("linalg", "solve", "linalg.solve"),
    ("pressure", "assemble_pressure", "pressure.assemble"),
    ("driver", "solve_pressure", "pressure.solve"),
    ("driver", "postprocess_flux", "flux_postprocess"),
    ("transport", "step", "transport.step"),
    ("transport", "assemble_step", "transport.assemble"),
    ("transport.TransportCoefficients", "_build_static", "transport.static_build"),
    ("transport", "prescribed_outflux", "transport.outflux"),
    ("observation.SparseGrid", "sample", "observation.sample"),
    ("observation.SparseGrid", "interpolate", "observation.interpolate"),
    ("observation.ObservationStream", "interpolate", "observation.stream"),
    ("driver", "l2_diff", "fields.l2"),
    ("driver", "l2_norm", "fields.l2"),
    ("fields", "l2_norm_callable", "fields.l2"),
    ("driver", "run_reference", "driver.reference"),
    ("driver", "run_assimilated", "driver.assimilated"),
    ("driver", "_march", "driver.march"),
    ("driver._Comparator", "metrics", "driver.metrics"),
]

# Scenario callables whose evaluation points are counted: kappa(theta, x, y)
# and the others f(x, y[, t]).
_COEFFICIENTS = ("kappa", "pressure_source", "source", "reaction")


# Every per-layer metric with its unit, in report order.  Counts and computed
# sizes are labelled as such; they repeat exactly and are not speeds.
LAYER_UNITS = {
    "mesh.build_s": "s",
    "linalg.assemble_s": "s",
    "linalg.assemble_calls": "count",
    "linalg.assemble_entries": "count",
    "linalg.solve_s": "s",
    "linalg.solve_calls": "count",
    "pressure.assemble_s": "s",
    "pressure.solve_s": "s",
    "pressure.solves": "count",
    "pressure.cg_iters": "count",
    "pressure.cg_iters_per_solve": "iter/solve",
    "flux_postprocess.s": "s",
    "flux_postprocess.calls": "count",
    "flux_postprocess.max_residual": "abs",
    "transport.assemble_s": "s",
    "transport.static_builds": "count",
    "transport.static_build_s": "s",
    "transport.solve_s": "s",
    "transport.steps": "count",
    "transport.bicgstab_iters": "count",
    "transport.iters_per_step": "iter/step",
    "transport.step_ms_p50": "ms",
    "transport.step_ms_high": "ms",
    "transport.outflux_s": "s",
    "scenarios.kappa_points": "pts/elem/solve",
    "scenarios.pressure_source_points": "pts/elem/solve",
    "scenarios.source_points": "pts/elem/step",
    "scenarios.coeff_s": "s",
    "observation.sample_s": "s",
    "observation.sample_calls": "count",
    "observation.interpolate_s": "s",
    "observation.interpolate_calls": "count",
    "observation.stream_s": "s",
    "observation.stream_calls": "count",
    "fields.l2_s": "s",
    "fields.l2_calls": "count",
    "driver.reference_s": "s",
    "driver.assimilated_s": "s",
    "driver.march_self_s": "s",
    "driver.metrics_s": "s",
    "driver.trajectory_mb": "MB",
    "driver.runs": "count",
    "trace.twin_s": "s",
    "trace.untraced_twin_s": "s",
    "trace.overhead_share": "share",
}


def _resolve(path):
    import importlib

    module, _, cls = path.partition(".")
    obj = importlib.import_module(f"porousda.{module}")
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder for one traced operation."""

    def __init__(self):
        self.reset()

    def reset(self):
        """Forget everything recorded so far; the wrappers stay installed."""
        self.spans = []          # [name, start, end, parent index, run id]
        self._stack = []
        self._run = -1
        self.entries = 0         # length of the contribution streams assembled
        self.points = defaultdict(int)
        self.residuals = []

    def wrap(self, name, fn, after=None):
        new_run = name in ("driver.reference", "driver.assimilated")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_run:
                self._run += 1
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self._run]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self):
        """Wrap every layer's public functions in the imported package."""
        def add_entries(args, _matrix):
            self.entries += np.size(args[0])

        hooks = {
            "linalg.assemble": add_entries,
            "flux_postprocess": lambda _a, flux: self.residuals.append(flux.max_residual),
        }
        for path, attr, name in _TARGETS:
            owner = _resolve(path)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr),
                                           hooks.get(name)))

    def wrap_coefficients(self, scenario):
        """The scenario with its coefficient callables counted and timed."""
        def counted(key, fn):
            skip = 1 if key == "kappa" else 0

            def count(args, _result):
                self.points[key] += np.broadcast(*args[skip:skip + 2]).size

            return self.wrap(f"scenarios.{key}", fn, count)

        return scenario.with_overrides(**{
            key: counted(key, getattr(scenario, key))
            for key in _COEFFICIENTS if getattr(scenario, key) is not None})

    # -- reduction -----------------------------------------------------------

    def _self_times(self):
        own = [end - start for _n, start, end, _p, _r in self.spans]
        for name, start, end, parent, _r in self.spans:
            if parent >= 0 and not name.startswith(SERVICE_PREFIX):
                own[parent] -= end - start
        return own

    def metrics(self, runs, n_elements):
        """Per-layer metrics of this operation.

        `runs` are the driver results seen by the run log: each has the
        RunReport and the trajectory size in bytes.
        """
        total = defaultdict(float)
        calls = defaultdict(int)
        own_total = defaultdict(float)
        step_ms = []
        for (name, start, end, _p, _r), own in zip(self.spans, self._self_times()):
            total[name] += end - start
            calls[name] += 1
            own_total[name] += own
            if name == "transport.step":
                step_ms.append(1e3 * (end - start))

        cg = sum(sum(r["report"].solver_iterations["pressure"]) for r in runs)
        bicg = sum(sum(r["report"].solver_iterations["transport"]) for r in runs)
        solves, steps = calls["pressure.solve"], calls["transport.step"]
        p_high = high_percentile(step_ms)

        def per(count, base):
            return count / base if base else 0.0

        m = {
            "mesh.build_s": total["mesh.build"],
            "linalg.assemble_s": total["linalg.assemble"],
            "linalg.assemble_calls": calls["linalg.assemble"],
            "linalg.assemble_entries": self.entries,
            "linalg.solve_s": total["linalg.solve"],
            "linalg.solve_calls": calls["linalg.solve"],
            "pressure.assemble_s": total["pressure.assemble"],
            "pressure.solve_s": own_total["pressure.solve"],
            "pressure.solves": solves,
            "pressure.cg_iters": cg,
            "pressure.cg_iters_per_solve": per(cg, solves),
            "flux_postprocess.s": total["flux_postprocess"],
            "flux_postprocess.calls": calls["flux_postprocess"],
            "flux_postprocess.max_residual": max(self.residuals, default=0.0),
            "transport.assemble_s": total["transport.assemble"],
            "transport.static_builds": calls["transport.static_build"],
            "transport.static_build_s": total["transport.static_build"],
            "transport.solve_s": own_total["transport.step"],
            "transport.steps": steps,
            "transport.bicgstab_iters": bicg,
            "transport.iters_per_step": per(bicg, steps),
            "transport.step_ms_p50": statistics.median(step_ms) if step_ms else 0.0,
            "transport.step_ms_high": p_high[1] if p_high else 0.0,
            "transport.outflux_s": total["transport.outflux"],
            "scenarios.kappa_points": per(self.points["kappa"], n_elements * solves),
            "scenarios.pressure_source_points":
                per(self.points["pressure_source"], n_elements * solves),
            "scenarios.source_points": per(self.points["source"], n_elements * steps),
            "scenarios.coeff_s": sum(total[f"scenarios.{k}"] for k in _COEFFICIENTS),
            "observation.sample_s": total["observation.sample"],
            "observation.sample_calls": calls["observation.sample"],
            "observation.interpolate_s": total["observation.interpolate"],
            "observation.interpolate_calls": calls["observation.interpolate"],
            "observation.stream_s": total["observation.stream"],
            "observation.stream_calls": calls["observation.stream"],
            "fields.l2_s": total["fields.l2"],
            "fields.l2_calls": calls["fields.l2"],
            "driver.reference_s": total["driver.reference"],
            "driver.assimilated_s": total["driver.assimilated"],
            "driver.march_self_s": own_total["driver.march"],
            "driver.metrics_s": total["driver.metrics"],
            "driver.trajectory_mb": sum(r["trajectory_bytes"] for r in runs) / 1e6,
            "driver.runs": len(runs),
        }
        # What must repeat exactly between two traced runs of the same code.
        counts = {k: v for k, v in m.items() if LAYER_UNITS[k] == "count"}
        counts.update({f"scenarios.{k}_points_total": self.points[k]
                       for k in _COEFFICIENTS})
        notes = {"transport.step_ms_high":
                 f"p{p_high[0]} of {len(step_ms)} steps" if p_high
                 else f"{len(step_ms)} steps, too few for a percentile "
                      "with ten samples beyond it"}
        return m, counts, notes

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run"],
                       "spans": self.spans}, fh)


def high_percentile(values):
    """(p, value): the highest whole percentile with ten samples beyond it.

    Nearest-rank definition; None when there are fewer than 11 samples.
    """
    n = len(values)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    rank = -(-p * n // 100)               # ceil(p * n / 100), at most n - 10
    return p, sorted(values)[max(rank, 1) - 1]
