"""One benchmark operation in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --spawned T

MODE is ``setup`` (stop where the first march call would be), ``run`` (one
untraced operation) or ``trace`` (one operation with every layer wrapped).
T is the parent's ``time.monotonic()`` just before it started this process,
so set-up time counts interpreter start and imports.  The result is printed
as one JSON line.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import workloads  # noqa: E402


class RunLog:
    """Keeps what the checks need from every reference and nudged run.

    Wraps ``driver.run_reference`` and ``driver.run_assimilated`` (the sweep
    reaches them the same way).  It keeps each report and the size of each
    trajectory, never the trajectory, so it does not raise the peak memory.
    """

    def __init__(self, driver):
        self.runs = []
        for kind in ("reference", "assimilated"):
            attr = f"run_{kind}"
            setattr(driver, attr, self._logged(kind, getattr(driver, attr)))

    def _logged(self, kind, fn):
        def logged(scenario, *args, **kwargs):
            mu = kwargs.get("mu")
            mu = scenario.mu if mu is None else float(mu)
            entry = {"kind": kind, "mu": 0.0 if kind == "reference" else mu}
            self.runs.append(entry)
            try:
                result = fn(scenario, *args, **kwargs)
            except Exception as exc:
                entry["error"] = f"{type(exc).__name__}: {exc}"
                raise
            traj = getattr(result, "trajectory", None)
            entry["report"] = result.report
            entry["trajectory_bytes"] = (0 if traj is None
                                         else traj.values.nbytes + traj.times.nbytes)
            return result

        return logged


def _versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _assess(name, raster_seed, log, rows, error, steps):
    """(failed runs, problems, wrong outputs) of one attempt at the operation.

    A run fails when it raises, never starts or fails a check; only a failed
    check is a wrong output.  An error outside every run fails one run.
    """
    failed = len(workloads.WORKLOADS[name]["runs"]) - len(log.runs)
    problems, wrong = [], []
    for run in log.runs:
        label = f"{run['kind']} mu={run['mu']}"
        if "error" in run:
            failed += 1
            problems.append(f"{label}: {run['error']}")
            continue
        bad = workloads.check_run(name, raster_seed, run["kind"], run["mu"],
                                  run["report"], steps)
        if bad:
            failed += 1
            wrong += [f"{label}: {p}" for p in bad]
    if rows is not None:
        wrong += workloads.check_sweep_rows(rows)
    if error is not None and not problems:
        failed = max(failed, 1)
        problems.append(error)
    return failed, problems, wrong


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    from porousda import driver

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    log = RunLog(driver)

    spec = workloads.WORKLOADS[args.workload]
    out = {"attempted": 0, "failed": 0, "problems": [], "wrong": []}
    for raster_seed in workloads.raster_seeds(args.workload, args.seed):
        log.runs.clear()
        if tracer is not None:
            tracer.reset()
        scenario = workloads.make_scenario(args.workload, raster_seed)
        if tracer is not None:
            scenario = tracer.wrap_coefficients(scenario)
        mesh = scenario.build_mesh()
        partition = driver.TimePartition.from_scenario(scenario)
        out.setdefault("setup_s", time.monotonic() - args.spawned)
        if args.mode == "setup":
            break

        start = time.perf_counter()
        try:
            rows, error = workloads.operate(args.workload, scenario, mesh,
                                            partition), None
        except Exception:
            rows = None
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        twin_s = time.perf_counter() - start

        steps = partition.n_coarse * partition.fine_per_coarse
        failed, problems, wrong = _assess(args.workload, raster_seed, log, rows,
                                          error, steps)
        out["attempted"] += len(spec["runs"])
        out["failed"] += failed
        out["problems"] += [f"raster seed {raster_seed}: {p}" for p in problems]
        out["wrong"] += [f"raster seed {raster_seed}: {p}" for p in wrong]
        if error is not None:
            continue                    # a breakdown: try the next raster

        done = [r for r in log.runs if "report" in r]
        out.update({
            "raster_seed": raster_seed,
            "twin_s": twin_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "vertex_steps": mesh.n_vertices * sum(len(r["report"].rows) - 1
                                                  for r in done),
            "solver_iterations": {
                layer: sum(sum(r["report"].solver_iterations[layer]) for r in done)
                for layer in ("pressure", "transport")},
            "nudged_R": [(r["mu"], r["report"].asymptote(), r["report"].plateau_value())
                         for r in done if r["kind"] == "assimilated"],
        })
        if tracer is not None:
            layers, counts, notes = tracer.metrics(done, mesh.n_elements)
            out.update({"layers": layers, "counts": counts, "notes": notes})
            if args.spans:
                tracer.dump(args.spans)
        break
    out["versions"] = _versions()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
