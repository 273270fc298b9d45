"""Twin-experiment benchmark for porousda.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  Each operation runs in a
fresh worker process (one at a time, a closed loop with one operation in
flight) so that set-up time counts imports and peak memory belongs to that
operation alone.

``--trace 0`` runs set-up-only workers, then whole operations for S seconds
(at least one, and none that would end after S), and reports the end-to-end
metrics.
``--trace 1`` runs a traced, an untraced and a traced operation, reports the
per-layer metrics and the tracing overhead, and fails if the two traced runs
disagree on any count.

Every output line but the last is for people; the last is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Details, with
provenance, go to ``perfbench/out/``.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracing import LAYER_UNITS, high_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 6       # set-up-only workers per untraced run
DEADLINE_S = 170.0      # every run ends well inside 180 s

END_TO_END_UNITS = {"setup_s": "s", "twin_s": "s",
                    "mdof_steps_per_s": "Mvertex-step/s", "peak_rss_mb": "MiB"}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot give valid numbers."""


def _worker(workload, seed, mode, deadline, spans=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    spawned = time.monotonic()
    timeout = deadline - spawned
    if timeout <= 0:
        raise BenchmarkError("no time left for another worker")
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{mode} worker for {workload} timed out") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise BenchmarkError(f"{mode} worker for {workload} exited with "
                             f"{proc.returncode}: {tail[0]}")
    return {**json.loads(proc.stdout.strip().splitlines()[-1]), "spawned": spawned}


def _completed(ops):
    """The operations that finished on some raster; there must be one."""
    done = [w for w in ops if "twin_s" in w]
    if not done:
        raise BenchmarkError("no operation completed: " + "; ".join(
            p for w in ops for p in w["problems"]))
    return done


def _summary(values):
    """Median, sample count and the high percentile where there is one."""
    high = high_percentile(values)
    return {"median": statistics.median(values), "n": len(values),
            "high": None if high is None else {"p": high[0], "value": high[1]}}


def _source_digest():
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "porousda")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _provenance(args, versions):
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        **versions,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": {"name": args.workload, **WORKLOADS[args.workload]},
    }


def _untraced(args, deadline):
    setups = [_worker(args.workload, args.seed, "setup", deadline)
              for _ in range(SETUP_SAMPLES)]
    # Start another operation only if it should end inside the window, so
    # the number of operations does not flip between runs of one workload.
    ops, began = [], time.monotonic()
    while True:
        ops.append(_worker(args.workload, args.seed, "run", deadline))
        now = time.monotonic()
        last = now - ops[-1]["spawned"]
        if now + last - began > args.seconds or now + 1.5 * last > deadline:
            break
    done = _completed(ops)
    setup = [w["setup_s"] for w in setups + ops]
    twin = [w["twin_s"] for w in done]
    rate = [w["vertex_steps"] / w["twin_s"] / 1e6 for w in done]
    rss = [w["peak_rss_mib"] for w in done]
    summaries = {"setup_s": _summary(setup), "twin_s": _summary(twin),
                 "mdof_steps_per_s": _summary(rate), "peak_rss_mb": _summary(rss)}
    metrics = {k: {"value": s["median"], "unit": END_TO_END_UNITS[k]}
               for k, s in summaries.items()}
    return ops, setups[0]["versions"], metrics, summaries


def _traced(args, deadline):
    def traced_op(i):
        spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}-{i}.json")
        return _completed([_worker(args.workload, args.seed, "trace", deadline,
                                   spans)])[0]

    # The untraced operation runs between the traced ones, so a drift in
    # machine speed does not show up as tracing overhead.
    traced = [traced_op(0)]
    plain = _completed([_worker(args.workload, args.seed, "run", deadline)])[0]
    traced.append(traced_op(1))
    first, second = traced[0]["counts"], traced[1]["counts"]
    drift = {k: (v, second.get(k)) for k, v in first.items() if second.get(k) != v}
    if drift:
        raise BenchmarkError(f"counts differ between traced runs: {drift}")
    layers = {k: statistics.median(t["layers"][k] for t in traced)
              for k in traced[0]["layers"]}
    traced_twin = statistics.median(t["twin_s"] for t in traced)
    layers.update({"trace.twin_s": traced_twin,
                   "trace.untraced_twin_s": plain["twin_s"],
                   "trace.overhead_share": traced_twin / plain["twin_s"] - 1.0})
    metrics = {k: {"value": layers[k], "unit": unit} for k, unit in LAYER_UNITS.items()}
    return traced + [plain], traced[0]["versions"], metrics, {"notes": traced[0]["notes"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "porousda", "__init__.py")):
        print(f"error: no package source at {SRC}/porousda; run from a "
              "source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    try:
        ops, versions, metrics, summaries = (_traced if args.trace else _untraced)(
            args, deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted = sum(w["attempted"] for w in ops)
    failed = sum(w["failed"] for w in ops)
    problems = [p for w in ops for p in w["problems"]]
    wrong = [p for w in ops for p in w["wrong"]]
    detail = {"provenance": _provenance(args, versions), "summaries": summaries,
              "attempted": attempted, "failed": failed, "problems": problems,
              "wrong": wrong,
              "operations": [{k: v for k, v in w.items() if k != "versions"}
                             for w in ops]}
    path = os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1)

    _print_human(args, detail, metrics)
    print(json.dumps({"correct": not wrong,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _print_human(args, detail, metrics):
    prov = detail["provenance"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"rev={prov['git_revision'] or 'n/a'} src={prov['source_sha256'][:12]} "
          f"python={prov['python']} numpy={prov['numpy']} scipy={prov['scipy']} "
          f"nproc={prov['nproc']} blas_threads={prov['blas_threads']}")
    summaries = detail["summaries"]
    for name, m in metrics.items():
        s = summaries.get(name)
        extra = ""
        if s is not None:
            high = (f"p{s['high']['p']}={s['high']['value']:.6g}" if s["high"]
                    else "no high percentile (needs >= 11 samples)")
            extra = f"  (median of n={s['n']}; {high})"
        elif name in summaries.get("notes", {}):
            extra = f"  ({summaries['notes'][name]})"
        print(f"{name:36s} {m['value']:.6g} {m['unit']}{extra}")
    share = detail["failed"] / detail["attempted"] if detail["attempted"] else 0.0
    print(f"{'failed_share':36s} {share:.6g} failed/attempted runs "
          f"({detail['failed']}/{detail['attempted']})")
    for p in detail["problems"]:
        print(f"failed: {p}")
    for p in detail["wrong"]:
        print(f"wrong output: {p}")


if __name__ == "__main__":
    sys.exit(main())
