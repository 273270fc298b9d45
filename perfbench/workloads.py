"""The three twin-experiment workloads, their sizes and their output checks.

Every workload is one operation run through the public library API: a
reference run feeding one nudged run (ex3_darcy, ex4_wells), or a parameter
sweep whose one reference feeds three nudged runs (ex1_sweep).  The benchmark
seed reaches the program only as the scenario factory's ``seed=``, which draws
the stand-in permeability raster of example3 and example4; example1 has no
raster, so ex1_sweep does the same work for every seed.

Sizes are chosen so that every run completes on the code as it stands.  The
scenario defaults are recorded next to them, because two of them fail today:
example1(nx=100) breaks down in BiCGStab (info=-10) at fine step 28 of the
reference run, and example4(nx=240) breaks down in its first coarse interval.
A default-size workload belongs in the benchmark once those runs complete.
"""

import math

DEFAULT_SEED = 20260814          # the scenario factories' default raster seed
DAY = 86400.0

# Relative tolerance for recorded R values.  Solves stop at a relative
# residual of 1e-12, which moves the percent errors R by far less than this;
# a change to what the twin experiment computes moves them by far more.
R_RTOL = 1e-5
# Per-CV balance residual of the conservative flux (acceptance criterion 7).
MAX_FLUX_RESIDUAL = 1e-12
# Rasters tried per operation, and the step between their seeds.
MAX_ATTEMPTS = 3
RETRY_STRIDE = 10**9

WORKLOADS = {
    "ex3_darcy": {
        "factory": "example3",
        "kwargs": {"nx": 240, "mu": 1000.0, "spacing": 1.0 / 30.0,
                   "t_end": 0.006},
        "defaults": {"nx": 240, "t_end": 0.024},
        "runs": ["reference", "assimilated"],
        "darcy": True,
        "seeded": True,
    },
    "ex4_wells": {
        "factory": "example4",
        "kwargs": {"nx": 120, "mu": 1e-5, "spacing": 40.0, "t_end": 8 * DAY},
        "defaults": {"nx": 240, "t_end": 30 * DAY,
                     "defect": "BiCGStab breakdown in the first interval"},
        "runs": ["reference", "assimilated"],
        "darcy": True,
        "seeded": True,
    },
    "ex1_sweep": {
        "factory": "example1",
        "kwargs": {"nx": 60, "t_end": 0.5},
        "sweep": {"mu_values": [1.0, 10.0, 100.0], "spacings": [0.1]},
        "defaults": {"nx": 100, "t_end": 0.5,
                     "defect": "BiCGStab breakdown (info=-10) at fine step 28"},
        "runs": ["reference", "assimilated", "assimilated", "assimilated"],
        "darcy": False,
        "seeded": False,
    },
}

# Final and plateau R (percent) of each nudged run, keyed by mu, recorded from
# the unmodified package.  ex3 and ex4 hold for DEFAULT_SEED only; the sweep
# has no raster and holds for every seed.
RECORDED_R = {
    "ex3_darcy": {1000.0: (0.6322668936181393, 0.6322668936181393)},
    "ex4_wells": {1e-5: (14.768056953281814, 13.922458280372137)},
    "ex1_sweep": {
        1.0: (0.0038273932102392107, 10.141748929080244),
        10.0: (0.0010799891408543453, 0.0009889047149042435),
        100.0: (0.002573502850102138, 0.002573502850102138),
    },
}


def raster_seeds(name, seed):
    """Raster seeds to try, in order, for one operation.

    Some rasters make BiCGStab break down in the ex4 reference run (about one
    seed in seven at nx=120; the same breakdown stops example4 at its default
    size).  Such an attempt is counted as failed, with its message, and the
    operation moves on to the next raster derived from the same seed, so the
    timing metrics stay measurable.  A workload without a raster gets one
    attempt.
    """
    if not WORKLOADS[name]["seeded"]:
        return [seed]
    return [seed + k * RETRY_STRIDE for k in range(MAX_ATTEMPTS)]


def make_scenario(name, raster_seed):
    """The workload's scenario; the seed only picks the raster."""
    from porousda import scenarios

    spec = WORKLOADS[name]
    kwargs = dict(spec["kwargs"])
    if spec["seeded"]:
        kwargs["seed"] = raster_seed
    return getattr(scenarios, spec["factory"])(**kwargs)


def operate(name, scenario, mesh, partition):
    """Run the workload's one operation through the public driver API."""
    from porousda import driver

    spec = WORKLOADS[name]
    if "sweep" in spec:
        return driver.parameter_sweep(scenario, partition=partition,
                                      **spec["sweep"])
    ref = driver.run_reference(scenario, partition, mesh)
    driver.run_assimilated(scenario, ref.stream, partition, mesh,
                           reference=ref.trajectory)
    return None


def check_run(name, raster_seed, kind, mu, report, steps):
    """Problems found in one run's report; an empty list means it passed."""
    import numpy as np

    spec = WORKLOADS[name]
    problems = []
    if len(report.rows) != steps + 1:
        problems.append(f"{len(report.rows) - 1} fine steps, expected {steps}")
    lo, hi = report.column("range_min"), report.column("range_max")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        problems.append("non-finite concentration")
    r = report.r_percent
    has_truth = kind == "assimilated" or name == "ex1_sweep"
    if has_truth and not np.all(np.isfinite(r)):
        problems.append("non-finite R")
    if spec["darcy"] and not report.conservation_max <= MAX_FLUX_RESIDUAL:
        problems.append(f"flux residual {report.conservation_max:.3e} "
                        f"> {MAX_FLUX_RESIDUAL:.0e}")
    recorded = RECORDED_R[name].get(mu) if kind == "assimilated" else None
    if recorded is not None and (raster_seed == DEFAULT_SEED or not spec["seeded"]):
        final, plateau = recorded
        got_final, got_plateau = report.asymptote(), report.plateau_value()
        if not math.isclose(got_final, final, rel_tol=R_RTOL):
            problems.append(f"final R {got_final!r}, recorded {final!r}")
        if not math.isclose(got_plateau, plateau, rel_tol=R_RTOL):
            problems.append(f"plateau R {got_plateau!r}, recorded {plateau!r}")
    return problems


def check_sweep_rows(rows):
    """Wrong values in the sweep's result table (failed rows are run errors)."""
    return [f"sweep row mu={mu} spacing={spacing}: non-finite plateau"
            for mu, spacing, plateau, _rate, status in rows
            if status == "ok" and not math.isfinite(plateau)]
