"""Coarse/fine time marching, twin experiments, and error metrics.

One marching core serves both the reference run and the assimilated run: per
coarse interval the transport velocity is frozen (from the pressure solve and
conservative flux recovery, from a prescribed closure, or absent), then the
fine steps advance the concentration.  With relaxation off the data stream is
never touched, so a reference run and a zero-strength assimilated run from
the same initial data produce identical floating-point trajectories.

Metrics follow the twin-experiment convention: R is the percent relative
l2 difference against the truth, Rtilde against its coarse interpolant.
The truth is the reference trajectory whenever a run is given one, as
`porousda run` and `sweep` always do, and otherwise the scenario's analytic
solution (R is NaN with neither).  A reference run's Rtilde column doubles
as the interpolation quality of the sparse data themselves.

A run stores only the fine levels it is asked to keep.  The reference run
keeps every level, because a nudged run's metrics read the reference state
at each of its levels; a nudged run keeps none unless given times to keep
(`run_assimilated`'s `keep_times`), so its memory does not grow with the
number of levels.  The reference trajectory owns what every run compared
against it needs per level, its L2 norm and its observation functionals,
and computes each once; `observe` reads a stream on a lattice from them.
A reference run has no data term, so a sweep runs one for all lattices.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import transport
from .fields import NodalField, QuadratureField, l2_diff, l2_norm
from .flux_postprocess import postprocess_flux
from .linalg import NoConvergenceError, SolverConfig
from .observation import (AlignmentError, ObservationStream, SparseGrid,
                          check_lattice)
from .pressure import CoefficientRangeError, PressureProblem, solve_pressure

METRIC_COLUMNS = ("t", "R_percent", "Rtilde_percent", "mass_residual",
                  "range_min", "range_max")


class NonFiniteStateError(RuntimeError):
    """A fine step produced a non-finite concentration."""

    def __init__(self, t, step):
        super().__init__(f"non-finite concentration at t = {t!r} "
                         f"(fine step {step})")
        self.t = t
        self.step = step


# What a run can fail with once it is under way, a coefficient out of range
# included.  The CLI and parameter_sweep report these, and only these, as
# failed runs (a sweep checks its lattices before any run).
RUN_FAILURES = (NoConvergenceError, NonFiniteStateError, CoefficientRangeError)


@dataclass(frozen=True)
class TimePartition:
    """Nested uniform partition of [0, t_end]: n_coarse equal coarse
    intervals, each of fine_per_coarse equal fine steps."""

    t_end: float
    n_coarse: int
    fine_per_coarse: int

    def __post_init__(self):
        for name in ("n_coarse", "fine_per_coarse"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {self}")
        if not (0.0 < self.t_end < math.inf and self.n_coarse >= 1
                and self.fine_per_coarse >= 1):
            raise ValueError(f"need a finite positive span and at least one "
                             f"coarse and one fine step, got {self}")

    @classmethod
    def from_scenario(cls, scenario):
        """[0, t_end] of the scenario, in whole coarse steps of its own."""
        if not (math.isfinite(scenario.dt) and scenario.dt > 0.0):
            raise ValueError(f"time step dt must be finite and positive, "
                             f"got {scenario.dt!r}")
        if not scenario.fine_per_coarse >= 1:
            raise ValueError(f"fine_per_coarse must be at least 1, "
                             f"got {scenario.fine_per_coarse!r}")
        t_end = scenario.t_end
        steps = t_end / scenario.coarse_dt
        n = round(steps) if math.isfinite(steps) else 0
        if n < 1 or abs(n * scenario.coarse_dt - t_end) > 1e-9 * max(1.0, t_end):
            raise ValueError(
                f"span {t_end} is not a whole number of coarse steps "
                f"of {scenario.coarse_dt}")
        return cls(t_end, n, scenario.fine_per_coarse)

    @property
    def coarse_times(self):
        """The measurement times, 0 to t_end."""
        return np.linspace(0.0, self.t_end, self.n_coarse + 1)

    def fine_times(self, n):
        """Times of the n-th coarse interval, endpoints included."""
        ct = self.coarse_times
        return np.linspace(ct[n], ct[n + 1], self.fine_per_coarse + 1)

    def all_times(self):
        """Every fine level once, coarse endpoints not duplicated."""
        out = [0.0]
        for n in range(self.n_coarse):
            out.extend(self.fine_times(n)[1:])
        return np.array(out)

    @property
    def fine_step(self):
        """The run's nominal fine step; see `transport.TransportStep`."""
        return self.t_end / (self.n_coarse * self.fine_per_coarse)

    def level_indices(self, times):
        """Index of the fine level at each of `times`, None where a time is
        no level."""
        levels = self.all_times()
        return [_level_index(levels, t) for t in times]

    def fine_levels(self, times, name):
        """Index of the fine level at each of `times`; raises ValueError,
        calling the time `name`, where one is no fine level of the run."""
        indices = self.level_indices(times)
        for t, i in zip(times, indices):
            if i is None:
                raise ValueError(
                    f"{name} {float(t)!r} is not a fine time level of the run "
                    f"from 0.0 to {float(self.t_end)!r} in steps "
                    f"of {float(self.fine_step)!r}")
        return indices


def _level_index(times, t):
    """Index of the entry of `times` within 1e-9 (relative) of t, or None."""
    if len(times) == 0:
        return None
    i = int(np.argmin(np.abs(times - t)))
    return i if abs(times[i] - t) <= 1e-9 * max(1.0, abs(t)) else None


class Trajectory:
    """Nodal concentration values at the fine levels a run kept.

    As the truth of nudged runs, a trajectory also owns two values per
    level that each of those runs reads: the level's L2 norm (`norm`) and
    its observation functionals on a grid (`functionals`, n_obs values, not
    the nodal interpolant).  Each is computed on first use and kept, so runs
    compared against one reference compute them once between them.
    """

    def __init__(self, mesh, times, values):
        self.mesh = mesh
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self._norms = {}           # level -> L2 norm
        self._functionals = {}     # (level, spacing, kind) -> (n_obs,)

    def __len__(self):
        return self.times.size

    def field(self, i):
        return NodalField(self.mesh, self.values[i])

    def index(self, t):
        """Index of the kept level at time t; KeyError when none is."""
        i = _level_index(self.times, t)
        if i is None:
            raise KeyError(f"no trajectory sample at t={t}")
        return i

    def at(self, t):
        return self.field(self.index(t))

    def norm(self, i):
        """L2 norm of level i."""
        if i not in self._norms:
            self._norms[i] = l2_norm(self.field(i))
        return self._norms[i]

    def functionals(self, i, grid):
        """Functional values of level i on `grid`, a SparseGrid on this
        trajectory's mesh."""
        key = (i, grid.spacing, grid.kind)
        if key not in self._functionals:
            values = grid.sample(self.field(i))
            values.flags.writeable = False     # shared by every reader
            self._functionals[key] = values
        return self._functionals[key]

    def final(self):
        return self.field(len(self) - 1)


class RunReport:
    """Per-fine-step metric table plus run-level diagnostics."""

    def __init__(self, partition):
        self.partition = partition
        self.rows = []
        self.solver_iterations = {"pressure": [], "transport": []}
        self.conservation_max = 0.0
        # (t, "lu") of every transport step whose BiCGStab broke down and
        # was solved by a sparse LU factor (see transport.step)
        self.recoveries = []
        # coarse intervals with any step solved by a sparse LU factor, chosen
        # for its cost or made after a breakdown
        self.factored_intervals = 0

    def append(self, t, r, rtilde, mass_residual, rmin, rmax):
        self.rows.append((t, r, rtilde, mass_residual, rmin, rmax))

    def column(self, name):
        i = METRIC_COLUMNS.index(name)
        return np.array([row[i] for row in self.rows])

    @property
    def times(self):
        return self.column("t")

    @property
    def r_percent(self):
        return self.column("R_percent")

    def range_violation(self):
        lo = self.column("range_min")
        hi = self.column("range_max")
        # + 0.0 turns a -0.0 (negated zero excursion) into plain 0.0
        return 0.0 + max(float(np.max(-lo, initial=0.0)),
                         float(np.max(hi - 1.0, initial=0.0)))

    def plateau_start(self):
        """First sample index after which no step moves R by more than 5 %
        of its value."""
        r = self.r_percent
        if r.size < 2:
            return 0
        steps = np.abs(np.diff(r)) > 0.05 * np.maximum(np.abs(r[:-1]), 1e-300)
        moving = np.flatnonzero(steps)
        return 0 if moving.size == 0 else int(moving[-1]) + 1

    def plateau_value(self):
        return float(np.mean(self.r_percent[self.plateau_start():]))

    def asymptote(self):
        return float(self.r_percent[-1])

    def fit_window(self):
        t = self.times
        return (float(t[0]), float(t[self.plateau_start()]))

    def post_update_improvement_fraction(self):
        """Share of coarse measurement times where the next fine step lowers R.

        Compares R one fine step after each interior coarse time against R at
        that coarse time; this is where a fresh measurement and velocity first
        act.
        """
        m = self.partition.fine_per_coarse
        r = self.r_percent
        idx = np.arange(m, r.size - 1, m)
        if idx.size == 0:
            return float("nan")
        return float(np.mean(r[idx + 1] <= r[idx]))

    def write_csv(self, path):
        _write_csv(path, METRIC_COLUMNS,
                   ([repr(float(v)) for v in row] for row in self.rows))


def _write_csv(path, header, rows):
    """Write a header and rows of strings to the file at `path`, each line
    ending in a bare newline."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@dataclass
class ReferenceRun:
    trajectory: Trajectory
    stream: ObservationStream
    report: RunReport


@dataclass
class AssimilationRun:
    trajectory: Trajectory
    report: RunReport


class _Comparator:
    """Evaluates R and Rtilde rows against analytic or trajectory truth.

    Against a reference trajectory, the level's norm and functionals come
    from the trajectory, which computes each once for every run compared
    against it (see `Trajectory`)."""

    def __init__(self, scenario, grid, reference=None):
        self.exact = scenario.exact
        self.reference = reference
        self.grid = grid

    def metrics(self, theta, t):
        ref = self.reference
        if ref is not None:
            i = ref.index(t)
            truth, denom = ref.field(i), ref.norm(i)
        elif self.exact is not None:
            fn = self.exact

            def target(x, y):
                return fn(x, y, t)

            # An analytic truth is evaluated at the quadrature points once;
            # R's numerator and denominator both read those values.
            truth = QuadratureField.sample(theta.mesh, target)
            denom = l2_norm(truth)
        else:
            return float("nan"), float("nan")
        if denom == 0.0:
            return float("nan"), float("nan")
        r = 100.0 * (l2_diff(theta, truth) / denom)
        coarse = (self.grid.reconstruct(ref.functionals(i, self.grid))
                  if ref is not None else self.grid.interpolate(
                      NodalField.from_callable(theta.mesh, target)))
        rtilde = 100.0 * (l2_diff(theta, coarse) / denom)
        return r, rtilde


def _march(scenario, partition, grid, theta0_values, mu, stream, reference,
           solver, keep=None):
    """Shared coarse/fine marching core on the mesh of `grid`, measured
    against `reference` (see `_Comparator`); returns (Trajectory, RunReport).

    `solver`, a `SolverConfig` or None for the default one, holds the
    tolerances of both the pressure and the transport solves.  `keep`, the
    indices of the fine levels to store, None for all of them, sizes the
    trajectory's storage; the other levels are never stored."""
    solver = solver or SolverConfig()
    mesh = grid.mesh
    comparator = _Comparator(scenario, grid, reference)
    coeffs = transport.TransportCoefficients(
        mesh,
        diffusion=scenario.diffusion,
        reaction=scenario.reaction,
        source=scenario.source,
        mu=mu,
        grid=grid,
        dirichlet=scenario.theta_dirichlet,
    )
    needs_pressure = scenario.kappa is not None
    problem = None
    if needs_pressure:
        problem = PressureProblem(mesh, scenario.kappa,
                                  scenario.pressure_source or (lambda x, y: np.zeros(np.shape(x))),
                                  dirichlet=scenario.pressure_dirichlet,
                                  solver=solver)

    report = RunReport(partition)
    theta = NodalField(mesh, np.array(theta0_values, dtype=float))
    m = partition.fine_per_coarse
    steps = partition.n_coarse * m
    keep = np.arange(steps + 1) if keep is None else np.unique(keep)
    slot = np.full(steps + 1, -1)     # level -> its row in the storage
    slot[keep] = np.arange(keep.size)
    times = np.empty(keep.size)
    values = np.empty((keep.size, mesh.n_vertices))
    level = 0

    def record(t, mass_residual):
        if slot[level] >= 0:
            times[slot[level]] = t
            values[slot[level]] = theta.values
        r, rtilde = comparator.metrics(theta, t)
        report.append(t, r, rtilde, mass_residual,
                      float(theta.values.min()), float(theta.values.max()))

    record(0.0, float("nan"))

    # The run steps with one velocity at a time: for the whole run when there
    # is none or it is computed once, else for one interval.
    static = scenario.velocity is None and (scenario.static_velocity
                                            or not needs_pressure)
    mass_residual, pressure_guess = float("nan"), None
    h = partition.fine_step
    for n in range(partition.n_coarse):
        if n == 0 or not static:
            # Free the last velocity's step matrices and factor before the
            # pressure transients.
            coeffs.set_velocity(None)
            if scenario.velocity is not None:
                coeffs.set_velocity(transport.prescribed_outflux(
                    mesh, scenario.velocity, theta))
            elif needs_pressure:
                pressure, prep = solve_pressure(problem, theta,
                                                x0=pressure_guess)
                pressure_guess = pressure.values
                report.solver_iterations["pressure"].append(prep.iterations)
                flux = postprocess_flux(problem, pressure, theta)
                problem.kernel = None   # its last reader was the recovery
                mass_residual = flux.max_residual
                report.conservation_max = max(report.conservation_max,
                                              mass_residual)
                coeffs.set_velocity(flux.segment_outflux)
                # The run keeps the outflux; psi and the residuals go
                # before the next pressure solve.
                del flux
            last = steps if static else level + m

        fine = partition.fine_times(n)
        factored = False
        for s0, s1 in zip(fine[:-1], fine[1:]):
            theta, rep = transport.step(theta, coeffs,
                                        transport.TransportStep(s0, s1, h),
                                        observations=stream,
                                        solver=solver,
                                        later_steps=last - level - 1)
            report.solver_iterations["transport"].append(rep.iterations)
            if rep.recovery is not None:
                report.recoveries.append((float(s1), rep.recovery))
            factored = factored or rep.factored
            level += 1
            if not np.all(np.isfinite(theta.values)):
                raise NonFiniteStateError(float(s1), level)
            record(s1, mass_residual)
        report.factored_intervals += factored

    return Trajectory(mesh, times, values), report


def observe(trajectory, grid, partition):
    """The observation stream of `trajectory`: its functionals on `grid`, a
    SparseGrid on its mesh, at every coarse time of `partition`.  The
    trajectory keeps these values, so nudged runs measured against it read
    the same ones for their Rtilde."""
    return ObservationStream(partition.coarse_times, np.array(
        [trajectory.functionals(trajectory.index(t), grid)
         for t in partition.coarse_times]))


def run_reference(scenario, partition=None, mesh=None, solver=None):
    """Advance the plain scheme from the scenario's true initial condition.

    Returns the trajectory of every fine level, its observation stream on
    the scenario's lattice (`observe`), and the metric report (R measured
    against the analytic solution when the scenario has one; Rtilde doubles
    as interpolation quality).  `solver` is the `SolverConfig` of both
    systems, the default when None.
    """
    partition = partition or TimePartition.from_scenario(scenario)
    mesh = mesh or scenario.build_mesh()
    grid = SparseGrid(mesh, scenario.spacing, kind=scenario.observation_kind)
    theta0 = NodalField.from_callable(mesh, scenario.initial).values
    traj, report = _march(scenario, partition, grid, theta0, 0.0, None, None,
                          solver)
    return ReferenceRun(traj, observe(traj, grid, partition), report)


INITIAL_POLICIES = ("zero", "interpolant", "true")


def check_initial_policy(policy):
    """The starting-concentration policy; raises ValueError unless it is one
    of `INITIAL_POLICIES`."""
    if policy not in INITIAL_POLICIES:
        raise ValueError(f"unknown initial policy {policy!r} "
                         f"(known: {', '.join(INITIAL_POLICIES)})")
    return policy


def initial_guess(scenario, grid, stream):
    """Starting concentration on the mesh of `grid` per the scenario's
    `theta0_policy`: zero, interpolant, or true."""
    policy = check_initial_policy(scenario.theta0_policy)
    if policy == "zero":
        return np.zeros(grid.mesh.n_vertices)
    if policy == "interpolant":
        if stream is None:
            raise ValueError("interpolant start requires observations")
        return grid.reconstruct(stream.interpolate(stream.times[0])).values
    return NodalField.from_callable(grid.mesh, scenario.initial).values


def run_assimilated(scenario, stream, partition=None, mesh=None, mu=None,
                    reference=None, solver=None, keep_times=()):
    """Nudged run driven by an observation stream, from the start that the
    scenario's `theta0_policy` names.

    `reference` may be a Trajectory for twin-experiment metrics, and the run
    then steps on its mesh; otherwise the scenario's analytic solution is
    used when present.  With mu = 0 the data stream is ignored entirely and
    the marching reduces to the plain scheme.  `solver` is as in
    `run_reference`.  The returned trajectory holds the fine levels at
    `keep_times` only, none by default.  A time that is not a fine level of
    the run, a `mesh` of other size or lengths than the reference's, and a
    stream of other length than the lattice's functionals raise ValueError
    before the run is set up.
    """
    partition = partition or TimePartition.from_scenario(scenario)
    keep = partition.fine_levels(keep_times, "keep time")
    if reference is not None:
        shape = _describe(reference.mesh)
        if mesh is not None and _describe(mesh) != shape:
            raise ValueError(f"mesh {_describe(mesh)} is not the reference's "
                             f"mesh {shape}")
        mesh = reference.mesh
    mesh = mesh or scenario.build_mesh()
    mu = scenario.mu if mu is None else float(mu)
    grid = SparseGrid(mesh, scenario.spacing, kind=scenario.observation_kind)
    if stream is not None and stream.n_obs != grid.n_obs:
        raise ValueError(
            f"the stream holds {stream.n_obs} functionals per record, the "
            f"lattice of spacing {grid.spacing!r} on mesh {_describe(mesh)} "
            f"has {grid.n_obs}")
    theta0 = initial_guess(scenario, grid, stream)
    traj, report = _march(scenario, partition, grid, theta0, mu, stream,
                          reference, solver, keep=np.array(keep, dtype=int))
    return AssimilationRun(traj, report)


def _describe(mesh):
    """nx x ny on Lx x Ly, exact: two meshes of one size and lengths, and
    only those, read the same."""
    return f"{mesh.nx} x {mesh.ny} on {mesh.Lx!r} x {mesh.Ly!r}"


@dataclass
class FitResult:
    rate: float
    intercept: float
    r_squared: float
    window: tuple


def fit_decay_rate(times, values=None, window=None):
    """Least-squares slope of log R against t.

    Accepts a RunReport or explicit (times, values).  Needs at least three
    strictly positive samples inside the window.
    """
    if values is None:
        report = times
        times, values = report.times, report.r_percent
        if window is None:
            window = report.fit_window()
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if window is not None:
        keep = (times >= window[0] - 1e-12) & (times <= window[1] + 1e-12)
        times, values = times[keep], values[keep]
    if times.size < 3:
        raise ValueError("need at least three samples to fit a rate")
    if np.any(values <= 0.0):
        raise ValueError("decay fit requires positive values")
    logv = np.log(values)
    slope, intercept = np.polyfit(times, logv, 1)
    resid = logv - (slope * times + intercept)
    total = logv - logv.mean()
    ss_tot = float(total @ total)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    return FitResult(float(slope), float(intercept), r2,
                     (float(times[0]), float(times[-1])))


SWEEP_COLUMNS = ("mu", "spacing", "plateau_R_percent", "rate", "status")


def parameter_sweep(scenario, mu_values=None, spacings=None, partition=None,
                    solver=None):
    """Independent assimilated runs over mu and observation-spacing grids.

    Every run steps on one mesh and one partition, built once.  One
    reference run, on the first spacing whose lattice aligns, serves every
    spacing, since it has no data term, and is observed on each lattice
    (`observe`); it holds the only stored trajectory.  Rows come back
    sorted by (spacing, mu); failures are recorded, not raised: a misaligned
    spacing's and a failed reference's in each row they stop.
    """
    mu_values = sorted(set(mu_values if mu_values is not None else [scenario.mu]))
    spacings = sorted(set(spacings if spacings is not None else [scenario.spacing]))
    mesh = scenario.build_mesh()
    partition = partition or TimePartition.from_scenario(scenario)
    rows, aligned = [], []

    def failed(mu, spacing, exc):
        return (mu, spacing, float("nan"), float("nan"), f"failed: {exc}")

    for spacing in spacings:
        try:
            check_lattice(mesh, spacing, scenario.observation_kind)
            aligned.append(spacing)
        except AlignmentError as exc:
            rows += [failed(mu, spacing, exc) for mu in mu_values]
    if aligned:
        try:
            ref = run_reference(scenario.with_overrides(spacing=aligned[0]),
                                partition, mesh, solver=solver)
        except RUN_FAILURES as exc:
            rows += [failed(mu, sp, exc) for sp in aligned for mu in mu_values]
            aligned = []
    for spacing in aligned:
        sc = scenario.with_overrides(spacing=spacing)
        stream = observe(ref.trajectory, SparseGrid(
            mesh, spacing, kind=sc.observation_kind), partition)
        for mu in mu_values:
            try:
                run = run_assimilated(sc, stream, partition, mesh, mu=mu,
                                      reference=ref.trajectory,
                                      solver=solver)
                try:
                    rate = fit_decay_rate(run.report).rate
                except ValueError:
                    rate = float("nan")
                rows.append((mu, spacing, run.report.plateau_value(), rate, "ok"))
            except RUN_FAILURES as exc:
                rows.append(failed(mu, spacing, exc))
    rows.sort(key=lambda r: (r[1], r[0]))
    return rows


def sweep_csv(rows, path):
    _write_csv(path, SWEEP_COLUMNS,
               ([repr(float(v)) for v in (mu, spacing, plateau, rate)] + [status]
                for mu, spacing, plateau, rate, status in rows))
