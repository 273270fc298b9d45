"""End-to-end acceptance checks for the assimilation package.

Each test prints one `criterion N: PASS/FAIL (...)` line (run pytest with -s
to see the lines for passing criteria; failures carry the line in their
captured output).  The whole module exercises full twin experiments and
takes a couple of minutes.
"""

import time

import numpy as np
import pytest

import dense_reference as dr
from porousda import driver, scenarios
from porousda.driver import TimePartition, fit_decay_rate, run_assimilated, \
    run_reference
from porousda.fields import NodalField, l2_diff, l2_norm, l2_norm_callable
from porousda.flux_postprocess import postprocess_flux
from porousda.linalg import SolverConfig
from porousda.mesh import build_mesh
from porousda.observation import ObservationStream, SparseGrid
from porousda.pressure import PressureProblem, assemble_pressure, \
    solve_pressure
from porousda.transport import TransportCoefficients, TransportStep, \
    assemble_step

RESULTS = []


def _record(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    RESULTS.append(line)
    print(line)
    return ok


@pytest.fixture(scope="module", autouse=True)
def _print_summary():
    yield
    print()
    for line in RESULTS:
        print(line)


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def ex2_runs():
    sc = scenarios.example2()                     # 50x50, dt=0.02
    mesh = sc.build_mesh()
    part = TimePartition.from_scenario(sc)        # t_end = 2.0
    ref = run_reference(sc, part, mesh)
    runs = {}
    for mu in (1.0, 10.0, 100.0):
        t0 = time.perf_counter()
        runs[mu] = run_assimilated(sc, ref.stream, part, mesh, mu=mu)
        runs[mu].wall = time.perf_counter() - t0
    return sc, ref, runs


@pytest.fixture(scope="module")
def ex1_runs():
    sc = scenarios.example1(nx=60)                # CI tier, spacing = 6h
    mesh = sc.build_mesh()
    part = TimePartition.from_scenario(sc)        # t_end = 0.5
    ref = run_reference(sc, part, mesh)
    runs = {mu: run_assimilated(sc, ref.stream, part, mesh, mu=mu)
            for mu in (100.0, 0.1)}
    return sc, ref, runs


@pytest.fixture(scope="module")
def ex3_runs():
    """Example-3 stand-in on the CI tier at three observation spacings,
    measured against one reference run: no lattice changes it."""
    base = scenarios.example3(nx=60)
    mesh = base.build_mesh()
    part = TimePartition.from_scenario(base.with_overrides(t_end=0.2))
    ref = run_reference(base, part, mesh)
    out = {}
    for sp in (0.2, 0.1, 1.0 / 30.0):
        sc = base.with_overrides(spacing=sp)
        stream = driver.observe(ref.trajectory, SparseGrid(mesh, sp), part)
        run = run_assimilated(sc, stream, part, mesh, mu=sc.mu,
                              reference=ref.trajectory)
        out[sp] = (sc, mesh, ref, run)
    return out


def _interp_error_at_plateau(mesh, ref, run, spacing):
    """Mean R of the raw sparse interpolant of the truth over plateau times."""
    grid = SparseGrid(mesh, spacing)
    rep = run.report
    errs = []
    for t in rep.times[rep.plateau_start()::5][:40]:
        target = ref.trajectory.at(t)
        errs.append(100.0 * (l2_diff(grid.interpolate(target), target)
                             / l2_norm(target)))
    return float(np.mean(errs))


# ---------------------------------------------------------------- criteria

@pytest.mark.xfail(
    strict=True,
    reason="the 10-step clause holds only for mu=100 at this discretization: "
    "measured R after 10 fine steps is 9.54% (mu=1), 2.22% (mu=10), "
    "0.50% (mu=100); the relative R contracts at roughly "
    "exp(-(mu + pi^2 + 1) t) (tests/test_contraction_law.py), "
    "so mu=1 and mu=10 cannot reach 1% by t=0.2 from a 100% start")
def test_criterion_1(ex2_runs):
    sc, ref, runs = ex2_runs
    ref_final = ref.report.asymptote()
    parts = [f"reference {ref_final:.4f}%"]
    ok = abs(ref_final - 0.89) <= 0.15
    for mu, run in sorted(runs.items()):
        r10 = float(np.min(run.report.r_percent[1:11]))
        final = run.report.asymptote()
        fast = r10 < 1.0
        settled = final <= ref_final + 1e-3
        quick = run.wall < 30.0
        ok = ok and fast and settled and quick
        parts.append(f"mu={mu:g}: min R in 10 steps {r10:.4f}% "
                     f"(want <1%), final {final:.4f}%, {run.wall:.1f}s")
    assert _record(1, ok, "; ".join(parts))


def test_criterion_2(ex1_runs):
    sc, ref, runs = ex1_runs
    r0 = float(runs[100.0].report.r_percent[0])
    exact_start = r0 == 100.0
    fit_big = fit_decay_rate(runs[100.0].report)
    fit_small = fit_decay_rate(runs[0.1].report, window=(0.0, 0.2))
    goldilocks = fit_big.rate < 0.0 and fit_big.r_squared >= 0.95
    ordering = abs(fit_small.rate) < abs(fit_big.rate)
    ok = exact_start and goldilocks and ordering
    assert _record(
        2, ok,
        f"R(0)={r0!r}, mu=100 rate {fit_big.rate:.2f} "
        f"(r2={fit_big.r_squared:.4f}), mu=0.1 rate {fit_small.rate:.2f}")


def test_criterion_3(ex3_runs):
    sc, mesh, ref, run = ex3_runs[1.0 / 30.0]
    gnorm = l2_norm_callable(mesh, sc.pressure_source)
    tol = 1e-10 * max(1.0, gnorm)
    post = run.report.conservation_max
    prob = PressureProblem(mesh, sc.kappa, sc.pressure_source)
    raw_worst = 0.0
    for t in (0.0, 0.1, 0.2):
        theta = ref.trajectory.at(t)
        p, _ = solve_pressure(prob, theta)
        raw = dr.raw_pressure_residuals(prob, p, theta)
        raw_worst = max(raw_worst, float(np.nanmax(np.abs(raw))))
    ok = post <= tol and raw_worst > 1e-4
    assert _record(
        3, ok,
        f"postprocessed max residual {post:.3e} <= {tol:.3e} over "
        f"{run.report.partition.n_coarse} coarse steps; raw FEM residual "
        f"{raw_worst:.3e} > 1e-4")


def test_criterion_4():
    mesh = build_mesh(100, 100)
    smooth = NodalField.from_callable(
        mesh, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    spacings = [0.2, 0.1, 0.05]
    errs = [l2_diff(SparseGrid(mesh, sp).interpolate(smooth), smooth)
            for sp in spacings]
    slope = float(np.polyfit(np.log(spacings), np.log(errs), 1)[0])
    rate_ok = abs(slope - 2.0) <= 0.2

    small = build_mesh(20, 20)
    rng = np.random.default_rng(2024)
    worst = np.inf
    for kind in ("point", "average"):
        grid = SparseGrid(small, 0.2, kind=kind)
        for _ in range(500):
            u = NodalField(small, rng.random(small.n_vertices))
            worst = min(worst, float(np.min(grid.interpolate(u).values)))
    sign_ok = worst >= 0.0
    assert _record(
        4, rate_ok and sign_ok,
        f"interpolation rate {slope:.4f} (want 2.0 +/- 0.2); "
        f"sign floor over 1000 nonnegative fields {worst:.3e}")


def test_criterion_5(ex3_runs):
    plateaus = {}
    interp = {}
    for sp, (sc, mesh, ref, run) in ex3_runs.items():
        plateaus[sp] = run.report.plateau_value()
        interp[sp] = _interp_error_at_plateau(mesh, ref, run, sp)
    order = sorted(plateaus, reverse=True)          # coarsest first
    vals = [plateaus[sp] for sp in order]
    monotone = all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    coarsest = order[0]
    beats_interp = plateaus[coarsest] < interp[coarsest]
    detail = ", ".join(f"spacing {sp:.4g}: plateau {plateaus[sp]:.4f}% "
                       f"(interpolant {interp[sp]:.4f}%)" for sp in order)
    assert _record(5, monotone and beats_interp, detail)


def test_criterion_6(ex3_runs):
    sc = scenarios.diffusion_reaction()
    mesh = sc.build_mesh()
    part = TimePartition.from_scenario(sc)
    ref = run_reference(sc, part, mesh)
    run = run_assimilated(sc, ref.stream, part, mesh, mu=sc.mu,
                          reference=ref.trajectory)
    lo = min(row[4] for row in run.report.rows)
    hi = max(row[5] for row in run.report.rows)
    in_range = lo >= -1e-8 and hi <= 1.0 + 1e-8
    # excursions must at least be *reported* for runs without the guarantee
    other = ex3_runs[0.2][3].report.range_violation()
    reported = np.isfinite(other) and other >= 0.0
    assert _record(
        6, in_range and reported,
        f"range [{lo:.3e}, {hi:.6f}] within [-1e-8, 1+1e-8] over "
        f"{len(run.report.rows)} steps; excursion reported elsewhere "
        f"({other:.3e})")


def test_criterion_7():
    mesh = build_mesh(4, 4)
    spacing = 0.25
    rng = np.random.default_rng(42)
    theta = NodalField(mesh, rng.random(mesh.n_vertices))
    kappa = lambda th, x, y: 1.0 + 0.5 * th + 0.3 * np.sin(x) * np.cos(y)
    g = lambda x, y: np.sin(np.pi * x) * np.sin(2.0 * np.pi * y) + 0.5
    p_dir = lambda x, y: 1.0 - x + 0.2 * y
    diffusion = lambda x, y: 0.05 + 0.02 * x
    reaction = lambda x, y: 0.3 + 0.1 * y
    source = lambda x, y, t: np.sin(x + t) * np.cos(y)
    th_dir = lambda x, y, t: 0.1 * t * (1.0 - x)
    grid = SparseGrid(mesh, spacing)
    d0, d1 = rng.random(grid.n_obs), rng.random(grid.n_obs)
    stream = ObservationStream([0.0, 0.02], np.vstack([d0, d1]))
    mu = 50.0

    # package pipeline with tight solves
    prob = PressureProblem(mesh, kappa, g, dirichlet=p_dir,
                           solver=SolverConfig(rel_tol=1e-13))
    a_p, rhs_p = assemble_pressure(prob, theta)
    p, _ = solve_pressure(prob, theta)
    flux = postprocess_flux(prob, p, theta)
    coeffs = TransportCoefficients(mesh, diffusion=diffusion,
                                   reaction=reaction, source=source, mu=mu,
                                   grid=grid, dirichlet=th_dir)
    coeffs.set_velocity(flux.segment_outflux)
    a_t, rhs_t = assemble_step(theta, coeffs, TransportStep(0.0, 0.02),
                               observations=stream)
    from porousda.linalg import solve
    theta_new, _ = solve(a_t, rhs_t,
                         SolverConfig(rel_tol=1e-13),
                         x0=theta.values)

    # independent dense loop build of the same coarse step
    a_dense, rhs_dense = dr.homogeneous_system(mesh, *dr.dense_pressure_system(
        mesh, kappa, g, p_dir, theta.values)[:2])
    oracle = dr.dense_coarse_step(mesh, kappa, g, p_dir, diffusion,
                                  theta.values, 0.02, 0.0, 0.02, mu, spacing,
                                  d0, d1, reaction=reaction, source=source,
                                  dirichlet=th_dir)
    gaps = {
        "pressure matrix": np.max(np.abs(a_p.toarray() - a_dense)),
        "pressure rhs": np.max(np.abs(rhs_p - rhs_dense)),
        "pressure solve": np.max(np.abs(p.values - oracle["pressure"])),
        "potential": np.max(np.abs(flux.potential.values - oracle["psi"])),
        "outflux": np.max(np.abs(flux.segment_outflux - oracle["outflux"])),
        "transport matrix": np.max(np.abs(dr.joined(a_t).toarray()
                                          - oracle["transport_matrix"])),
        "transport rhs": np.max(np.abs(rhs_t - oracle["transport_rhs"])),
        "theta step": np.max(np.abs(theta_new - oracle["theta_new"])),
    }
    worst = max(gaps.values())
    ok = worst <= 1e-12
    assert _record(7, ok, "max entrywise gap "
                   + ", ".join(f"{k} {v:.2e}" for k, v in gaps.items()))


def test_criterion_8():
    sc = scenarios.example1(nx=20)
    mesh = sc.build_mesh()
    part = TimePartition.from_scenario(sc.with_overrides(t_end=0.04))
    ref = run_reference(sc, part, mesh)
    run = run_assimilated(sc.with_overrides(theta0_policy="true"), ref.stream,
                          part, mesh, mu=0.0, reference=ref.trajectory,
                          keep_times=part.all_times())
    same_states = np.array_equal(run.trajectory.values,
                                 ref.trajectory.values)
    same_times = np.array_equal(run.trajectory.times, ref.trajectory.times)
    assert _record(8, same_states and same_times,
                   f"mu=0 trajectory bitwise equal over "
                   f"{len(ref.trajectory)} fine records: {same_states}")


def test_criterion_9():
    sc = scenarios.example4(nx=48)
    mesh = sc.build_mesh()
    part = TimePartition.from_scenario(
        sc.with_overrides(t_end=30.0 * scenarios.DAY))
    ref = run_reference(sc, part, mesh)
    run = run_assimilated(sc, ref.stream, part, mesh, mu=sc.mu,
                          reference=ref.trajectory)
    rt0 = run.report.rows[0][2]
    frac = run.report.post_update_improvement_fraction()
    ok = rt0 == 0.0 and frac >= 0.8
    assert _record(
        9, ok,
        f"30-day run completed ({part.n_coarse} coarse steps), "
        f"Rtilde(0)={rt0!r}, sawtooth improvement at {100.0 * frac:.1f}% "
        f"of coarse times (want >= 80%)")
