"""The run-level choice between BiCGStab and a sparse LU factor.

A run's first transport bundle solves its first fine step by
Jacobi-BiCGStab.  When that probe took k iterations and k times the number
of steps the bundle still has to solve exceeds sqrt(n), the step matrix is
factored and those later steps reuse the factor (for a bundle of one coarse
interval, k * (m - 1) > sqrt(n)).  From then on, every later bundle of the
run factors at its first step, without a probe, until a factor solve misses
the BiCGStab tolerance, against which each is checked; then the next bundle
probes again.  The run's first factor orders its columns by minimum degree,
and every later factor of the run reuses that ordering.  The twin cases
below run the path the driver takes; the element-kernel cases hold the
blocked kappa evaluation to the whole-array one it replaced, bitwise.
"""

import logging
import weakref

import numpy as np
import pytest

from porousda import driver, linalg, pressure, scenarios, transport
from porousda.fields import NodalField, quadrature
from porousda.flux_postprocess import postprocess_flux
from porousda.linalg import NoConvergenceError, SolverConfig
from porousda.mesh import build_mesh
from porousda.observation import SparseGrid
from porousda.scenarios import PermeabilityRaster
from porousda.transport import TransportCoefficients, TransportStep

BICGSTAB = SolverConfig(rel_tol=1e-12)


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _twin(sc):
    part = driver.TimePartition.from_scenario(sc)
    mesh = sc.build_mesh()
    ref = driver.run_reference(sc, part, mesh)
    run = driver.run_assimilated(sc, ref.stream, part, mesh,
                                 reference=ref.trajectory)
    return part, ref.report, run.report


def test_example1_factors_each_interval_after_one_bicgstab_solve(monkeypatch):
    """n = 441 and m = 10: the first solve's k iterations make 9k > 21, and
    every later interval of the run factors without that probe."""
    factors = _counting(monkeypatch, transport, "splu")
    solves = _counting(monkeypatch, linalg, "solve")
    part, *reports = _twin(scenarios.example1(nx=20, t_end=0.06))
    n, m = part.n_coarse, part.fine_per_coarse
    assert n > 1
    assert len(solves) == 2 and len(factors) == 2 * n
    for report in reports:
        assert report.factored_intervals == n
        assert report.recoveries == []
        iters = np.reshape(report.solver_iterations["transport"], (n, m))
        assert iters[0, 0] * (m - 1) > 21
        assert np.all(iters.ravel()[1:] == 0)


def test_a_run_orders_only_its_first_factor(monkeypatch):
    """Every interval of example4 at nx = 24 factors; minimum degree, the
    default ordering, runs once, on the first interval's matrix."""
    factors = _counting(monkeypatch, transport, "splu")
    sc = scenarios.example4(nx=24, t_end=6 * scenarios.DAY)
    part = driver.TimePartition.from_scenario(sc)
    ref = driver.run_reference(sc, part, sc.build_mesh())
    assert ref.report.factored_intervals == part.n_coarse == 3
    assert [args[1:] for args in factors] == [(), ("NATURAL",), ("NATURAL",)]


def test_example3_stays_on_bicgstab(monkeypatch):
    """n = 3,721 and m = 5: about 10 iterations per step, and 4 * 10 < 61.
    (At nx = 30 the first step takes 11 iterations, and 4 * 11 > 31.)"""
    factors = _counting(monkeypatch, transport, "splu")
    part, *reports = _twin(scenarios.example3(nx=60, spacing=1.0 / 30.0,
                                              t_end=0.006))
    assert factors == []
    for report in reports:
        assert report.factored_intervals == 0
        assert all(k > 0 for k in report.solver_iterations["transport"])


def _example4_interval(nx=48):
    """The first interval's coefficients and initial state of example4."""
    sc = scenarios.example4(nx=nx)
    mesh = sc.build_mesh()
    problem = pressure.PressureProblem(mesh, sc.kappa, sc.pressure_source)
    theta = NodalField.from_callable(mesh, sc.initial)
    p, _ = pressure.solve_pressure(problem, theta)
    flux = postprocess_flux(problem, p, theta)
    coeffs = TransportCoefficients(mesh, sc.diffusion, sc.reaction, sc.source,
                                   dirichlet=sc.theta_dirichlet)
    return coeffs.with_velocity(flux.segment_outflux), theta, sc.dt


def test_factored_step_agrees_with_bicgstab_on_example4():
    coeffs, theta, dt = _example4_interval()
    theta, first = transport.step(theta, coeffs, TransportStep(0.0, dt),
                                  solver=BICGSTAB, later_steps=23)
    assert first.iterations > 0 and not first.factored
    spec = TransportStep(dt, 2 * dt, dt)
    A, rhs = transport.assemble_step(theta, coeffs, spec)
    want, _ = linalg.solve(A, rhs, BICGSTAB, x0=theta.values)
    got, report = transport.step(theta, coeffs, spec, solver=BICGSTAB,
                                 later_steps=22)
    assert report.factored and report.recovery is None
    assert report.iterations == 0 and report.converged
    assert report.residual <= 1e-12 * np.linalg.norm(rhs)
    err = np.linalg.norm(got.values - want) / np.linalg.norm(want)
    assert err <= 1e-10


def _diffusion_problem():
    mesh = build_mesh(8, 8)
    coeffs = TransportCoefficients(
        mesh, diffusion=lambda x, y: 0.1 * np.ones_like(x),
        source=lambda x, y, t: np.sin(np.pi * x) * np.sin(np.pi * y))
    theta = NodalField.from_callable(mesh, lambda x, y: x * (1 - x) * y)
    return coeffs, theta


def _march(coeffs, theta, steps, dt=1.0 / 64.0):
    reports = []
    for k in range(steps):
        theta, rep = transport.step(theta, coeffs,
                                    TransportStep(k * dt, (k + 1) * dt, dt),
                                    solver=BICGSTAB, later_steps=steps - 1 - k)
        reports.append(rep)
    return theta, reports


def _inaccurate_splu(monkeypatch):
    """Factors whose solves are off by a relative 1e-6."""
    calls = []
    splu = transport.splu

    class Inaccurate:
        def __init__(self, lu):
            self.lu = lu
            self.perm_c = lu.perm_c

        def solve(self, b):
            return self.lu.solve(b) * (1.0 + 1e-6)

    def inaccurate(A, permc_spec="MMD_AT_PLUS_A"):
        calls.append(A)
        return Inaccurate(splu(A, permc_spec))

    monkeypatch.setattr(transport, "splu", inaccurate)
    return calls


def test_a_factor_that_misses_the_tolerance_falls_back_to_bicgstab(
        monkeypatch, caplog):
    coeffs, theta = _diffusion_problem()
    plain, reports = _march(coeffs.with_velocity(None), theta, 4)
    assert [r.factored for r in reports] == [False, True, True, True]
    factors = _inaccurate_splu(monkeypatch)
    coeffs, _ = _diffusion_problem()        # a new run, which probes first
    with caplog.at_level(logging.WARNING, logger="porousda"):
        got, reports = _march(coeffs.with_velocity(None), theta, 4)
    # The second step's factor solve is redone by BiCGStab, and the
    # interval is not factored again.
    assert len(factors) == 1
    assert not any(r.factored for r in reports)
    assert all(r.iterations > 0 and r.recovery is None for r in reports)
    assert "missed the tolerance" in caplog.text
    np.testing.assert_allclose(got.values, plain.values, rtol=0, atol=1e-11)


def test_a_missed_tolerance_makes_the_next_interval_probe(monkeypatch):
    coeffs, theta = _diffusion_problem()
    splu = transport.splu
    solves = _counting(monkeypatch, linalg, "solve")
    _, first = _march(coeffs.with_velocity(None), theta, 4)
    _, second = _march(coeffs.with_velocity(None), theta, 4)
    # The run factored by cost, so its next interval factors at once.
    assert [r.factored for r in first] == [False, True, True, True]
    assert all(r.factored for r in second) and len(solves) == 1
    factors = _inaccurate_splu(monkeypatch)
    _, missed = _march(coeffs.with_velocity(None), theta, 4)
    # Its first step's factor misses, so BiCGStab solves all four steps.
    assert len(factors) == 1 and len(solves) == 5
    assert not any(r.factored for r in missed)
    monkeypatch.setattr(transport, "splu", splu)
    _, probed = _march(coeffs.with_velocity(None), theta, 4)
    assert [r.factored for r in probed] == [False, True, True, True]
    assert len(solves) == 6


def test_a_reused_ordering_factors_with_the_fill_of_a_fresh_one():
    """Two nudged step matrices of example4 at nx = 48, from the velocities
    of two states: the second, factored in the first one's ordering, has
    the entries and, to roundoff, the solution of its own minimum-degree
    factor."""
    sc = scenarios.example4(nx=48)
    mesh = sc.build_mesh()
    problem = pressure.PressureProblem(mesh, sc.kappa, sc.pressure_source)
    coeffs = TransportCoefficients(
        mesh, sc.diffusion, sc.reaction, sc.source, mu=sc.mu,
        grid=SparseGrid(mesh, sc.spacing, kind=sc.observation_kind),
        dirichlet=sc.theta_dirichlet)
    matrices = []
    for theta in (NodalField.from_callable(mesh, sc.initial),
                  NodalField(mesh, np.full(mesh.n_vertices, 0.5))):
        p, _ = pressure.solve_pressure(problem, theta)
        outflux = postprocess_flux(problem, p, theta).segment_outflux
        matrices.append(coeffs.with_velocity(outflux).matrices(sc.dt)[0])
    run = coeffs.operator
    run.factor(matrices[0])
    A = matrices[1]
    fresh_run = TransportCoefficients(
        mesh, sc.diffusion, sc.reaction, sc.source, mu=sc.mu,
        grid=coeffs.grid, dirichlet=sc.theta_dirichlet).operator
    reused, fresh = run.factor(A), fresh_run.factor(A)
    assert reused.order is not None and fresh.order is None

    def fill(factor):
        return factor.lu.L.nnz + factor.lu.U.nnz

    assert abs(fill(reused) - fill(fresh)) <= 1e-3 * fill(fresh)
    rhs = A @ NodalField.from_callable(mesh, sc.initial).values
    got, report = reused.solve(A, rhs, BICGSTAB)
    want, _ = fresh.solve(A, rhs, BICGSTAB)
    assert report.factored and report.residual <= 1e-12 * np.linalg.norm(rhs)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_a_breakdown_factor_that_misses_the_tolerance_fails_the_step(monkeypatch):
    coeffs, theta = _diffusion_problem()
    solve = linalg.solve

    def breaking(A, b, config=None, **kw):
        x, report = solve(A, b, config, **kw)
        raise NoConvergenceError("bicgstab failed (info=-10)", x, report,
                                 breakdown=True)

    monkeypatch.setattr(linalg, "solve", breaking)
    _inaccurate_splu(monkeypatch)
    with pytest.raises(NoConvergenceError):
        _march(coeffs.with_velocity(None), theta, 1)


def test_driver_frees_each_interval_before_the_next_pressure_solve(monkeypatch):
    """No coefficient bundle of an earlier interval, with its step matrix and
    factor, is alive while the next pressure solve runs."""
    bundles = []
    with_velocity = TransportCoefficients.with_velocity

    def recorded(self, outflux):
        sib = with_velocity(self, outflux)
        bundles.append(weakref.ref(sib))
        return sib

    alive = []
    solve = driver.solve_pressure

    def checked(problem, theta, **kw):
        alive.append(sum(ref() is not None for ref in bundles))
        return solve(problem, theta, **kw)

    monkeypatch.setattr(TransportCoefficients, "with_velocity", recorded)
    monkeypatch.setattr(driver, "solve_pressure", checked)
    sc = scenarios.example4(nx=24, t_end=6 * scenarios.DAY)
    ref = driver.run_reference(sc, driver.TimePartition.from_scenario(sc),
                               sc.build_mesh())
    assert ref.report.factored_intervals == 3
    assert alive == [0, 0, 0]


# -- kappa by element blocks ---------------------------------------------------------

def _whole_array_kernel(problem, theta):
    """The element kernel as one (ne, 28) evaluation, before blocking."""
    mesh = problem.mesh
    quad = quadrature(mesh)
    x, y = (a.copy() for a in quad.points)
    th = np.clip(theta.corner_values() @ pressure._KERNEL_PHI.T, 0.0, 1.0)
    kq = problem.kappa(th, x, y) * np.ones_like(th)
    grad_dot = np.einsum("pad,pbd->pab", quad.dphi, quad.dphi)
    stiffness = (kq[:, :16] @ grad_dot.reshape(16, 16)).reshape(-1, 4, 4)
    return kq[:, 16:24], kq[:, 24:], stiffness * quad.weight


@pytest.mark.parametrize("factory", [scenarios.example3, scenarios.example4])
def test_blocked_kernel_equals_the_whole_array_kernel_bitwise(factory, monkeypatch):
    monkeypatch.setattr(pressure, "KERNEL_BLOCK", 100)
    sc = factory(nx=30)
    mesh = sc.build_mesh()
    blocks = pressure.kernel_point_blocks(mesh)
    assert len(blocks) == 9                # 900 elements, 100 per block
    counts = {"bilinear": 0}
    bilinear = PermeabilityRaster._bilinear

    def counted(self, x, y):
        counts["bilinear"] += 1
        return bilinear(self, x, y)

    monkeypatch.setattr(PermeabilityRaster, "_bilinear", counted)
    problem = pressure.PressureProblem(mesh, sc.kappa, sc.pressure_source)
    kernels = []
    for theta in (NodalField.from_callable(mesh, sc.initial),
                  NodalField.from_callable(mesh, lambda x, y: 1.5 * x - 0.2 * y)):
        kernels.append((pressure.element_kernel(problem, theta), theta))
    assert counts["bilinear"] == len(blocks)     # once per block per mesh
    for kernel, theta in kernels:
        want = _whole_array_kernel(problem, theta)
        for got, expect in zip((kernel.kappa_edge, kernel.kappa_seg,
                                kernel.stiffness), want):
            assert got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()


def test_example4_well_source_is_evaluated_once_per_point_set(monkeypatch):
    sc = scenarios.example4(nx=16)
    quad = quadrature(sc.build_mesh())
    calls = _counting(monkeypatch, scenarios, "bump")
    c = sc.notes["injected_concentration"]
    for t in (0.0, 3600.0, 0.3 * scenarios.DAY):
        got = sc.source(quad.x, quad.y, t)
        want = (scenarios.bump(quad.x.copy(), quad.y.copy(), 190.0, 190.0,
                               12.0, 0.0005) * c(t))
        assert got.tobytes() == want.tobytes()
    # One memo fill at the quadrature points, one fresh copy per time.
    assert len(calls) == 1 + 3
