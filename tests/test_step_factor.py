"""The run-level choice between BiCGStab and a sparse LU factor.

A run's first velocity solves its first fine step by Jacobi-BiCGStab.  When
that probe took k iterations and k times the number of steps the velocity
still has to solve exceeds sqrt(n), the step matrix is factored and those
later steps reuse the factor (for a velocity of one coarse interval,
k * (m - 1) > sqrt(n)).  From then on, every later velocity of the run
factors at its first step, without a probe, until a factor solve misses the
BiCGStab tolerance, against which each is checked; then the next velocity
probes again.  Every factor takes the mesh's one nested-dissection ordering,
split along the observation lattice when the run nudges.  The twin cases
below run the path the driver takes; the element-kernel cases hold the
blocked kappa evaluation to the whole-array one it replaced, bitwise.
"""

import logging
import weakref

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from porousda import driver, fields, linalg, pressure, scenarios, transport
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
    """Every interval of example4 at nx = 24 factors; the dissection
    ordering is built once, at the first factor, and every factor of the
    run takes it."""
    factors = _counting(monkeypatch, transport, "splu")
    orders = _counting(monkeypatch, transport, "_dissection")
    sc = scenarios.example4(nx=24, t_end=6 * scenarios.DAY)
    part = driver.TimePartition.from_scenario(sc)
    ref = driver.run_reference(sc, part, sc.build_mesh())
    assert ref.report.factored_intervals == part.n_coarse == 3
    assert len(factors) == 3
    assert orders == [(24, 24, None)]


def test_example3_stays_on_bicgstab(monkeypatch):
    """n = 3,721 and m = 5: about 10 iterations per step, and 4 * 10 < 61.
    (At nx = 30 the first step takes 11 iterations, and 4 * 11 > 31.)"""
    factors = _counting(monkeypatch, transport, "splu")
    orders = _counting(monkeypatch, transport, "_dissection")
    part, *reports = _twin(scenarios.example3(nx=60, spacing=1.0 / 30.0,
                                              t_end=0.006))
    assert factors == [] and orders == []
    for report in reports:
        assert report.factored_intervals == 0
        assert all(k > 0 for k in report.solver_iterations["transport"])


@pytest.mark.parametrize("nx, ny, lattice", [(1, 1, None), (7, 3, None),
                                              (13, 29, (1, 1)), (30, 10, (3, 5)),
                                              (60, 60, (6, 6))])
def test_the_dissection_numbers_every_vertex_once(nx, ny, lattice):
    q = transport._dissection(nx, ny, lattice)
    np.testing.assert_array_equal(np.sort(q), np.arange((nx + 1) * (ny + 1)))


def test_the_dissection_splits_along_the_observation_lattice():
    """The first split of a 41 x 21 lattice of vertices is a column, the
    middle one, or with observation lines every 8 columns the nearer of
    columns 16 and 24 (a tie goes to the lower).  The columns left of it
    come first, then those right of it, then the separator."""
    nx, ny = 40, 20
    for lattice, split in ((None, 20), ((8, 4), 16)):
        x = transport._dissection(nx, ny, lattice) % (nx + 1)
        assert np.all(x[:split * (ny + 1)] < split)
        assert np.all(x[split * (ny + 1):-(ny + 1)] > split)
        assert np.all(x[-(ny + 1):] == split)


def test_one_dissection_per_mesh_and_lattice():
    mesh = build_mesh(12, 12)
    nudged = transport.dissection(mesh, (3, 3))
    assert transport.dissection(mesh, (3, 3)) is nudged
    assert transport.dissection(mesh) is transport.dissection(mesh, None)
    assert not np.array_equal(transport.dissection(mesh), nudged)


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
    coeffs.set_velocity(flux.segment_outflux)
    return coeffs, theta, sc.dt


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
    """`steps` steps of the run `coeffs` with a new velocity, none, as the
    driver takes them over one interval."""
    coeffs.set_velocity(None)
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

        def solve(self, b):
            return self.lu.solve(b) * (1.0 + 1e-6)

    def inaccurate(A):
        calls.append(A)
        return Inaccurate(splu(A))

    monkeypatch.setattr(transport, "splu", inaccurate)
    return calls


def test_a_factor_that_misses_the_tolerance_falls_back_to_bicgstab(
        monkeypatch, caplog):
    coeffs, theta = _diffusion_problem()
    plain, reports = _march(coeffs, theta, 4)
    assert [r.factored for r in reports] == [False, True, True, True]
    factors = _inaccurate_splu(monkeypatch)
    coeffs, _ = _diffusion_problem()        # a new run, which probes first
    with caplog.at_level(logging.WARNING, logger="porousda"):
        got, reports = _march(coeffs, theta, 4)
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
    _, first = _march(coeffs, theta, 4)
    _, second = _march(coeffs, theta, 4)
    # The run factored by cost, so its next interval factors at once.
    assert [r.factored for r in first] == [False, True, True, True]
    assert all(r.factored for r in second) and len(solves) == 1
    factors = _inaccurate_splu(monkeypatch)
    _, missed = _march(coeffs, theta, 4)
    # Its first step's factor misses, so BiCGStab solves all four steps.
    assert len(factors) == 1 and len(solves) == 5
    assert not any(r.factored for r in missed)
    monkeypatch.setattr(transport, "splu", splu)
    _, probed = _march(coeffs, theta, 4)
    assert [r.factored for r in probed] == [False, True, True, True]
    assert len(solves) == 6


def test_a_reused_ordering_factors_with_the_fill_of_a_fresh_one():
    """Two nudged step matrices of example4 at nx = 48, from the velocities
    of two states: the second, factored at the positions that the first
    fixed, has the entries of a fresh run's factor, at most 1.05 times
    those of a minimum-degree factor, and, to roundoff, the solution of
    both."""
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
        coeffs.set_velocity(outflux)
        matrices.append(coeffs.matrices(sc.dt)[0])
    coeffs.factorize(matrices[0])
    A = matrices[1]
    fresh_run = TransportCoefficients(
        mesh, sc.diffusion, sc.reaction, sc.source, mu=sc.mu,
        grid=coeffs.grid, dirichlet=sc.theta_dirichlet)
    reused, fresh = coeffs.factorize(A), fresh_run.factorize(A)
    assert reused.order is fresh.order       # one per mesh and lattice
    mmd = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
               options={"SymmetricMode": True})

    def fill(lu):
        return lu.L.nnz + lu.U.nnz

    assert fill(reused.lu) == fill(fresh.lu) <= 1.05 * fill(mmd)
    rhs = A @ NodalField.from_callable(mesh, sc.initial).values
    got, report = reused.solve(A, rhs, BICGSTAB)
    want, _ = fresh.solve(A, rhs, BICGSTAB)
    assert report.factored and report.residual <= 1e-12 * np.linalg.norm(rhs)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    want = mmd.solve(rhs)
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
        _march(coeffs, theta, 1)


def test_driver_frees_each_interval_before_the_next_pressure_solve(monkeypatch):
    """No S, E or factor of an earlier interval's velocity is alive while
    the next pressure solve runs."""
    built = []
    matrices, factorize = (TransportCoefficients.matrices,
                           TransportCoefficients.factorize)

    def recorded_matrices(self, dt):
        S, E = matrices(self, dt)
        if not any(ref() is S for ref in built):
            built.extend(weakref.ref(A) for A in (S, E))
        return S, E

    def recorded_factor(self, A):
        factor = factorize(self, A)
        built.append(weakref.ref(factor))
        return factor

    alive = []          # (S, E and factors built so far, those alive)
    solve = driver.solve_pressure

    def checked(problem, theta, **kw):
        alive.append((len(built), sum(ref() is not None for ref in built)))
        return solve(problem, theta, **kw)

    monkeypatch.setattr(TransportCoefficients, "matrices", recorded_matrices)
    monkeypatch.setattr(TransportCoefficients, "factorize", recorded_factor)
    monkeypatch.setattr(driver, "solve_pressure", checked)
    sc = scenarios.example4(nx=24, t_end=6 * scenarios.DAY)
    ref = driver.run_reference(sc, driver.TimePartition.from_scenario(sc),
                               sc.build_mesh())
    assert ref.report.factored_intervals == 3
    assert [n for _, n in alive] == [0, 0, 0]
    assert all(n > 0 for n, _ in alive[1:])


# -- kappa by element blocks ---------------------------------------------------------

def _whole_array_kernel(problem, theta):
    """The element kernel as one (ne, 28) evaluation, before blocking."""
    mesh = problem.mesh
    quad = quadrature(mesh)
    x, y = (a.reshape(-1, 28) for a in quad.points)
    th = np.clip(theta.corner_values() @ pressure._KERNEL_PHI.T, 0.0, 1.0)
    kq = problem.kappa(th, x, y) * np.ones_like(th)
    grad_dot = np.einsum("pad,pbd->pab", quad.dphi, quad.dphi)
    stiffness = (kq[:, :16] @ grad_dot.reshape(16, 16)).reshape(-1, 4, 4)
    return kq[:, 16:24], kq[:, 24:], stiffness * quad.weight


@pytest.mark.parametrize("factory", [scenarios.example3, scenarios.example4])
def test_blocked_kernel_equals_the_whole_array_kernel_bitwise(factory, monkeypatch):
    monkeypatch.setattr(fields, "KERNEL_BLOCK", 100)
    sc = factory(nx=30)
    mesh = sc.build_mesh()
    blocks = fields.kernel_point_blocks(mesh)
    assert len(blocks) == 10               # 30 element rows, 3 per block
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


@pytest.mark.parametrize("nx, ny", [(12, 8), (5, 9), (9, 6)])
def test_blocked_kernel_on_a_rectangle_equals_the_whole_array_kernel_bitwise(
        nx, ny, monkeypatch):
    """On non-square meshes, blocks of two element rows (the last one short
    when ny is odd) give the kernel of one (ne, 28) evaluation, bitwise."""
    monkeypatch.setattr(fields, "KERNEL_BLOCK", 2 * nx + 1)
    sc = scenarios.example3(nx=nx).with_overrides(ny=ny)
    mesh = sc.build_mesh()
    problem = pressure.PressureProblem(mesh, sc.kappa, sc.pressure_source)
    theta = NodalField.from_callable(mesh, lambda x, y: 1.5 * x - 0.2 * y)
    kernel = pressure.element_kernel(problem, theta)
    want = _whole_array_kernel(problem, theta)
    for got, expect in zip((kernel.kappa_edge, kernel.kappa_seg,
                            kernel.stiffness), want):
        assert got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()


def test_example4_well_profile_is_evaluated_once_per_run(monkeypatch):
    """example4's well source is `Separable`: called, it is the injection
    bump times the tidal concentration, bitwise, and a transport run
    evaluates the bump once, when it builds, not on its steps."""
    sc = scenarios.example4(nx=16)
    mesh = sc.build_mesh()
    quad = quadrature(mesh)
    c = sc.notes["injected_concentration"]
    for t in (0.0, 3600.0, 0.3 * scenarios.DAY):
        got = sc.source(quad.x, quad.y, t)
        want = (scenarios.bump(quad.x.copy(), quad.y.copy(), 190.0, 190.0,
                               12.0, 0.0005) * c(t))
        assert got.tobytes() == want.tobytes()
    calls = _counting(monkeypatch, scenarios, "bump")
    coeffs = TransportCoefficients(mesh, sc.diffusion, reaction=sc.reaction,
                                   source=sc.source)
    for t in np.arange(2 * sc.fine_per_coarse + 1) * sc.dt:
        coeffs.source_vector(t)
    injection = [args for args in calls
                 if args[2:] == (190.0, 190.0, 12.0, 0.0005)]
    assert len(injection) == 1
