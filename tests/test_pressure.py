import tracemalloc

import numpy as np
import pytest

import dense_reference as dr
from porousda import driver, linalg, scenarios
from porousda.fields import NodalField, l2_diff
from porousda.flux_postprocess import postprocess_flux
from porousda.linalg import NoConvergenceError, SolverConfig
from porousda.mesh import DIRICHLET, NEUMANN, build_mesh
from porousda.observation import SparseGrid, bilinear_prolongation
from porousda.pressure import (CoefficientRangeError, PressureProblem,
                               assemble_pressure, element_kernel,
                               solve_pressure)
from porousda.transport import TransportCoefficients


def _x_faces(x, y):
    return DIRICHLET if x in (0.0, 1.0) else NEUMANN


def test_zero_data_gives_zero_pressure():
    mesh = build_mesh(5, 5)
    prob = PressureProblem(mesh, kappa=lambda th, x, y: 1.0 + 0.0 * x,
                           source=lambda x, y: 0.0 * x)
    theta = NodalField.zeros(mesh)
    p, report = solve_pressure(prob, theta)
    np.testing.assert_allclose(p.values, 0.0, atol=1e-14)
    assert report.converged


def test_linear_pressure_reproduced():
    """kappa=1, g=0, p=1-x on the x-faces: the FEM solution is 1-x exactly."""
    mesh = build_mesh(10, 10, boundary_spec=_x_faces)
    prob = PressureProblem(mesh, kappa=lambda th, x, y: np.ones_like(x),
                           source=lambda x, y: np.zeros_like(x),
                           dirichlet=lambda x, y: 1.0 - x)
    p, _ = solve_pressure(prob, NodalField.zeros(mesh))
    np.testing.assert_allclose(p.values, 1.0 - mesh.vertices[:, 0], atol=1e-10)


def test_dirichlet_values_exact():
    mesh = build_mesh(6, 4)
    g_d = lambda x, y: np.sin(3.0 * x) + y
    prob = PressureProblem(mesh, kappa=lambda th, x, y: np.ones_like(x),
                           source=lambda x, y: np.ones_like(x), dirichlet=g_d)
    p, _ = solve_pressure(prob, NodalField.zeros(mesh))
    vb = mesh.vertices[mesh.is_dirichlet]
    np.testing.assert_array_equal(p.values[mesh.is_dirichlet],
                                  g_d(vb[:, 0], vb[:, 1]))


def test_heterogeneous_assembly_matches_dense_oracle():
    mesh = build_mesh(4, 4)
    rng = np.random.default_rng(42)
    theta = NodalField(mesh, rng.random(mesh.n_vertices))
    kappa = lambda th, x, y: 1.0 + 0.5 * th + 0.3 * np.sin(x) * np.cos(y)
    source = lambda x, y: np.sin(np.pi * x) * np.sin(2.0 * np.pi * y) + 0.5
    dirichlet = lambda x, y: 1.0 - x + 0.2 * y
    prob = PressureProblem(mesh, kappa=kappa, source=source,
                           dirichlet=dirichlet)
    a, rhs = assemble_pressure(prob, theta)
    a_ref, rhs_ref = dr.homogeneous_system(mesh, *dr.dense_pressure_system(
        mesh, kappa, source, dirichlet, theta.values)[:2])
    np.testing.assert_allclose(a.toarray(), a_ref, atol=1e-12)
    np.testing.assert_allclose(rhs, rhs_ref, atol=1e-12)

    p, _ = solve_pressure(prob, theta)
    p_ref = dr.dense_pressure_solve(mesh, kappa, source, dirichlet,
                                    theta.values)
    np.testing.assert_allclose(p.values, p_ref, atol=1e-9)


def test_manufactured_convergence_rate():
    """Second-order L2 convergence on a smooth manufactured solution."""
    exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    source = lambda x, y: 2.0 * np.pi ** 2 * exact(x, y)
    errs = []
    sizes = [8, 16, 32]
    for n in sizes:
        mesh = build_mesh(n, n)
        prob = PressureProblem(mesh, kappa=lambda th, x, y: np.ones_like(x),
                               source=source,
                               solver=SolverConfig(rel_tol=1e-13))
        p, _ = solve_pressure(prob, NodalField.zeros(mesh))
        errs.append(l2_diff(p, exact))
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert -slope == pytest.approx(2.0, abs=0.15)


def test_solution_scales_with_data():
    mesh = build_mesh(8, 8)
    kappa = lambda th, x, y: 2.0 + th
    src = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    theta = NodalField.from_callable(mesh, lambda x, y: 0.5 * x)
    p1, _ = solve_pressure(PressureProblem(mesh, kappa, src), theta)
    p5, _ = solve_pressure(
        PressureProblem(mesh, kappa, lambda x, y: 5.0 * src(x, y)), theta)
    np.testing.assert_allclose(p5.values, 5.0 * p1.values, atol=1e-9)


def test_energy_stays_below_frozen_bound():
    """Regression guard: discrete energy norm vs source norm on 16x16."""
    mesh = build_mesh(16, 16)
    src = lambda x, y: np.cos(2.0 * np.pi * x) + x * y
    prob = PressureProblem(mesh, kappa=lambda th, x, y: 1.0 + 0.5 * th,
                           source=src)
    theta = NodalField.from_callable(mesh, lambda x, y: x * (1.0 - y))
    a, rhs = assemble_pressure(prob, theta)
    p, _ = solve_pressure(prob, theta)
    free = mesh.free_vertices
    p_free = p.values[free]
    energy = float(np.sqrt(p_free @ (a[free][:, free] @ p_free)))
    from porousda.fields import l2_norm_callable
    # measured 0.183..0.186 across variants; freeze a one-sided bound
    assert energy <= 0.28 * l2_norm_callable(mesh, src)


def test_nonpositive_kappa_rejected():
    mesh = build_mesh(3, 3)
    theta = NodalField.zeros(mesh)
    bad = PressureProblem(mesh, kappa=lambda th, x, y: 0.0 * x,
                          source=lambda x, y: 0.0 * x)
    with pytest.raises(CoefficientRangeError):
        assemble_pressure(bad, theta)
    nonfinite = PressureProblem(mesh, kappa=lambda th, x, y: np.inf + 0.0 * x,
                                source=lambda x, y: 0.0 * x)
    with pytest.raises(CoefficientRangeError):
        assemble_pressure(nonfinite, theta)
    # The message names the first offending value, not the smallest one,
    # and an all-NaN kappa is a range error, not a warning.
    for kappa, found in ((lambda th, x, y: np.where(x > 0.5, np.inf, 2.0), "inf"),
                         (lambda th, x, y: np.nan + 0.0 * x, "nan"),
                         (lambda th, x, y: 0.0 * x, "0.0")):
        problem = PressureProblem(mesh, kappa=kappa, source=lambda x, y: 0.0 * x)
        with pytest.raises(CoefficientRangeError,
                           match=f"kappa must be positive and finite, found {found}$"):
            assemble_pressure(problem, theta)


def test_kappa_range_checked_at_flux_recovery_points():
    """kappa vanishing only on the bottom boundary edge is caught: the check
    covers the edge quarter points, not just the quadrature points."""
    mesh = build_mesh(3, 3)
    theta = NodalField.zeros(mesh)
    edge_zero = PressureProblem(mesh, kappa=lambda th, x, y: np.where(y == 0.0, 0.0, 1.0),
                                source=lambda x, y: 0.0 * x)
    with pytest.raises(CoefficientRangeError):
        assemble_pressure(edge_zero, theta)
    with pytest.raises(CoefficientRangeError):
        postprocess_flux(edge_zero, NodalField.zeros(mesh), theta)


def test_theta_clamped_before_kappa():
    mesh = build_mesh(3, 3)
    seen = {}

    def kappa(th, x, y):
        seen["lo"], seen["hi"] = float(np.min(th)), float(np.max(th))
        return np.ones_like(x)

    wild = NodalField.from_callable(mesh, lambda x, y: 10.0 * (x - 0.5))
    assemble_pressure(PressureProblem(mesh, kappa,
                                      lambda x, y: 0.0 * x), wild)
    assert seen["lo"] >= 0.0 and seen["hi"] <= 1.0


def test_solver_failure_propagates():
    """32x32 has a multigrid level (a 12x12 mesh has none, and CG with the
    exact coarsest solve converges in one iteration)."""
    mesh = build_mesh(32, 32)
    prob = PressureProblem(mesh, kappa=lambda th, x, y: np.ones_like(x),
                           source=lambda x, y: np.ones_like(x),
                           solver=SolverConfig(rel_tol=1e-14, max_iter=1))
    assert len(prob.transfers) == 2
    with pytest.raises(NoConvergenceError):
        solve_pressure(prob, NodalField.zeros(mesh))


def _mixed_faces(x, y):
    """Dirichlet on the left face and the left half of the bottom face."""
    return DIRICHLET if x == 0.0 or (y == 0.0 and x < 0.5) else NEUMANN


def _hetero_kappa(th, x, y):
    return (1.0 + 0.5 * th) * np.exp(2.0 * np.sin(3.0 * x) * np.cos(2.0 * y))


def _wavy_source(x, y):
    return np.cos(np.pi * x) * np.cos(np.pi * y)


def _mixed_problem(nx):
    mesh = build_mesh(nx, nx, boundary_spec=_mixed_faces)
    prob = PressureProblem(mesh, _hetero_kappa, _wavy_source,
                           dirichlet=lambda x, y: 1.0 + 0.3 * y)
    theta = NodalField.from_callable(mesh, lambda x, y: x * (1.0 - y))
    return mesh, prob, theta


def test_default_solver_is_the_driver_pressure_solver(monkeypatch):
    """A problem's default config is the one a driver run gives both of its
    systems when it is passed none."""
    _, prob, _ = _mixed_problem(4)
    assert prob.solver == SolverConfig()
    configs = []
    solve = linalg.solve

    def recorded(A, b, config=None, **kw):
        configs.append((config, kw.get("transfers") is not None))
        return solve(A, b, config, **kw)

    monkeypatch.setattr(linalg, "solve", recorded)
    sc = scenarios.example3(nx=30)
    driver.run_reference(sc, driver.TimePartition(sc.coarse_dt, 1, 1))
    assert configs == [(prob.solver, True), (prob.solver, False)]


def test_v_cycle_is_symmetric_positive_definite():
    _, prob, theta = _mixed_problem(32)
    assert len(prob.transfers) == 2          # 32 -> 16 -> 8 cells
    a, _ = assemble_pressure(prob, theta)
    precondition = linalg.multigrid_cycle(a, prob.transfers)
    rng = np.random.default_rng(3)
    r1, r2 = rng.standard_normal((2, a.shape[0]))
    z1, z2 = precondition(r1), precondition(r2)
    assert abs(z1 @ r2 - r1 @ z2) <= 1e-13 * np.linalg.norm(z1) * np.linalg.norm(r2)
    assert z1 @ r1 > 0.0 and z2 @ r2 > 0.0


def test_multigrid_cg_matches_jacobi_cg_and_dense_oracle():
    mesh, prob, theta = _mixed_problem(16)
    assert len(prob.transfers) == 1          # 16 -> 8 cells
    p_mg, rep_mg = solve_pressure(prob, theta)
    p_jac, jac_iterations = dr.jacobi_cg_pressure(prob, theta)
    p_ref = dr.dense_pressure_solve(mesh, _hetero_kappa, _wavy_source,
                                    prob.dirichlet, theta.values)
    assert rep_mg.converged and rep_mg.iterations < jac_iterations
    scale = np.max(np.abs(p_ref))
    np.testing.assert_allclose(p_mg.values, p_jac, atol=1e-10 * scale)
    np.testing.assert_allclose(p_mg.values, p_ref, atol=1e-10 * scale)


@pytest.mark.parametrize("nx", [60, 120, 240])
def test_multigrid_iterations_stay_bounded_on_example3(nx):
    """Jacobi-CG takes 195 / 394 / 792 iterations on these meshes."""
    sc = scenarios.example3(nx=nx)
    mesh = sc.build_mesh()
    prob = PressureProblem(mesh, sc.kappa, sc.pressure_source)
    _, report = solve_pressure(prob, NodalField.from_callable(mesh, sc.initial))
    assert report.converged and report.iterations <= 20


@pytest.mark.parametrize("nx, ny, lx", [(128, 32, 1.0), (32, 32, 4.0)])
def test_multigrid_iterations_stay_bounded_on_stretched_elements(nx, ny, lx):
    """Cells four times wider than tall give the stiffness positive
    off-diagonal entries.  With damped Jacobi (weight 0.8) as the smoother,
    multigrid CG took 1126 / 291 iterations here, where Jacobi-CG takes
    549 / 310; the l1 smoother takes 30 / 32."""
    mesh = build_mesh(nx, ny, lx, 1.0, boundary_spec=_mixed_faces)
    theta = NodalField.from_callable(mesh, lambda x, y: x / lx)
    prob = PressureProblem(mesh, _hetero_kappa, _wavy_source)
    p, report = solve_pressure(prob, theta)
    assert report.converged and report.iterations <= 40
    p_jac, _ = dr.jacobi_cg_pressure(prob, theta)
    np.testing.assert_allclose(p.values, p_jac, atol=1e-10)


@pytest.mark.parametrize("nx, spec", [(15, "all_dirichlet"), (15, "all_neumann"),
                                      (16, "all_neumann"), (64, "all_neumann")])
def test_multigrid_without_halving_or_dirichlet_solves_or_raises_typed(nx, spec):
    """An odd mesh has one level, a direct solve; an all-Neumann mesh fixes p
    only up to a constant.  Either solves or raises NoConvergenceError,
    never a raw SuperLU RuntimeError."""
    mesh = build_mesh(nx, nx, boundary_spec=spec)
    prob = PressureProblem(mesh, _hetero_kappa, _wavy_source)
    theta = NodalField.zeros(mesh)
    try:
        p, report = solve_pressure(prob, theta)
    except NoConvergenceError:
        return
    p_jac, _ = dr.jacobi_cg_pressure(prob, theta)
    if spec == "all_dirichlet":
        assert prob.transfers == [] and report.iterations <= 1
    shift = np.mean(p.values - p_jac)   # 0 unless all-Neumann
    np.testing.assert_allclose(p.values - shift, p_jac, atol=1e-10)


@pytest.mark.parametrize("nx", [64, 128])
def test_multigrid_cg_converges_on_all_neumann_meshes(nx):
    """Without a Dirichlet vertex the V-cycle fed constant components into
    the search directions, and multigrid CG stalled near a residual of 1e-8
    with NoConvergenceError on these meshes; it now converges like the
    others and matches Jacobi-CG up to the free constant."""
    mesh = build_mesh(nx, nx, boundary_spec="all_neumann")
    kappa = lambda th, x, y: 1.0 + 0.5 * x * y
    theta = NodalField.zeros(mesh)
    prob = PressureProblem(mesh, kappa, _wavy_source)
    p, report = solve_pressure(prob, theta)
    assert report.converged and report.iterations <= 20
    p_jac, _ = dr.jacobi_cg_pressure(prob, theta)
    shift = np.mean(p.values - p_jac)
    np.testing.assert_allclose(p.values - shift, p_jac,
                               atol=1e-9 * np.max(np.abs(p_jac)))


# (factory, nx, CG iterations of the two solves of `_darcy_system`), the
# counts measured with the free-vertex system and its free-vertex transfers.
DARCY_MESHES = [(scenarios.example3, 48, (9, 12)),
                (scenarios.example4, 24, (7, 7))]


def _darcy_system(factory, nx):
    sc = factory(nx=nx)
    mesh = sc.build_mesh()
    prob = PressureProblem(mesh, sc.kappa, sc.pressure_source,
                           dirichlet=sc.pressure_dirichlet)
    return mesh, prob, NodalField.from_callable(mesh, sc.initial)


def _unit_dirichlet(A, fixed):
    """Unit rows and zero columns at the boolean mask `fixed`."""
    unit = np.eye(A.shape[0])[fixed]
    return (np.array_equal(A[fixed].toarray(), unit)
            and np.array_equal(A[:, fixed].toarray(), unit.T))


@pytest.mark.parametrize("factory, nx, iterations", DARCY_MESHES,
                         ids=["example3", "example4"])
def test_gathered_blocks_equal_the_sliced_blocks_bitwise(factory, nx,
                                                         iterations):
    """The free block of the pressure system and its rhs in the free rows
    equal, bitwise, the free block of the summed stiffness and the load
    lifted by its free-rows, Dirichlet-columns block: the free-vertex
    system that was gathered from the stiffness data before."""
    mesh, prob, theta = _darcy_system(factory, nx)
    a, rhs = assemble_pressure(prob, theta)
    pattern = linalg.stencil(mesh)
    stiffness = pattern.matrix(
        pattern.sum_blocks(element_kernel(prob, theta).stiffness))
    free, fixed = mesh.free_vertices, mesh.dirichlet_vertices
    assert fixed.size
    got, want = a[free][:, free], stiffness[free][:, free]
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    lifted = (prob.load[free]
              - stiffness[free][:, fixed] @ prob.dirichlet_values(fixed))
    assert rhs[free].tobytes() == lifted.tobytes()


@pytest.mark.parametrize("factory, nx, iterations", DARCY_MESHES,
                         ids=["example3", "example4"])
def test_pressure_system_has_unit_dirichlet_rows_and_zero_columns(
        factory, nx, iterations):
    """The pressure system's Dirichlet rows are unit rows, its Dirichlet
    columns zero, and its rhs zero in the Dirichlet rows; the stencil's
    `dirichlet_columns` are the int32 slots of every Dirichlet column."""
    mesh, prob, theta = _darcy_system(factory, nx)
    a, rhs = assemble_pressure(prob, theta)
    pattern = linalg.stencil(mesh)
    assert mesh.dirichlet_vertices.size
    assert not rhs[mesh.dirichlet_vertices].any()
    assert _unit_dirichlet(a, mesh.is_dirichlet)
    assert pattern.dirichlet_columns.dtype == np.int32
    np.testing.assert_array_equal(
        pattern.dirichlet_columns,
        np.flatnonzero(mesh.is_dirichlet[pattern.indices]))


def test_pressure_blocks_share_their_pattern():
    """Two pressure matrices of one mesh share the stencil's read-only
    index arrays, so neither can be compacted in place."""
    sc = scenarios.example3(nx=16)
    mesh = sc.build_mesh()
    prob = PressureProblem(mesh, sc.kappa, sc.pressure_source,
                           dirichlet=sc.pressure_dirichlet)
    theta = NodalField.from_callable(mesh, sc.initial)
    a, _ = assemble_pressure(prob, theta)
    b, _ = assemble_pressure(prob, NodalField(mesh, 0.5 * theta.values))
    pattern = linalg.stencil(mesh)
    for m in (a, b):
        assert np.shares_memory(m.indices, pattern.indices)
        assert np.shares_memory(m.indptr, pattern.indptr)
    assert not a.indices.flags.writeable
    with pytest.raises(ValueError):
        a.eliminate_zeros()


@pytest.mark.parametrize("factory, nx, iterations", DARCY_MESHES,
                         ids=["example3", "example4"])
def test_every_galerkin_level_keeps_unit_dirichlet_rows(factory, nx,
                                                        iterations):
    """Each coarse level P^T A P has unit rows and zero columns at the
    coarse vertices on fixed fine ones, and its free block equals the
    Galerkin product of the free blocks with the free-vertex prolongation
    (the level solved before) value for value."""
    mesh, prob, theta = _darcy_system(factory, nx)
    a, _ = assemble_pressure(prob, theta)
    fixed = mesh.is_dirichlet
    lattice = (mesh.nx, mesh.ny)
    assert prob.transfers
    for P, R in prob.transfers:
        coarse = fixed.reshape(lattice[1] + 1, lattice[0] + 1)[::2, ::2].ravel()
        # The free-vertex prolongation, built as it was built before.
        P_free = bilinear_prolongation(*lattice, 2, 2)[~fixed][:, ~coarse].tocsr()
        P_free.eliminate_zeros()
        free_product = P_free.T.tocsr() @ a[~fixed][:, ~fixed] @ P_free
        a = (R @ a @ P).tocsr()
        assert coarse.any() and _unit_dirichlet(a, coarse)
        assert (a[~coarse][:, ~coarse] != free_product).nnz == 0
        fixed, lattice = coarse, (lattice[0] // 2, lattice[1] // 2)


@pytest.mark.parametrize("factory, nx, iterations", DARCY_MESHES,
                         ids=["example3", "example4"])
def test_multigrid_cg_takes_the_free_systems_iterations(factory, nx,
                                                        iterations):
    """Multigrid CG on the homogeneous stencil system takes, at the
    scenario's initial concentration and then from that pressure at
    1 - theta, the iterations it took on the free-vertex system, and the
    Dirichlet values are exact."""
    mesh, prob, theta = _darcy_system(factory, nx)
    p, first = solve_pressure(prob, theta)
    q, second = solve_pressure(prob, NodalField(mesh, 1.0 - theta.values),
                               x0=p.values)
    assert (first.iterations, second.iterations) == iterations
    fixed = mesh.dirichlet_vertices
    for field in (p, q):
        assert np.array_equal(field.values[fixed],
                              prob.dirichlet_values(fixed))


# -- what one Darcy interval allocates ---------------------------------------

def _base(array):
    while array.base is not None:
        array = array.base
    return array


def test_element_kernel_pins_no_whole_point_array():
    """The kernel keeps the stiffness and kappa at the 12 recovery points;
    kappa at all 28 points per element lives one block at a time."""
    sc = scenarios.example3(nx=30)
    mesh = sc.build_mesh()
    prob = PressureProblem(mesh, sc.kappa, sc.pressure_source,
                           dirichlet=sc.pressure_dirichlet)
    kernel = element_kernel(prob, NodalField.from_callable(mesh, sc.initial))
    ne = mesh.n_elements
    assert kernel.kappa_recovery.shape == (ne, 12)
    assert _base(kernel.kappa_edge) is kernel.kappa_recovery
    assert _base(kernel.kappa_seg) is kernel.kappa_recovery
    for array in (kernel.kappa_recovery, kernel.stiffness):
        assert _base(array).size <= 16 * ne


def test_one_darcy_interval_allocates_at_most_80_element_arrays():
    """The peak that a pressure solve and its flux recovery allocate above
    what is live at the interval's start, in (ne,) float arrays.  The mesh
    constants are built by a first interval; the raster lookup keeps
    nothing, so it is made inside the traced one, block by block.  It was
    108 arrays, at nx = 120 as at 240, when the kernel kept kappa at all 28
    points and the recovery made its temporaries whole, and 72 (56 at
    nx = 240) with the raster's values kept at the kernel points; it is 69
    now (56 at nx = 240)."""
    sc = scenarios.example3(nx=120)
    mesh = sc.build_mesh()
    prob = PressureProblem(mesh, sc.kappa, sc.pressure_source,
                           dirichlet=sc.pressure_dirichlet)
    theta = NodalField.from_callable(mesh, sc.initial)
    p, _ = solve_pressure(prob, theta)
    postprocess_flux(prob, p, theta)
    prob.kernel = None
    theta = NodalField(mesh, 0.5 * theta.values)
    tracemalloc.start()
    try:
        p, _ = solve_pressure(prob, theta, x0=p.values)
        postprocess_flux(prob, p, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * mesh.n_elements) <= 80


@pytest.fixture(scope="module")
def ex3_set_up():
    """example3 at nx = 240 with its mesh constants built, as a reference
    run leaves them: the point set and its blocks, the stencil and the
    multigrid transfers."""
    sc = scenarios.example3(nx=240)
    mesh = sc.build_mesh()
    grid = SparseGrid(mesh, sc.spacing)
    TransportCoefficients(mesh, sc.diffusion)
    PressureProblem(mesh, sc.kappa, sc.pressure_source,
                    dirichlet=sc.pressure_dirichlet)
    return sc, mesh, grid


def _nudged_run(sc, mesh, grid):
    return lambda: TransportCoefficients(mesh, sc.diffusion, mu=sc.mu,
                                         grid=grid)


def _pressure_problem(sc, mesh, grid):
    return lambda: PressureProblem(mesh, sc.kappa, sc.pressure_source,
                                   dirichlet=sc.pressure_dirichlet)


def _pressure_solve(sc, mesh, grid):
    prob = _pressure_problem(sc, mesh, grid)()
    theta = NodalField.from_callable(mesh, sc.initial)
    p, _ = solve_pressure(prob, theta)
    prob.kernel = None
    return lambda: solve_pressure(prob, theta, x0=p.values)


def _step_matrices(sc, mesh, grid):
    coeffs = _nudged_run(sc, mesh, grid)()
    coeffs.set_velocity(np.random.default_rng(5).standard_normal(
        mesh.n_segments))
    return lambda: coeffs.matrices(sc.dt)


@pytest.mark.parametrize("call, less_kept, above", [
    (_nudged_run, False, 13), (_pressure_problem, True, 24),
    (_pressure_solve, False, 57), (_step_matrices, True, 4)],
    ids=["transport-coefficients", "pressure-problem", "pressure-solve",
         "step-matrices"])
def test_a_run_set_up_allocates_little_above_what_it_keeps(ex3_set_up, call,
                                                           less_kept, above):
    """The peak a call allocates above its entry, in (ne,) float arrays at
    nx = 240: the nudged run's `TransportCoefficients` whole, and less what
    it keeps, the `PressureProblem` and one `matrices(dt)` with a velocity;
    and a pressure solve whole, after a first solve on the mesh.
    Scattered over the whole mesh at once, the problem and the matrices
    were about 60 and 19 arrays above what they keep; one block of element
    rows at a time, 20 and 0.  Less what it keeps, the run was 69, 40, 27
    (the coupling joined to the pattern in int32), 10.9 (kept as its
    factors) and 0.17 (summed on the stencil's own slots); that 0.17 held
    only while its per-run upwind slots, 16 ne int32, came after a
    one-block transient that it then covered.  With the slots taken from
    the stencil, the run kept 19.1 and peaked at 21.7 above its entry, where
    it peaked at 27.4 with them, so the bound is on the peak; with M summed
    by `matrices` instead of kept, it keeps 10.1 and peaks at 12.7.
    `matrices` sums M one block at a time into S0's array, 2.3 arrays above
    what it keeps, where it was 0.03 with M kept.  The pressure solve peaks
    at 55.9 in its multigrid set-up; on the free-vertex system, gathered
    from the stiffness data at every solve, it peaked at 55.5, and the
    first solve on a mesh also built the gathers, 9.9 arrays kept."""
    call = call(*ex3_set_up)
    tracemalloc.start()
    try:
        kept = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    held = peak - current if less_kept else peak
    assert held / (8 * ex3_set_up[1].n_elements) <= above
