import dataclasses
import tracemalloc

import numpy as np
import pytest

import dense_reference as dr
from porousda import driver, fields, linalg, scenarios, transport
from porousda.fields import NodalField, l2_diff
from porousda.flux_postprocess import postprocess_flux
from porousda.linalg import NoConvergenceError, SolverConfig
from porousda.mesh import DIRICHLET, NEUMANN, build_mesh
from porousda.observation import SparseGrid, _linear_interpolation
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
    free = dr.free_vertices(mesh)
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


def test_kappa_range_checked_at_flux_recovery_points(monkeypatch):
    """kappa vanishing only on the bottom boundary edge is caught: the
    recovery checks its edge quarter points, where the pressure assembly,
    which reads the quadrature points only, does not look.  On the driver's
    path, the flux recovery of interval 1 raises after its pressure solve
    and before any transport step."""
    def edge_zero(th, x, y):
        return np.where(y == 0.0, 0.0, 1.0)

    mesh = build_mesh(3, 3)
    theta = NodalField.zeros(mesh)
    problem = PressureProblem(mesh, kappa=edge_zero,
                              source=lambda x, y: 0.0 * x)
    with pytest.raises(CoefficientRangeError):
        postprocess_flux(problem, NodalField.zeros(mesh), theta)

    calls = {"solves": 0, "steps": 0}
    solve = driver.solve_pressure

    def counted_solve(*args, **kwargs):
        calls["solves"] += 1
        return solve(*args, **kwargs)

    def no_step(*args, **kwargs):
        calls["steps"] += 1
        raise AssertionError("a transport step ran")

    monkeypatch.setattr(driver, "solve_pressure", counted_solve)
    monkeypatch.setattr(transport, "step", no_step)
    sc = scenarios.example3(nx=30).with_overrides(kappa=edge_zero)
    with pytest.raises(CoefficientRangeError):
        driver.run_reference(sc, driver.TimePartition.from_scenario(sc),
                             sc.build_mesh())
    assert calls == {"solves": 1, "steps": 0}


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
    assert len(prob.hierarchy) == 3
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
        configs.append((config, kw.get("hierarchy") is not None))
        return solve(A, b, config, **kw)

    monkeypatch.setattr(linalg, "solve", recorded)
    sc = scenarios.example3(nx=30)
    driver.run_reference(sc, driver.TimePartition(sc.coarse_dt, 1, 1))
    assert configs == [(prob.solver, True), (prob.solver, False)]


def test_v_cycle_is_symmetric_positive_definite():
    _, prob, theta = _mixed_problem(32)
    assert len(prob.hierarchy) == 3          # 32 -> 16 -> 8 cells
    a, _ = assemble_pressure(prob, theta)
    precondition = linalg.multigrid_cycle(a, prob.hierarchy)
    rng = np.random.default_rng(3)
    r1, r2 = rng.standard_normal((2, a.shape[0]))
    z1, z2 = precondition(r1), precondition(r2)
    assert abs(z1 @ r2 - r1 @ z2) <= 1e-13 * np.linalg.norm(z1) * np.linalg.norm(r2)
    assert z1 @ r1 > 0.0 and z2 @ r2 > 0.0


def test_multigrid_cg_matches_jacobi_cg_and_dense_oracle():
    mesh, prob, theta = _mixed_problem(16)
    assert len(prob.hierarchy) == 2          # 16 -> 8 cells
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
        assert prob.hierarchy == [] and report.iterations <= 1
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
        pattern.sum_blocks(dr.full_stiffness(
            element_kernel(prob, theta).stiffness)))
    free, fixed = dr.free_vertices(mesh), mesh.dirichlet_vertices
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
    (the level solved before) to 1e-14 relative: the stencil form sums the
    same products in another order."""
    mesh, prob, theta = _darcy_system(factory, nx)
    a, _ = assemble_pressure(prob, theta)
    hierarchy = prob.hierarchy
    assert len(hierarchy) > 1
    for fine, coarse in zip(hierarchy, hierarchy[1:]):
        fixed, fixed_coarse = fine.fixed.ravel(), coarse.fixed.ravel()
        # The free-vertex prolongation, built as it was built before.
        P_free = dr.bilinear_prolongation(fine.nx, fine.ny, 2, 2)[~fixed][
            :, ~fixed_coarse].tocsr()
        P_free.eliminate_zeros()
        free_product = P_free.T.tocsr() @ a[~fixed][:, ~fixed] @ P_free
        a = linalg._galerkin_level(a, fine, coarse)
        assert fixed_coarse.any() and _unit_dirichlet(a, fixed_coarse)
        gap = abs(a[~fixed_coarse][:, ~fixed_coarse] - free_product).max()
        assert gap <= 1e-14 * abs(free_product).max()


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


def _odd_dirichlet_end(x, y):
    # The left side's first 11 edges: the Dirichlet run ends at the odd
    # vertex 11, between a fixed and a free coarse vertex.
    return DIRICHLET if x == 0.0 and y < 0.33 else NEUMANN


def _galerkin_case(case):
    """(mesh, pressure matrix, hierarchy) of the boundary cases of the
    stencil hierarchy: example3 at nx = 240, all-Dirichlet and blocked;
    example2 at nx = 50, Dirichlet on the x faces only, which halves to
    the odd 25 x 25; 34 x 18, which halves once to the odd 17 x 9; 64 x 64
    without Dirichlet vertices, which halves three times and pins one
    coarsest vertex; and 32 x 32 with a Dirichlet run that ends at an odd
    vertex on both levels, where a fixed fine vertex sits between a fixed
    and a free coarse one."""
    if case == "example3":
        mesh, prob, theta = _darcy_system(scenarios.example3, 240)
    else:
        mesh = {"example2": lambda: scenarios.example2(nx=50).build_mesh(),
                "odd": lambda: build_mesh(34, 18, 1.7, 0.9),
                "all-neumann": lambda: build_mesh(
                    64, 64, boundary_spec="all_neumann"),
                "odd-dirichlet-end": lambda: build_mesh(
                    32, 32, boundary_spec=_odd_dirichlet_end)}[case]()
        prob = PressureProblem(mesh, _hetero_kappa, _wavy_source)
        theta = NodalField.from_callable(mesh, lambda x, y: x * (1.0 - y))
    return mesh, assemble_pressure(prob, theta)[0], prob.hierarchy


GALERKIN_CASES = ["example3", "example2", "odd", "all-neumann",
                  "odd-dirichlet-end"]


@pytest.mark.parametrize("case", GALERKIN_CASES)
def test_slice_transfers_equal_the_csr_products(case):
    """The slice-applied P of every level equals the masked CSR
    prolongation the package kept before (`dense_reference
    .multigrid_transfers`) bitwise: each fine value sums the same products
    in the same order.  P^T, applied along x and then along y, sums another
    order and equals the CSR product to roundoff, within 9 eps of the sum
    of its terms' magnitudes; both for random values and for values zero
    at the fixed vertices, as the V-cycle's residuals are."""
    mesh, _, hierarchy = _galerkin_case(case)
    oracle = dr.multigrid_transfers(mesh)
    assert len(oracle) == len(hierarchy) - 1 + (not mesh.is_dirichlet.any())
    rng = np.random.default_rng(7)
    for (P, R), fine, coarse in zip(oracle, hierarchy, hierarchy[1:]):
        transfer = linalg._Transfer(fine, coarse)
        coarse_values = rng.standard_normal(P.shape[1])
        assert transfer.prolong(coarse_values).tobytes() == (
            P @ coarse_values).tobytes()
        fine_values = rng.standard_normal(P.shape[0])
        for values in (fine_values, np.where(fine.fixed.ravel(), 0.0,
                                             fine_values)):
            bound = 9 * np.finfo(float).eps * (abs(R) @ abs(values))
            assert np.all(abs(transfer.restrict(values) - R @ values) <= bound)


@pytest.mark.parametrize("case, block", [
    ("example3", fields.KERNEL_BLOCK), ("example2", 50), ("odd", 50),
    ("all-neumann", 50), ("odd-dirichlet-end", 50)])
def test_stencil_galerkin_levels_equal_the_csr_products(monkeypatch, case,
                                                        block):
    """Every coarse level summed in stencil form (`linalg._galerkin_level`)
    equals the Galerkin product R @ A @ P of the CSR transfers, formed a
    block of rows at a time as the package formed it
    (`dense_reference.galerkin_product`), to 1e-14 relative, on the coarse
    lattice's pattern.  Each level is summed in bands of coarse rows: 16 at
    example3 nx = 240 with the package's block, and one with a block of 50
    on the smaller meshes.  On the all-Neumann mesh the coarsest solve
    factors the coarsest level less its first row and column, the product
    with the pin that the hierarchy used to end with, bitwise."""
    mesh, A, hierarchy = _galerkin_case(case)
    oracle = dr.multigrid_transfers(mesh)
    monkeypatch.setattr(fields, "KERNEL_BLOCK", block)
    assert block // (hierarchy[0].nx + 1) < hierarchy[1].ny
    for (P, R), fine, coarse in zip(oracle, hierarchy, hierarchy[1:]):
        got = linalg._galerkin_level(A, fine, coarse)
        want = dr.galerkin_product(R, A, P)
        pattern = linalg.lattice_pattern(coarse.nx, coarse.ny)
        assert got.indptr.tobytes() == pattern[0].tobytes()
        assert got.indices.tobytes() == pattern[1].tobytes()
        assert got.shape == want.shape
        assert abs(got - want).max() <= 1e-14 * abs(want).max()
        A = got
    if not mesh.is_dirichlet.any():
        P, R = oracle[-1]
        pinned = (R @ A @ P).tocsr()
        pinned.sort_indices()
        assert (A[1:, 1:] != pinned).nnz == 0


def test_slice_weights_are_the_2to1_product_of_the_linear_interpolation():
    """P applied to each coarse unit vector, on a lattice without fixed
    vertices, is the column of the Kronecker product of the 2:1
    `observation._linear_interpolation`, the one owner of the coarse
    bilinear basis, exactly, and P^T applied to each fine unit vector its
    row; `linalg._MID` is the interpolation's weight at a cell's midpoint."""
    assert _linear_interpolation(2, 2).toarray().tolist() == [
        [1.0, 0.0], [linalg._MID, linalg._MID], [0.0, 1.0]]
    nx, ny = 6, 4
    free = np.zeros((ny + 1, nx + 1), dtype=bool)
    transfer = linalg._Transfer(linalg.Lattice(nx, ny, free),
                                linalg.Lattice(nx // 2, ny // 2, free[::2, ::2]))
    want = dr.bilinear_prolongation(nx, ny, 2, 2).toarray()
    assert np.array_equal(want, np.kron(_linear_interpolation(ny, 2).toarray(),
                                        _linear_interpolation(nx, 2).toarray()))
    columns = np.column_stack([transfer.prolong(e) for e in np.eye(want.shape[1])])
    rows = np.column_stack([transfer.restrict(e) for e in np.eye(want.shape[0])])
    assert np.array_equal(columns, want) and np.array_equal(rows, want.T)


@pytest.mark.parametrize("factory, nx", [(scenarios.example3, 240),
                                         (scenarios.example4, 120)],
                         ids=["example3", "example4"])
def test_blocked_pressure_problem_equals_a_whole_array_build_bitwise(
        factory, nx):
    """The load, `cv_source` and `flux_source`, built one block of
    `kernel_point_blocks` at a time, equal the whole-array build (one
    (ne, 16) array of weighted source values, its `np.einsum` with the
    basis and whole-mesh `np.bincount`s) bitwise."""
    sc = factory(nx=nx)
    mesh = sc.build_mesh()
    prob = PressureProblem(mesh, sc.kappa, sc.pressure_source,
                           dirichlet=sc.pressure_dirichlet)
    assert len(fields.kernel_point_blocks(mesh)) > 1
    want = dr.pressure_source_integrals(mesh, sc.pressure_source)
    for got, array in zip((prob.load, prob.cv_source, prob.flux_source), want):
        assert got.shape == array.shape and got.tobytes() == array.tobytes()


# -- what one Darcy interval allocates ---------------------------------------

def _base(array):
    while array.base is not None:
        array = array.base
    return array


def test_element_kernel_pins_no_whole_point_array():
    """The kernel keeps the theta it was built from and the stiffness by
    its 10 distinct entries per element, 11 arrays, and no kappa: kappa at
    the quadrature points lives one block at a time, and the flux recovery
    evaluates its own points.  It kept 29 arrays with the whole 4 x 4
    stiffness and kappa at the 12 recovery points."""
    sc = scenarios.example3(nx=30)
    mesh = sc.build_mesh()
    prob = PressureProblem(mesh, sc.kappa, sc.pressure_source,
                           dirichlet=sc.pressure_dirichlet)
    kernel = element_kernel(prob, NodalField.from_callable(mesh, sc.initial))
    ne = mesh.n_elements
    kept = [getattr(kernel, f.name) for f in dataclasses.fields(kernel)]
    assert [f.name for f in dataclasses.fields(kernel)] == ["theta",
                                                           "stiffness"]
    assert kernel.theta.shape == (mesh.n_vertices,)
    assert kernel.stiffness.shape == (ne, 10)
    for array in kept:
        assert _base(array).nbytes == array.nbytes
    assert sum(array.size // len(array) for array in kept) <= 11


def _darcy_interval_peak(nx):
    """The peak that a pressure solve and its flux recovery allocate above
    what is live at the interval's start, in (ne,) float arrays, on
    example3.  The mesh constants are built by a first interval; the raster
    lookup keeps nothing, so it is made inside the traced one, block by
    block."""
    sc = scenarios.example3(nx=nx)
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
    return peak / (8 * mesh.n_elements)


def test_one_darcy_interval_allocates_at_most_80_element_arrays():
    """One Darcy interval at nx = 120.  It was 108 arrays, at nx = 120 as
    at 240, when the kernel kept kappa at all 28 points and the recovery
    made its temporaries whole; 72 (56 at nx = 240) with the raster's
    values kept at the kernel points; 69 (55 at nx = 240, 56 before the
    multigrid set-up was blocked) while the kernel kept the whole 4 x 4
    stiffness and kappa at the 12 recovery points; it is 46.2 now, with
    the stiffness kept by its 10 distinct entries and the recovery
    evaluating kappa at its own points."""
    assert _darcy_interval_peak(120) <= 49


def test_one_darcy_interval_at_nx_240_allocates_at_most_40_element_arrays():
    """One Darcy interval at the paper's nx = 240, where the pressure
    solve sets the peak: 52.9 arrays while the kernel kept 29 arrays
    through the multigrid set-up and CG, 37.0 now."""
    assert _darcy_interval_peak(240) <= 40


@pytest.fixture(scope="module")
def ex3_set_up():
    """example3 at nx = 240 with its mesh constants built, as a reference
    run leaves them: the point set and its blocks and the stencil."""
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
    (_nudged_run, False, 13), (_pressure_problem, True, 8),
    (_pressure_solve, False, 37), (_step_matrices, True, 2)],
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
    `matrices` held 2.3 arrays above what it keeps, where it was 0.03 with
    M kept: two chunk copies of M were alive at a chunk's turn; with one
    chunk buffer, and M copied into place from its 1-D factors, 1.2.  The
    problem was 20.1 above what it keeps while it filled one (ne, 16)
    array of weighted source values, and is 7.2 built one block at a time.
    The pressure solve peaks in its multigrid set-up: at 55.5 on the
    free-vertex system, gathered from the stiffness data at every solve
    (the first solve on a mesh also built the gathers, 9.9 arrays kept),
    at 55.9 on the stencil system with the whole R @ A formed at each
    level and abs(A.data) copied whole, at 52.9 with both formed a block
    of rows at a time, and at 34.9 with the element kernel down from 29
    arrays (the whole stiffness and kappa at the recovery points) to 11."""
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
