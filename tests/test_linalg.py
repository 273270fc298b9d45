from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

import dense_reference as dr
from porousda import fields, linalg
from porousda.fields import NodalField
from porousda.linalg import (Lattice, NoConvergenceError, SolverConfig,
                             _abs_row_sums, assemble, lattice_slots, solve)
from porousda.mesh import DIRICHLET, NEUMANN, build_mesh
from porousda.pressure import PressureProblem, assemble_pressure


def _random_spd(n, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n))
    return b @ b.T + n * np.eye(n), rng.standard_normal(n)


def test_assemble_identity():
    idx = np.arange(4)
    a = assemble(idx, idx, np.ones(4), (4, 4))
    np.testing.assert_array_equal(a.toarray(), np.eye(4))


def test_assemble_sums_duplicates():
    a = assemble([0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0], (2, 2))
    np.testing.assert_array_equal(a.toarray(), [[3.0, 0.0], [0.0, 5.0]])


def test_assemble_out_of_bounds():
    with pytest.raises(IndexError):
        assemble([0, 3], [0, 0], [1.0, 1.0], (3, 3))
    with pytest.raises(ValueError):
        assemble([0, 1], [0], [1.0], (2, 2))


@settings(deadline=None, max_examples=30)
@given(st.randoms(use_true_random=False))
def test_assemble_stream_order_invariance(rnd):
    """Reordering the raw entry stream leaves the matrix bitwise identical."""
    rows = np.array([0, 1, 1, 2, 0, 2, 1, 0])
    cols = np.array([0, 1, 0, 2, 0, 2, 1, 0])
    vals = np.array([0.3, 1.7, -0.2, 0.9, 1e-9, 0.1, 2.5, -1e9])
    perm = list(range(len(rows)))
    rnd.shuffle(perm)
    a = assemble(rows, cols, vals, (3, 3))
    b = assemble(rows[perm], cols[perm], vals[perm], (3, 3))
    assert np.array_equal(a.toarray(), b.toarray())


def test_stiffness_assembly_matches_dense_loops():
    """Stream-assembled bilinear stiffness equals a dense loop build."""
    mesh = build_mesh(2, 2)
    quadpts = dr.quad_points()
    w = mesh.hx * mesh.hy / 16.0
    dense = np.zeros((9, 9))
    rows, cols, vals = [], [], []
    for e in range(mesh.n_elements):
        verts = dr.element_vertices(mesh, e)
        for xi, eta, _ in quadpts:
            for a in range(4):
                ga = dr.hat_grad(a, xi, eta, mesh.hx, mesh.hy)
                for b in range(4):
                    gb = dr.hat_grad(b, xi, eta, mesh.hx, mesh.hy)
                    contrib = w * (ga[0] * gb[0] + ga[1] * gb[1])
                    dense[verts[a], verts[b]] += contrib
                    rows.append(verts[a])
                    cols.append(verts[b])
                    vals.append(contrib)
    a = assemble(rows, cols, vals, (9, 9))
    np.testing.assert_allclose(a.toarray(), dense, atol=1e-14)


def _pressure_system():
    """The SPD pressure block of a 32x32 mesh and its 3-lattice hierarchy."""
    mesh = build_mesh(32, 32, boundary_spec=lambda x, y: (
        DIRICHLET if x == 0.0 else NEUMANN))
    prob = PressureProblem(mesh, lambda th, x, y: 1.0 + x * y + 0.0 * th,
                           lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y),
                           dirichlet=1.0)
    A, b = assemble_pressure(prob, NodalField.zeros(mesh))
    assert len(prob.hierarchy) == 3          # 32 -> 16 -> 8 cells
    return A, b, prob.hierarchy


def _lattice_system(n=16, seed=11):
    """A random SPD matrix on the 9-point pattern of an n x n-cell lattice,
    random SPD element blocks summed plus the identity, a right-hand side,
    and the lattices of a two-level hierarchy without fixed vertices."""
    mesh = build_mesh(n, n, boundary_spec="all_neumann")
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((mesh.n_elements, 4, 4))
    pattern = linalg.stencil(mesh)
    data = pattern.sum_blocks(np.einsum("eab,ecb->eac", blocks, blocks))
    data[lattice_slots(pattern.indptr, n, np.arange(pattern.n), 0, 0)] += 1.0
    fixed = np.zeros((n + 1, n + 1), dtype=bool)
    return pattern.matrix(data), rng.standard_normal(pattern.n), [
        Lattice(n, n, fixed), Lattice(n // 2, n // 2, fixed[::2, ::2])]


# The two systems of a run: SPD with a multigrid hierarchy goes to CG, any
# other system to Jacobi-BiCGStab.
SYSTEMS = [pytest.param(True, id="cg"), pytest.param(False, id="bicgstab")]


def test_two_by_two_cg_solve():
    a = assemble([0, 0, 1, 1], [0, 1, 0, 1], [2.0, 1.0, 1.0, 2.0], (2, 2))
    x, report = solve(a, np.array([2.0, 1.0]), SolverConfig(), hierarchy=[])
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-10)
    assert report.converged and report.iterations == 1


@pytest.mark.parametrize("multigrid", SYSTEMS)
def test_random_spd_matches_dense_solve(multigrid):
    a, b, hierarchy = _lattice_system()
    x_ref = np.linalg.solve(a.toarray(), b)
    x, report = solve(a, b, SolverConfig(),
                      hierarchy=hierarchy if multigrid else None)
    assert report.converged and report.iterations > 1
    assert report.residual <= 1e-12 * np.linalg.norm(b)
    assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-8


def test_exact_initial_guess_returns_immediately():
    a_dense, b = _random_spd(20, seed=3)
    x_ref = np.linalg.solve(a_dense, b)
    x, report = solve(csr_matrix(a_dense), b, SolverConfig(), x0=x_ref)
    assert report.iterations == 0
    np.testing.assert_allclose(x, x_ref)


def test_cg_error_is_monotone_in_energy_norm():
    """Successive iterate errors shrink in the A-norm, the CG invariant."""
    a, b, hierarchy = _pressure_system()
    x_true = spsolve(a.tocsc(), b)
    cfg = SolverConfig(rel_tol=0.0)
    energies = []
    for k in range(1, 9):
        with pytest.raises(NoConvergenceError) as info:
            solve(a, b, replace(cfg, max_iter=k), hierarchy=hierarchy)
        e = info.value.best - x_true
        energies.append(float(e @ (a @ e)))
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-12 * energies[0])


def test_nonconvergence_carries_best_iterate():
    a, b, hierarchy = _pressure_system()
    cfg = SolverConfig(rel_tol=0.0, max_iter=3)
    with pytest.raises(NoConvergenceError) as info:
        solve(a, b, cfg, hierarchy=hierarchy)
    exc = info.value
    assert exc.best.shape == b.shape
    assert exc.report.converged is False and not exc.breakdown
    assert exc.report.iterations == 3
    # the iterate is closer than the zero start, and the report holds its
    # true residual
    res = np.linalg.norm(b - a @ exc.best)
    assert res < np.linalg.norm(b)
    assert exc.report.residual == res


def test_solver_config_validation():
    for bad in ({"rel_tol": float("nan")}, {"rel_tol": -1e-12},
                {"rel_tol": float("inf")}, {"max_iter": 0}, {"max_iter": -5},
                {"max_iter": 2.5}, {"max_iter": 3.0}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolverConfig(**bad)
    assert SolverConfig(rel_tol=0.0, max_iter=1).max_iter == 1


def test_multigrid_needs_hierarchy_and_nonsingular_coarsest_level():
    """Without a hierarchy a system never reaches the multigrid cycle, so a
    singular one is solved by BiCGStab; with an empty hierarchy its coarsest
    level is the whole matrix, and SuperLU's failure comes back typed."""
    singular = csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    b = np.array([1.0, -1.0])
    x, _ = solve(singular, b, SolverConfig())
    np.testing.assert_allclose(singular @ x, b, atol=1e-12)
    with pytest.raises(NoConvergenceError) as info:
        solve(singular, b, SolverConfig(), hierarchy=[])
    assert "singular" in str(info.value)
    assert info.value.report.iterations == 0


def test_subnormal_kappa_fails_typed_without_a_warning():
    """With kappa = 5e-324 every l1 row sum of the pressure block underflows,
    so the smoother scale overflows; that is no warning (the suite makes
    RuntimeWarning an error), and the singular coarsest level comes back as
    `NoConvergenceError`."""
    mesh = build_mesh(32, 32)
    problem = PressureProblem(mesh, lambda th, x, y: np.full_like(x, 5e-324),
                              lambda x, y: np.ones_like(x))
    a, b = assemble_pressure(problem, NodalField.zeros(mesh))
    with pytest.raises(NoConvergenceError, match="singular"):
        solve(a, b, SolverConfig(), hierarchy=problem.hierarchy)


@pytest.mark.parametrize("multigrid", SYSTEMS)
def test_non_finite_system_returns_nan_without_iterating(multigrid):
    a = csr_matrix(np.eye(3) * 2.0)
    x, report = solve(a, np.array([1.0, np.nan, 1.0]), SolverConfig(),
                      hierarchy=[] if multigrid else None)
    assert np.all(np.isnan(x))
    assert not report.converged and report.iterations == 0


def test_solve_shape_checks():
    a = csr_matrix(np.eye(3))
    with pytest.raises(ValueError):
        solve(a, np.ones(4), SolverConfig())


def test_empty_system():
    a = csr_matrix((0, 0))
    x, report = solve(a, np.zeros(0), SolverConfig())
    assert x.size == 0
    assert report.converged


def test_abs_row_sums_equal_the_sums_of_abs_a_bitwise():
    """The smoother's l1 row sums, read from abs(A.data) per row, equal
    scipy's `abs(A).sum(axis=1)`, empty rows included."""
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((40, 30)) * 10.0 ** rng.uniform(-6, 6, (40, 30))
    dense[rng.random(dense.shape) < 0.7] = 0.0
    dense[[0, 17, 39]] = 0.0
    A = csr_matrix(dense)
    want = np.asarray(abs(A).sum(axis=1)).ravel()
    assert _abs_row_sums(A).tobytes() == want.tobytes()


@pytest.mark.parametrize("block", [1, 7, 40, fields.KERNEL_BLOCK])
def test_chunked_abs_row_sums_equal_the_whole_computation_bitwise(
        monkeypatch, block):
    """`_abs_row_sums`, `fields.KERNEL_BLOCK` rows at a time, equals one
    `np.add.reduceat` over the whole abs(A.data) bitwise: with chunks of 1
    and 7 rows, chunks that begin and end on empty rows and a chunk of 7
    empty rows (14 to 20)."""
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((100, 30)) * 10.0 ** rng.uniform(-6, 6, (100, 30))
    dense[rng.random(dense.shape) < 0.6] = 0.0
    dense[[0, 6, 7, 39, 99]] = 0.0
    dense[14:21] = 0.0
    A = csr_matrix(dense)
    rows = np.flatnonzero(np.diff(A.indptr))
    want = np.zeros(A.shape[0])
    want[rows] = np.add.reduceat(np.abs(A.data), A.indptr[rows])
    monkeypatch.setattr(fields, "KERNEL_BLOCK", block)
    assert _abs_row_sums(A).tobytes() == want.tobytes()
