"""One transport operator per run, against the sums of sparse matrices it
replaced.

A run's step matrices and explicit operators are data on one CSR pattern,
fixed when the run starts: S = M + dt/2 (K0 + a) plus the Dirichlet diagonal
and E = M - dt/2 (K0 + a).  The oracle is the earlier construction
(`dense_reference.step_matrices_by_sums`), which summed the mass, diffusion,
reaction, advection, nudging and Dirichlet matrices on the stencil; the two
differ in summation order only.
"""

import numpy as np
import pytest

import dense_reference as dr
from porousda import scenarios, transport
from porousda.fields import NodalField
from porousda.linalg import SolverConfig
from porousda.mesh import build_mesh
from porousda.observation import SparseGrid
from porousda.transport import TransportCoefficients, TransportStep, step
from test_stencil import MESHES

REL_TOL = 1e-14


def _diffusion(x, y):
    return 0.05 + 0.02 * x * y + 0.01 * np.sin(5.0 * y)


def _reaction(x, y):
    return 0.3 + 0.1 * y + 0.05 * np.cos(3.0 * x)


# nx = 72 splits into blocks of 56 and 16 element rows (`fields.KERNEL_BLOCK`).
BLOCKS = (72, 72, 1.0, 1.0, "all_dirichlet", 0.25)


@pytest.fixture(params=MESHES + [BLOCKS],
                ids=["9x6-mixed", "7x7-neumann", "4x10-dirichlet", "72x72-blocks"])
def mesh_and_grid(request):
    nx, ny, lx, ly, spec, spacing = request.param
    mesh = build_mesh(nx, ny, lx, ly, boundary_spec=spec)
    return mesh, SparseGrid(mesh, spacing)


def _close(got, want):
    """Equal to REL_TOL of the largest entry, on the same pattern once
    explicit zeros are dropped."""
    got, want = got.tocsr(copy=True), want.tocsr(copy=True)
    assert abs(got - want).max() <= REL_TOL * abs(want).max()
    for A in (got, want):
        A.eliminate_zeros()
        A.sort_indices()
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)


@pytest.mark.parametrize("reaction", [None, _reaction], ids=["plain", "reaction"])
@pytest.mark.parametrize("mu", [0.0, 10.0], ids=["free", "nudged"])
def test_step_matrices_match_the_sums_of_matrices(mesh_and_grid, reaction, mu):
    """The data of M, K0 and the advection, summed one block of element
    rows at a time, also equal the whole-mesh `np.bincount` bitwise."""
    mesh, grid = mesh_and_grid
    coeffs = TransportCoefficients(mesh, _diffusion, reaction=reaction, mu=mu,
                                   grid=grid if mu > 0.0 else None)
    outflux = np.random.default_rng(mesh.n_vertices).standard_normal(
        mesh.n_segments)
    for got, want in zip((coeffs.mass, coeffs.k0, coeffs.advection(outflux)),
                         dr.run_operator_by_bincount(coeffs, outflux)):
        assert got.tobytes() == want.tobytes()
    dt = 0.03
    for velocity in (None, outflux):
        coeffs.set_velocity(velocity)
        lhs, explicit = coeffs.matrices(dt)
        want_lhs, want_explicit = dr.step_matrices_by_sums(coeffs, velocity, dt)
        _close(lhs, want_lhs)
        _close(explicit, want_explicit)


def test_cell_average_nudging_matches_the_sums_of_matrices():
    """Average functionals couple each CV to whole coarse cells, not to
    lattice points: another pattern to join."""
    nx, ny, lx, ly, spec, spacing = MESHES[0]
    mesh = build_mesh(nx, ny, lx, ly, boundary_spec=spec)
    grid = SparseGrid(mesh, spacing, kind="average")
    coeffs = TransportCoefficients(mesh, _diffusion, reaction=_reaction,
                                   mu=10.0, grid=grid)
    outflux = np.random.default_rng(5).standard_normal(mesh.n_segments)
    coeffs.set_velocity(outflux)
    lhs, explicit = coeffs.matrices(0.03)
    want_lhs, want_explicit = dr.step_matrices_by_sums(coeffs, outflux, 0.03)
    _close(lhs, want_lhs)
    _close(explicit, want_explicit)


def test_the_pattern_is_the_step_matrix_of_the_sums(mesh_and_grid):
    """Free rows hold the stencil and the nudging columns, Dirichlet rows
    their diagonal only: the pattern of the canonical sum, with no entry
    more."""
    mesh, grid = mesh_and_grid
    coeffs = TransportCoefficients(mesh, _diffusion, mu=10.0, grid=grid)
    want, _ = dr.step_matrices_by_sums(coeffs, None, 0.03)
    want.eliminate_zeros()
    want.sort_indices()
    np.testing.assert_array_equal(coeffs.indptr, want.indptr)
    np.testing.assert_array_equal(coeffs.indices, want.indices)
    dirichlet = np.flatnonzero(mesh.is_dirichlet)
    np.testing.assert_array_equal(np.diff(coeffs.indptr)[dirichlet], 1)
    np.testing.assert_array_equal(coeffs.indices[coeffs.dirichlet_slots],
                                  dirichlet)


def test_every_matrix_of_a_run_shares_its_index_arrays():
    sc = scenarios.example1(nx=20)
    mesh = sc.build_mesh()
    coeffs = TransportCoefficients(mesh, sc.diffusion, source=sc.source,
                                   mu=50.0, grid=SparseGrid(mesh, sc.spacing))
    rng = np.random.default_rng(3)
    matrices = list(coeffs.matrices(0.01))
    for _ in range(2):
        coeffs.set_velocity(rng.standard_normal(mesh.n_segments))
        matrices += coeffs.matrices(0.01)
    for A in matrices:
        assert A.indices.dtype == A.indptr.dtype == np.int32
        assert np.shares_memory(A.indices, coeffs.indices)
        assert np.shares_memory(A.indptr, coeffs.indptr)
    assert not coeffs.indices.flags.writeable
    assert not coeffs.indptr.flags.writeable
    with pytest.raises(ValueError):
        matrices[0].eliminate_zeros()


def test_a_later_factor_takes_the_permuted_matrix_at_fixed_positions():
    """After the first factor fixes the positions of q, the mesh's
    dissection, a later step matrix's data gathered at them is the CSC form
    of A[q][:, q], entry for entry."""
    sc = scenarios.example1(nx=20)
    mesh = sc.build_mesh()
    coeffs = TransportCoefficients(mesh, sc.diffusion, mu=50.0,
                                   grid=SparseGrid(mesh, sc.spacing))
    rng = np.random.default_rng(4)
    coeffs.set_velocity(rng.standard_normal(mesh.n_segments))
    first, _ = coeffs.matrices(0.01)
    q = coeffs.factorize(first).order
    assert q is coeffs.order is transport.dissection(mesh, (2, 2))
    coeffs.set_velocity(rng.standard_normal(mesh.n_segments))
    later, _ = coeffs.matrices(0.01)
    want = later.toarray()[q][:, q]
    positions, indices, indptr = coeffs._csc
    got = np.zeros_like(want)
    for j in range(coeffs.n):
        rows = indices[indptr[j]:indptr[j + 1]]
        assert np.all(np.diff(rows) > 0)
        got[rows, j] = later.data[positions[indptr[j]:indptr[j + 1]]]
    np.testing.assert_array_equal(got, want)
    factor = coeffs.factorize(later)
    rhs = later @ NodalField.from_callable(mesh, sc.initial).values
    x, report = factor.solve(later, rhs, SolverConfig())
    assert report.factored
    np.testing.assert_allclose(later @ x, rhs, rtol=0, atol=1e-12 * np.abs(rhs).max())


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), -1.0])
def test_a_relaxation_strength_that_is_not_finite_and_nonnegative_is_rejected(mu):
    mesh = build_mesh(4, 4)
    with pytest.raises(ValueError, match="mu must be finite and nonnegative"):
        TransportCoefficients(mesh, _diffusion, mu=mu,
                              grid=SparseGrid(mesh, 0.25))


def test_a_run_without_velocity_keeps_its_step_matrices():
    """A run made without a velocity steps with none: a step keeps its
    matrices in the run's slot."""
    mesh = build_mesh(6, 6)
    coeffs = TransportCoefficients(mesh, _diffusion)
    theta = NodalField.from_callable(mesh, lambda x, y: x * (1 - x) * y)
    step(theta, coeffs, TransportStep(0.0, 0.01))
    lhs, explicit = coeffs.matrices(0.01)
    assert coeffs.dt == 0.01 and coeffs.lhs is lhs and coeffs.explicit is explicit
