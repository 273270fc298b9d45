"""One transport operator per run, against the sums of sparse matrices it
replaced.

A run's step matrices and explicit operators are data on the mesh's
stencil pattern (`linalg.stencil`): S0 = M + dt/2 (K0 + a) plus the
Dirichlet diagonal and E0 = M - dt/2 (K0 + a), each zero elsewhere in a
Dirichlet row.  A nudged run adds dt/2 times the
coupling C, applied from its factors: S = S0 + dt/2 C and E = E0 - dt/2 C,
whose coupling the step applies with the data term.  The oracle is the
earlier construction (`dense_reference.step_matrices_by_sums`), which summed
the mass, diffusion, reaction, advection, nudging and Dirichlet matrices on
the stencil; the two differ in summation order only, so a nudged run's
products S v and E v match the oracle's to roundoff.
"""

import numpy as np
import pytest
from scipy import sparse

import dense_reference as dr
from porousda import linalg, scenarios, transport
from porousda.fields import NodalField
from porousda.linalg import CoupledOperator, SolverConfig
from porousda.mesh import build_mesh
from porousda.observation import ObservationStream, SparseGrid
from porousda.transport import TransportCoefficients, TransportStep, step
from test_stencil import MESHES

REL_TOL = 1e-14
# Of the largest entry of the oracle's product, for S v and E v.
PRODUCT_RTOL = 1e-13


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


def _same_products(got, want, seed=0):
    """got v equals want v to PRODUCT_RTOL of its largest entry, for three
    random vectors v."""
    for v in np.random.default_rng(seed).standard_normal((3, want.shape[0])):
        w = want @ v
        assert np.abs(got @ v - w).max() <= PRODUCT_RTOL * np.abs(w).max()


def _same_step_operator(got, want):
    """A mu = 0 run's CSR step matrix matches the oracle's entry for entry,
    a nudged run's operator in its products."""
    if isinstance(got, CoupledOperator):
        _same_products(got, want)
    else:
        _close(got, want)


def _explicit(coeffs, dt):
    """E = E0 - dt/2 C of the run's slot, as an operator: E0 from
    `matrices`, C the run's coupling (the step applies it with the data)."""
    _, explicit = coeffs.matrices(dt)
    if coeffs.coupling is None:
        return explicit
    return CoupledOperator(explicit, -0.5 * dt, coeffs.coupling)


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
    for got, want in zip((transport.cv_mass(mesh), coeffs.k0,
                          coeffs.advection(outflux)),
                         dr.run_operator_by_bincount(coeffs, outflux)):
        assert got.tobytes() == want.tobytes()
    dt = 0.03
    for velocity in (None, outflux):
        coeffs.set_velocity(velocity)
        lhs, _ = coeffs.matrices(dt)
        want_lhs, want_explicit = dr.step_matrices_by_sums(coeffs, velocity, dt)
        _same_step_operator(lhs, want_lhs)
        _same_step_operator(_explicit(coeffs, dt), want_explicit)


@pytest.mark.parametrize("chunk", [1000, transport._CHUNK])
def test_step_matrices_are_the_mass_plus_and_minus_hk_bitwise(
        mesh_and_grid, monkeypatch, chunk):
    """S0 and E0, formed in place one chunk at a time from M summed into
    S0's array, equal M + h (K0 + a) with S0's Dirichlet diagonal and
    M - h (K0 + a), each formed whole, bitwise; a chunk of 1,000 entries
    makes chunk boundaries on every mesh."""
    mesh, grid = mesh_and_grid
    monkeypatch.setattr(transport, "_CHUNK", chunk)
    coeffs = TransportCoefficients(mesh, _diffusion, reaction=_reaction,
                                   mu=10.0, grid=grid)
    outflux = np.random.default_rng(7).standard_normal(mesh.n_segments)
    dt = 0.03
    mass = transport.cv_mass(mesh)
    for velocity in (None, outflux):
        coeffs.set_velocity(velocity)
        lhs, explicit = coeffs.matrices(dt)
        hk = coeffs.k0 if velocity is None else coeffs.advection(velocity) + coeffs.k0
        hk = hk * (0.5 * dt)
        s0 = mass + hk
        s0[dr.diagonal_slots(mesh)[mesh.dirichlet_vertices]] = 1.0
        assert np.array_equal(lhs.matrix.data, s0)
        assert np.array_equal(explicit.data, mass - hk)


@pytest.mark.parametrize("nx, ny, spec", [
    (1, 1, "all_dirichlet"), (1, 3, "all_dirichlet"), (3, 1, "all_neumann"),
    (7, 5, "all_dirichlet"), (12, 8, "all_neumann"), (240, 240, "all_neumann")])
def test_cv_mass_from_its_1d_terms_equals_the_summed_block_bitwise(nx, ny,
                                                                   spec):
    """`cv_mass`, copied into place from the 1-D blocks' terms, equals
    `sum_blocks` of the constant block c_y (x) c_x over every element, with
    the Dirichlet rows zeroed, bitwise: on meshes one element wide or tall,
    stretched and all-Neumann, and at nx = 240."""
    mesh = build_mesh(nx, ny, 1.3, 0.7, boundary_spec=spec)
    pattern = linalg.stencil(mesh)
    want = pattern.sum_blocks(np.broadcast_to(np.kron(
        transport._cv_block(mesh.hy), transport._cv_block(mesh.hx)).ravel(),
        (mesh.n_elements, 16)))
    want[pattern.dirichlet_entries] = 0.0
    assert transport.cv_mass(mesh).tobytes() == want.tobytes()


def test_cell_average_nudging_matches_the_sums_of_matrices():
    """Average functionals couple each CV to whole coarse cells, not to
    lattice points: another coupling to apply from its factors."""
    nx, ny, lx, ly, spec, spacing = MESHES[0]
    mesh = build_mesh(nx, ny, lx, ly, boundary_spec=spec)
    grid = SparseGrid(mesh, spacing, kind="average")
    coeffs = TransportCoefficients(mesh, _diffusion, reaction=_reaction,
                                   mu=10.0, grid=grid)
    outflux = np.random.default_rng(5).standard_normal(mesh.n_segments)
    coeffs.set_velocity(outflux)
    lhs, _ = coeffs.matrices(0.03)
    want_lhs, want_explicit = dr.step_matrices_by_sums(coeffs, outflux, 0.03)
    _same_products(lhs, want_lhs)
    _same_products(_explicit(coeffs, 0.03), want_explicit)


def test_the_pattern_is_the_step_matrix_of_the_sums(mesh_and_grid):
    """A nudged run's S0 and E0 lie on the mesh's stencil, as the mu = 0
    run's do: free rows hold the pattern of the canonical sum without
    nudging, with no entry more, a Dirichlet row of S exactly 1.0 on its
    diagonal and zeros elsewhere, and E's Dirichlet rows zeros.  The
    coupling is applied from its factors, and S and E match the nudged sums
    in their products."""
    mesh, grid = mesh_and_grid
    coeffs = TransportCoefficients(mesh, _diffusion, mu=10.0, grid=grid)
    lhs, explicit = coeffs.matrices(0.03)
    want_lhs, want_explicit = dr.step_matrices_by_sums(coeffs, None, 0.03)
    _same_products(lhs, want_lhs)
    _same_products(_explicit(coeffs, 0.03), want_explicit)
    want, _ = dr.step_matrices_by_sums(TransportCoefficients(mesh, _diffusion),
                                       None, 0.03)
    want.eliminate_zeros()
    want.sort_indices()
    pattern = linalg.stencil(mesh)
    got = lhs.matrix.copy()
    got.eliminate_zeros()
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    for A in (lhs.matrix, explicit):
        assert np.shares_memory(A.indices, pattern.indices)
        assert np.shares_memory(A.indptr, pattern.indptr)
    dirichlet = np.flatnonzero(mesh.is_dirichlet)
    rows = np.repeat(mesh.is_dirichlet, np.diff(pattern.indptr))
    diagonal = np.zeros(pattern.nnz, dtype=bool)
    diagonal[dr.diagonal_slots(mesh)[dirichlet]] = True
    assert np.all(lhs.matrix.data[rows & diagonal] == 1.0)
    assert np.all(lhs.matrix.data[rows & ~diagonal] == 0.0)
    assert np.all(explicit.data[rows] == 0.0)


def test_every_matrix_of_a_run_shares_its_index_arrays():
    """Every S0 and E0 of a reference run and of a nudged run on one mesh
    lies on the stencil's own read-only index arrays."""
    sc = scenarios.example1(nx=20)
    mesh = sc.build_mesh()
    pattern = linalg.stencil(mesh)
    rng = np.random.default_rng(3)
    matrices = []
    for mu in (0.0, 50.0):
        coeffs = TransportCoefficients(mesh, sc.diffusion, source=sc.source,
                                       mu=mu, grid=SparseGrid(mesh, sc.spacing))
        matrices += coeffs.matrices(0.01)
        for _ in range(2):
            coeffs.set_velocity(rng.standard_normal(mesh.n_segments))
            matrices += coeffs.matrices(0.01)
    assert all(isinstance(S, CoupledOperator) for S in matrices[6::2])
    matrices = [getattr(A, "matrix", A) for A in matrices]
    for A in matrices:
        assert A.indices.dtype == A.indptr.dtype == np.int32
        assert np.shares_memory(A.indices, pattern.indices)
        assert np.shares_memory(A.indptr, pattern.indptr)
    assert not pattern.indices.flags.writeable
    assert not pattern.indptr.flags.writeable
    with pytest.raises(ValueError):
        matrices[0].eliminate_zeros()


def test_a_later_factor_takes_the_permuted_matrix_at_fixed_positions():
    """After the first factor puts the coupling's data in the order of q,
    the mesh's dissection, and fixes the int32 positions of S0's entries
    there, h times that data plus a later S0's data added at them is the
    CSC form of A[q][:, q], A = S0 + h C joined, entry for entry.  The
    zeros of S0's Dirichlet rows go to the dump position past the end."""
    sc = scenarios.example1(nx=20)
    mesh = sc.build_mesh()
    pattern = linalg.stencil(mesh)
    coeffs = TransportCoefficients(mesh, sc.diffusion, mu=50.0,
                                   grid=SparseGrid(mesh, sc.spacing))
    rng = np.random.default_rng(4)
    coeffs.set_velocity(rng.standard_normal(mesh.n_segments))
    first, _ = coeffs.matrices(0.01)
    q = coeffs.factorize(first).order
    assert q is coeffs.order is transport.dissection(mesh, (2, 2))
    coeffs.set_velocity(rng.standard_normal(mesh.n_segments))
    later, _ = coeffs.matrices(0.01)
    want = dr.joined(later).toarray()[q][:, q]
    to_s, coupled, indices, indptr = coeffs._csc
    assert to_s.dtype == np.int32 and to_s.size == pattern.nnz
    rows = np.repeat(mesh.is_dirichlet, np.diff(pattern.indptr))
    trimmed = rows & (pattern.indices != np.repeat(np.arange(pattern.n),
                                                   np.diff(pattern.indptr)))
    np.testing.assert_array_equal(np.flatnonzero(to_s == indices.size),
                                  np.flatnonzero(trimmed))
    assert coupled.size == indices.size + 1 and coupled[-1] == 0.0
    data = later.scale * coupled
    data[to_s] += later.matrix.data
    got = np.zeros_like(want)
    for j in range(pattern.n):
        rows = indices[indptr[j]:indptr[j + 1]]
        assert np.all(np.diff(rows) > 0)
        got[rows, j] = data[indptr[j]:indptr[j + 1]]
    np.testing.assert_array_equal(got, want)
    factor = coeffs.factorize(later)
    rhs = later @ NodalField.from_callable(mesh, sc.initial).values
    x, report = factor.solve(later, rhs, SolverConfig())
    assert report.factored
    np.testing.assert_allclose(later @ x, rhs, rtol=0, atol=1e-12 * np.abs(rhs).max())


@pytest.mark.parametrize("kind", ["point", "average", None],
                         ids=["point", "average", "mu0"])
@pytest.mark.parametrize("case", MESHES + [BLOCKS],
                         ids=["9x6-mixed", "7x7-neumann", "4x10-dirichlet",
                              "72x72-blocks"])
def test_superlu_takes_the_trimmed_joined_matrix(monkeypatch, case, kind):
    """The CSC matrix a step hands SuperLU is S[q][:, q], S = S0 + h C
    joined (S0 alone when mu = 0), with the zeros of its Dirichlet rows left
    out: no off-diagonal entry in a Dirichlet row, the pattern of the joined
    oracle so trimmed, and its values to 1e-13 relative."""
    nx, ny, lx, ly, spec, spacing = case
    mesh = build_mesh(nx, ny, lx, ly, boundary_spec=spec)
    coeffs = TransportCoefficients(
        mesh, _diffusion, reaction=_reaction, mu=0.0 if kind is None else 10.0,
        grid=kind and SparseGrid(mesh, spacing, kind=kind))
    coeffs.set_velocity(np.random.default_rng(mesh.n_vertices)
                        .standard_normal(mesh.n_segments))
    S, _ = coeffs.matrices(0.03)
    handed = []
    splu = transport.splu

    def recorded_splu(A):
        handed.append(A)
        return splu(A)

    monkeypatch.setattr(transport, "splu", recorded_splu)
    assert coeffs.factorize(S)
    (got,) = handed
    q = coeffs.order
    dirichlet = mesh.is_dirichlet[q]           # of the permuted rows
    entries = got.tocoo()
    assert not np.any(dirichlet[entries.row] & (entries.row != entries.col))
    want = dr.joined(S)[q][:, q].tocoo()
    keep = ~dirichlet[want.row] | (want.row == want.col)
    want = sparse.csc_matrix((want.data[keep], (want.row[keep],
                                                want.col[keep])),
                             shape=want.shape)
    want.eliminate_zeros()
    want.sort_indices()
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert (np.abs(got.data - want.data).max()
            <= 1e-13 * np.abs(want.data).max())


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


KINDS = ["point", "average"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("solver", ["factor", "bicgstab"])
@pytest.mark.parametrize("case", MESHES + [BLOCKS],
                         ids=["9x6-mixed", "7x7-neumann", "4x10-dirichlet",
                              "72x72-blocks"])
def test_each_solver_path_takes_the_operator_of_the_sums(monkeypatch, case,
                                                         kind, solver):
    """A nudged step hands its solver the operator of the joined sums: the
    factor the CSC form of S[q][:, q], BiCGStab S itself, with the Jacobi
    diagonal of the sums; E, S and the step's solution match the oracle.
    BiCGStab is forced by a singular factor, as in `test_recovery.py`."""
    nx, ny, lx, ly, spec, spacing = case
    mesh = build_mesh(nx, ny, lx, ly, boundary_spec=spec)
    grid = SparseGrid(mesh, spacing, kind=kind)
    coeffs = TransportCoefficients(mesh, _diffusion, reaction=_reaction,
                                   mu=10.0, grid=grid)
    rng = np.random.default_rng(mesh.n_vertices)
    outflux = rng.standard_normal(mesh.n_segments)
    coeffs.set_velocity(outflux)
    dt = 0.03
    want_lhs, want_explicit = dr.step_matrices_by_sums(coeffs, outflux, dt)
    factored, solved = [], []
    splu, solve = transport.splu, linalg.solve

    def recorded_splu(A):
        factored.append(A)
        if solver == "bicgstab":
            raise RuntimeError("Factor is exactly singular")
        return splu(A)

    def recorded_solve(A, b, config=None, **kw):
        solved.append(A)
        return solve(A, b, config, **kw)

    monkeypatch.setattr(transport, "splu", recorded_splu)
    monkeypatch.setattr(linalg, "solve", recorded_solve)
    coeffs.factor_at_once = True
    theta = NodalField(mesh, rng.random(mesh.n_vertices))
    d = rng.random(grid.n_obs)
    stream = ObservationStream([0.0, dt], np.vstack([d, 0.5 * d]))
    x, report = step(theta, coeffs, TransportStep(0.0, dt), stream,
                     later_steps=1)
    assert len(factored) == 1 and report.factored == (solver == "factor")
    q = coeffs.order
    _same_products(factored[0], want_lhs[q][:, q])
    if solver == "bicgstab":
        assert len(solved) == 1 and isinstance(solved[0], CoupledOperator)
        _same_products(solved[0], want_lhs)
        np.testing.assert_allclose(solved[0].diagonal(), want_lhs.diagonal(),
                                   rtol=0, atol=REL_TOL * abs(want_lhs).max())
    _same_products(_explicit(coeffs, dt), want_explicit)
    _, rhs = transport.assemble_step(theta, coeffs, TransportStep(0.0, dt),
                                     stream)
    # E theta plus the data term, in the free rows.
    free = ~mesh.is_dirichlet
    want_rhs = want_explicit @ theta.values + 0.5 * dt * coeffs.mu * (
        dr.nudge_by_assembly(mesh, grid) @ (1.5 * d))
    assert (np.abs(rhs - want_rhs)[free].max()
            <= PRODUCT_RTOL * np.abs(want_rhs).max())
    assert (np.linalg.norm(want_lhs @ x.values - rhs)
            <= 1e-11 * np.linalg.norm(rhs))


@pytest.mark.parametrize("kind", KINDS)
def test_a_nudged_run_keeps_the_arrays_of_a_run_without_nudging(kind):
    """No array of a nudged run grows with the coupling's entries: K0 is
    the one array of either run with an entry per stencil slot (M is summed
    per step size, not kept), and at set-up neither run nor its coupling
    holds an integer array: the index arrays are the stencil's and the
    mesh's."""
    nx, ny, lx, ly, spec, spacing = MESHES[0]
    mesh = build_mesh(nx, ny, lx, ly, boundary_spec=spec)
    plain = TransportCoefficients(mesh, _diffusion, reaction=_reaction)
    nudged = TransportCoefficients(mesh, _diffusion, reaction=_reaction,
                                   mu=10.0,
                                   grid=SparseGrid(mesh, spacing, kind=kind))
    nnz = linalg.stencil(mesh).nnz
    for run in (plain, nudged):
        assert [name for name, value in vars(run).items()
                if isinstance(value, np.ndarray) and value.size >= nnz] == ["k0"]
    for held in (plain, nudged, nudged.coupling):
        assert not [name for name, value in vars(held).items()
                    if isinstance(value, np.ndarray)
                    and np.issubdtype(value.dtype, np.integer)], held


def test_a_coupled_operator_keeps_the_finite_check_and_the_true_residual():
    """BiCGStab on a nudged S reports ||b - S x|| with S's own product, and
    a non-finite entry of S0 comes back at once as a NaN solution."""
    nx, ny, lx, ly, spec, spacing = MESHES[0]
    mesh = build_mesh(nx, ny, lx, ly, boundary_spec=spec)
    coeffs = TransportCoefficients(mesh, _diffusion, mu=10.0,
                                   grid=SparseGrid(mesh, spacing))
    S, _ = coeffs.matrices(0.03)
    b = np.random.default_rng(1).random(mesh.n_vertices)
    x, report = linalg.solve(S, b, SolverConfig())
    assert report.converged and report.iterations > 0
    assert report.residual == float(np.linalg.norm(b - S @ x))
    assert report.residual <= 1e-12 * np.linalg.norm(b)
    S.matrix.data[0] = np.nan
    x, report = linalg.solve(S, b, SolverConfig())
    assert np.all(np.isnan(x)) and not report.converged
