"""The stencil pattern against the contribution-stream assembly it replaced.

Every operator the package scatters into `linalg.stencil(mesh)` is rebuilt
here as the unordered (row, col, value) stream of its quadrature points or
dual-mesh segments and assembled with `linalg.assemble`, which sums in
value-sorted order.  The two differ only in summation order, so they agree to
roundoff and, once explicit zeros are dropped, in structure.  The nudging
operator M P, formed here from the run's 1-D factors, is checked the same
way against the stream of the coarse basis at the quadrature points
(`dense_reference.nudge_by_assembly`).  The
driver-path tests check that a twin experiment builds the pattern once per
mesh, evaluates kappa once per pressure solve and assembles no stream.
"""

import numpy as np
import pytest
from scipy import sparse

import dense_reference as dr
from porousda import driver, fields, linalg, scenarios, transport
from porousda.fields import NodalField, quadrature
from porousda.mesh import DIRICHLET, NEUMANN, build_mesh
from porousda.observation import SparseGrid
from porousda.pressure import PressureProblem, assemble_pressure, element_kernel
from porousda.transport import TransportCoefficients, cv_mass

REL_TOL = 1e-15


def _mixed_faces(x, y):
    return DIRICHLET if x == 0.0 or (y == 0.0 and x < 1.5) else NEUMANN


# (nx, ny, Lx, Ly, boundary spec, lattice spacing): odd nx, nx != ny, mixed
# tags; cells are square so the lattice aligns in both directions.
MESHES = [
    (9, 6, 3.0, 2.0, _mixed_faces, 1.0),
    (7, 7, 1.0, 1.0, "all_neumann", 1.0 / 7.0),
    (4, 10, 2.0, 5.0, "all_dirichlet", 1.0),
]


def _same_operator(scattered, stream):
    scattered = scattered.tocsr(copy=True)
    stream = stream.tocsr(copy=True)
    gap = abs(scattered - stream).max()
    assert gap <= REL_TOL * abs(stream).max()
    scattered.eliminate_zeros()
    stream.eliminate_zeros()
    np.testing.assert_array_equal(scattered.indptr, stream.indptr)
    np.testing.assert_array_equal(scattered.indices, stream.indices)


@pytest.fixture(params=MESHES, ids=["9x6-mixed", "7x7-neumann", "4x10-dirichlet"])
def case(request):
    nx, ny, lx, ly, spec, spacing = request.param
    mesh = build_mesh(nx, ny, lx, ly, boundary_spec=spec)
    rng = np.random.default_rng(nx * ny)
    return mesh, SparseGrid(mesh, spacing), rng


def _coefficients(mesh, grid, rng):
    coeffs = TransportCoefficients(
        mesh,
        diffusion=lambda x, y: 0.05 + 0.02 * x * y + 0.01 * np.sin(5.0 * y),
        reaction=lambda x, y: 0.3 + 0.1 * y + 0.05 * np.cos(3.0 * x),
        mu=10.0, grid=grid)
    coeffs.set_velocity(rng.standard_normal(mesh.n_segments))
    return coeffs


# -- contribution streams ------------------------------------------------------

def _cv_stream(mesh, weight_values, free):
    """Mass-type operator: one stream entry per quadrature point and column."""
    quad = quadrature(mesh)
    elements = dr.element_table(mesh)
    cv_rows = elements[:, quad.owner_corner]
    rows = np.repeat(cv_rows.ravel(), 4)
    cols = np.repeat(elements, 16, axis=0).reshape(-1, 4).ravel()
    phi = np.tile(quad.phi, (mesh.n_elements, 1))
    vals = (quad.weight * weight_values.reshape(-1, 1) * phi).ravel()
    keep = free[rows]
    return linalg.assemble(rows[keep], cols[keep], vals[keep],
                           (mesh.n_vertices, mesh.n_vertices))


def _diffusion_stream(mesh, diffusion, free):
    quad = quadrature(mesh)
    seg = dr.segment_arrays(mesh)
    dq = diffusion(seg.mid[:, 0], seg.mid[:, 1])
    flux = dq[:, None] * quad.seg_dphi_n[seg.type] * seg.length[:, None]
    cols = dr.element_table(mesh)[seg.elem]
    rows = np.concatenate([np.repeat(seg.left, 4), np.repeat(seg.right, 4)])
    cc = np.concatenate([cols.ravel(), cols.ravel()])
    vv = np.concatenate([(-flux).ravel(), flux.ravel()])
    keep = free[rows]
    return linalg.assemble(rows[keep], cc[keep], vv[keep],
                           (mesh.n_vertices, mesh.n_vertices))


def _advection_stream(mesh, U, free):
    seg = dr.segment_arrays(mesh)
    act = np.flatnonzero(U != 0.0)
    up = np.where(U[act] > 0.0, seg.left[act], seg.right[act])
    rows = np.concatenate([seg.left[act], seg.right[act]])
    cols = np.concatenate([up, up])
    vals = np.concatenate([U[act], -U[act]])
    keep = free[rows]
    return linalg.assemble(rows[keep], cols[keep], vals[keep],
                           (mesh.n_vertices, mesh.n_vertices))


# -- operator equality -----------------------------------------------------------

def test_pressure_matches_stream(case):
    mesh, _, rng = case
    prob = PressureProblem(
        mesh, lambda th, x, y: (1.0 + th) * np.exp(np.sin(2.0 * x) * np.cos(y)),
        lambda x, y: np.cos(x) * y, dirichlet=lambda x, y: 1.0 + x - y)
    theta = NodalField(mesh, rng.random(mesh.n_vertices))
    a, rhs = assemble_pressure(prob, theta)
    e = dr.element_table(mesh)
    full = linalg.assemble(np.repeat(e, 4, axis=1).ravel(),
                           np.tile(e, (1, 4)).ravel(),
                           dr.full_stiffness(
                               element_kernel(prob, theta).stiffness).ravel(),
                           (mesh.n_vertices, mesh.n_vertices))
    free = sparse.diags((~mesh.is_dirichlet).astype(float))
    _same_operator(a, free @ full @ free + sparse.diags(
        mesh.is_dirichlet.astype(float)))
    fixed = mesh.dirichlet_vertices
    lift = np.zeros(mesh.n_vertices)
    lift[fixed] = prob.dirichlet_values(fixed)
    want = free @ (prob.load - full @ lift)
    np.testing.assert_allclose(rhs, want, rtol=0, atol=1e-14 * np.abs(want).max())


def test_transport_operators_match_streams(case):
    """The CV mass, the run's K0 = diffusion + reaction, advection and the
    Dirichlet rows of S0, each as a matrix on the stencil, and the coupling C,
    mu times the nudging with its Dirichlet rows dropped, formed from its
    factors; K0 of a run without diffusion is the reaction alone, and of
    one without reaction the diffusion alone."""
    mesh, grid, rng = case
    coeffs = _coefficients(mesh, grid, rng)
    pattern = linalg.stencil(mesh)
    free = ~mesh.is_dirichlet
    pts = dr.global_points(quadrature(mesh))
    x, y = pts[:, :, 0], pts[:, :, 1]
    nudge = (dr.nudge_by_assembly(mesh, grid)
             @ dr.functionals_by_assembly(grid)).tocsr()
    _same_operator(pattern.matrix(cv_mass(mesh)),
                   _cv_stream(mesh, np.ones(x.size), free))
    _same_operator(pattern.matrix(coeffs.k0),
                   _diffusion_stream(mesh, coeffs.diffusion, free)
                   + _cv_stream(mesh, coeffs.reaction(x, y).ravel(), free))
    _same_operator(coeffs.coupling.matrix(), coeffs.mu * nudge)
    np.testing.assert_allclose(coeffs.coupling.diagonal,
                               coeffs.mu * nudge.diagonal(), rtol=REL_TOL,
                               atol=REL_TOL * abs(coeffs.mu * nudge).max())
    reaction = TransportCoefficients(mesh, lambda x, y: np.zeros_like(x),
                                     reaction=coeffs.reaction)
    _same_operator(pattern.matrix(reaction.k0),
                   _cv_stream(mesh, coeffs.reaction(x, y).ravel(), free))
    plain = TransportCoefficients(mesh, coeffs.diffusion)
    _same_operator(pattern.matrix(plain.k0),
                   _diffusion_stream(mesh, coeffs.diffusion, free))
    _same_operator(pattern.matrix(coeffs.advection(coeffs.velocity_outflux)),
                   _advection_stream(mesh, coeffs.velocity_outflux, free))
    # M P from the run's factors, its Dirichlet rows dropped.
    nudge_cv = (sparse.diags(free.astype(float))
                @ sparse.kron(*coeffs.coupling.factors, format="csr"))
    nudge_cv.sort_indices()
    _same_operator(nudge_cv, dr.nudge_by_assembly(mesh, grid))
    dirichlet = np.flatnonzero(mesh.is_dirichlet)
    S0 = coeffs.matrices(0.03)[0].matrix
    _same_operator(sparse.diags(mesh.is_dirichlet.astype(float)) @ S0,
                   linalg.assemble(dirichlet, dirichlet, np.ones(dirichlet.size),
                                   (mesh.n_vertices, mesh.n_vertices)))


def test_advection_skips_zero_outflux(case):
    """Segments without flow add nothing, as in the stream, which leaves
    them out."""
    mesh, grid, rng = case
    U = rng.standard_normal(mesh.n_segments)
    U[rng.random(U.size) < 0.5] = 0.0
    coeffs = _coefficients(mesh, grid, rng)
    _same_operator(linalg.stencil(mesh).matrix(coeffs.advection(U)),
                   _advection_stream(mesh, U, ~mesh.is_dirichlet))


def test_pattern_is_the_vertex_graph():
    """Row v holds exactly the vertices sharing an element with v, sorted."""
    mesh = build_mesh(5, 3)
    pattern = linalg.stencil(mesh)
    assert linalg.stencil(mesh) is pattern
    adjacency = np.zeros((mesh.n_vertices,) * 2, dtype=bool)
    for corners in dr.element_table(mesh):
        adjacency[np.ix_(corners, corners)] = True
    graph = pattern.matrix(np.ones(pattern.nnz))
    assert graph.has_canonical_format          # sorted, no duplicates
    np.testing.assert_array_equal(graph.toarray() != 0, adjacency)
    np.testing.assert_array_equal(pattern.indices[dr.diagonal_slots(mesh)],
                                  np.arange(mesh.n_vertices))
    np.testing.assert_array_equal(pattern.indices[pattern.dirichlet_diagonal],
                                  mesh.dirichlet_vertices)


@pytest.mark.parametrize("boundary", ["all_dirichlet", "all_neumann",
                                      _mixed_faces])
def test_dirichlet_entries_are_the_entries_of_the_dirichlet_rows(boundary):
    """`dirichlet_entries` (int32) are the CSR positions of every entry in
    a row of `mesh.dirichlet_vertices`, in storage order."""
    mesh = build_mesh(6, 5, boundary_spec=boundary)
    pattern = linalg.stencil(mesh)
    want = [k for v in mesh.dirichlet_vertices
            for k in range(pattern.indptr[v], pattern.indptr[v + 1])]
    assert pattern.dirichlet_entries.dtype == np.int32
    np.testing.assert_array_equal(pattern.dirichlet_entries, want)


def test_diagonal_slots_own_their_data():
    """The diagonal slots of the Dirichlet rows, the only diagonal slots
    the stencil keeps; a view would keep the (nv, 9) slot table of the
    build alive."""
    mesh = build_mesh(6, 4)
    pattern = linalg.stencil(mesh)
    assert pattern.dirichlet_diagonal.base is None
    assert pattern.dirichlet_diagonal.shape == mesh.dirichlet_vertices.shape
    np.testing.assert_array_equal(
        pattern.dirichlet_diagonal,
        dr.diagonal_slots(mesh)[mesh.dirichlet_vertices])


@pytest.mark.parametrize("nx, ny", [(6, 4), (7, 5)])
def test_slots_are_int32_and_blocked_sums_equal_one_bincount(nx, ny,
                                                            monkeypatch):
    """The stencil keeps the int32 `dirichlet_diagonal` and the slots of
    three element rows, no whole slot table; the whole int32 table of the
    old build (`dense_reference.stencil_slots`) is what its blocks give, and
    `sum_blocks`, one block of two element rows at a time (the last one
    short when ny is odd), sums as one `np.bincount` over that table,
    bitwise; a broadcast block too.  The pattern's `ranges` are those of
    `kernel_point_blocks`."""
    monkeypatch.setattr(fields, "KERNEL_BLOCK", 2 * nx + 1)
    mesh = build_mesh(nx, ny)
    pattern = linalg.stencil(mesh)
    slots = dr.stencil_slots(mesh)
    assert slots.dtype == np.int32
    assert pattern.dirichlet_diagonal.dtype == np.int32
    assert slots.shape == (16 * mesh.n_elements,)
    assert pattern.row_slots.tables.shape == (3, 16 * nx)
    assert not hasattr(pattern, "slots")
    assert not hasattr(pattern, "diagonal_slots")
    starts = list(range(0, mesh.n_elements, 2 * nx))
    assert pattern.ranges == list(zip(starts, starts[1:] + [mesh.n_elements]))
    assert pattern.ranges == [b[:2] for b in fields.kernel_point_blocks(mesh)]
    rng = np.random.default_rng(11)
    for local in (rng.standard_normal((mesh.n_elements, 4, 4)),
                  np.broadcast_to(rng.standard_normal((4, 4)),
                                  (mesh.n_elements, 4, 4))):
        want = np.bincount(slots, weights=np.ravel(local),
                           minlength=pattern.nnz)
        assert pattern.sum_blocks(local).tobytes() == want.tobytes()


# (nx, ny, boundary): single rows and columns, odd sizes, all-Neumann and
# the size of `ex3_darcy`.
LATTICE_MESHES = [(1, 1, "all_dirichlet"), (1, 3, "all_dirichlet"),
                  (3, 1, "all_dirichlet"), (2, 2, "all_dirichlet"),
                  (7, 5, _mixed_faces), (12, 8, "all_neumann"),
                  (240, 240, "all_dirichlet")]


@pytest.mark.parametrize("split", [False, True], ids=["kernel-blocks",
                                                      "row-blocks"])
@pytest.mark.parametrize("nx, ny, boundary", LATTICE_MESHES,
                         ids=["1x1", "1x3", "3x1", "2x2", "7x5-mixed",
                              "12x8-neumann", "240x240"])
def test_block_slots_and_corners_equal_the_whole_tables(nx, ny, boundary,
                                                        split, monkeypatch):
    """Over every block of `kernel_point_blocks`, and with
    `fields.KERNEL_BLOCK` patched to 1 so that every element row is a block
    of its own, the stencil's block slots, its upwind block slots and the
    mesh's element corners equal the whole tables the old build kept
    (`dense_reference.stencil_slots`, `element_table`), and `corner_values`
    equals the fancy-index gather through that element table, bitwise; so
    do the whole mesh's corners and corner values, and the Dirichlet rows'
    diagonal slots."""
    if split:
        monkeypatch.setattr(fields, "KERNEL_BLOCK", 1)
    mesh = build_mesh(nx, ny, boundary_spec=boundary)
    pattern = linalg.stencil(mesh)
    upwind = transport.upwind_slots(mesh)
    slots = dr.stencil_slots(mesh).reshape(-1, 16)
    elements = dr.element_table(mesh)
    values = np.random.default_rng(nx * ny).standard_normal(mesh.n_vertices)
    theta = NodalField(mesh, values)
    blocks = fields.kernel_point_blocks(mesh)
    if split:
        assert len(blocks) == ny
    for lo, hi, _, _ in blocks:
        got = pattern.row_slots.block(lo, hi)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, slots[lo:hi].ravel())
        np.testing.assert_array_equal(
            upwind.block(lo, hi),
            slots[lo:hi][:, transport._UPWIND_ENTRIES].ravel())
        corners = mesh.element_corners(lo, hi)
        assert corners.dtype == elements.dtype
        np.testing.assert_array_equal(corners, elements[lo:hi])
        assert (theta.corner_values(lo, hi).tobytes()
                == values[elements[lo:hi]].tobytes())
    np.testing.assert_array_equal(mesh.element_corners(), elements)
    assert theta.corner_values().tobytes() == values[elements].tobytes()
    np.testing.assert_array_equal(
        pattern.dirichlet_diagonal,
        dr.diagonal_slots(mesh)[mesh.dirichlet_vertices])


def test_pattern_matrices_share_its_read_only_index_arrays():
    """`matrix` puts the data of `sum_blocks` on the pattern's own index
    arrays, which no matrix can change."""
    mesh = build_mesh(5, 4)
    pattern = linalg.stencil(mesh)
    local = np.random.default_rng(3).standard_normal((mesh.n_elements, 4, 4))
    a = pattern.matrix(pattern.sum_blocks(local))
    assert np.shares_memory(a.indices, pattern.indices)
    assert np.shares_memory(a.indptr, pattern.indptr)
    assert not pattern.indices.flags.writeable
    assert not pattern.indptr.flags.writeable
    with pytest.raises(ValueError):
        a.eliminate_zeros()


# -- driver path -------------------------------------------------------------------

@pytest.fixture(scope="module")
def ex3_twin():
    """Reference plus assimilated run of example3 over three coarse
    intervals, recording pattern builds, stream assemblies, kappa points
    and every flux recovery's inputs."""
    sc = scenarios.example3(nx=30, spacing=0.1, t_end=0.006)
    seen = {"patterns": 0, "assemblies": 0, "kappa_points": 0, "recoveries": []}
    kappa = sc.kappa

    def counted_kappa(theta, x, y):
        seen["kappa_points"] += np.broadcast(x, y).size
        return kappa(theta, x, y)

    build = linalg.StencilPattern.__init__

    def counted_build(self, mesh):
        seen["patterns"] += 1
        build(self, mesh)

    assemble = linalg.assemble

    def counted_assemble(*args):
        seen["assemblies"] += 1
        return assemble(*args)

    recover = driver.postprocess_flux

    def recorded(problem, pressure, theta):
        flux = recover(problem, pressure, theta)
        seen["recoveries"].append((problem.kernel, pressure, theta.copy()))
        return flux

    sc = sc.with_overrides(kappa=counted_kappa)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg.StencilPattern, "__init__", counted_build)
        mp.setattr(linalg, "assemble", counted_assemble)
        mp.setattr(driver, "postprocess_flux", recorded)
        part = driver.TimePartition.from_scenario(sc)
        assert part.n_coarse >= 3
        mesh = sc.build_mesh()
        ref = driver.run_reference(sc, part, mesh)
        run = driver.run_assimilated(sc, ref.stream, part, mesh,
                                     reference=ref.trajectory)
    solves = sum(len(r.report.solver_iterations["pressure"]) for r in (ref, run))
    return kappa, mesh, seen, solves


def test_twin_builds_the_pattern_once_per_mesh(ex3_twin):
    _, _, seen, _ = ex3_twin
    assert seen["patterns"] == 1


def test_twin_assembles_no_stream(ex3_twin):
    """The nudging operator is mass @ P and the point functionals are
    written directly, so no operator of the twin goes through
    `linalg.assemble`."""
    _, _, seen, _ = ex3_twin
    assert seen["assemblies"] == 0


def test_twin_evaluates_kappa_at_28_points_per_element_per_solve(ex3_twin):
    _, mesh, seen, solves = ex3_twin
    assert solves == 6
    assert seen["kappa_points"] == 28 * mesh.n_elements * solves


def test_twin_flux_recovery_stiffness_action_matches_quadrature(ex3_twin):
    """r3 = k_local @ p_c equals the quadrature form
    w sum_q kappa grad(p) . grad(phi) it replaced."""
    kappa, mesh, seen, _ = ex3_twin
    quad = quadrature(mesh)
    pts = dr.global_points(quad)
    assert len(seen["recoveries"]) == 6
    for kernel, pressure, theta in seen["recoveries"]:
        np.testing.assert_array_equal(kernel.theta, theta.values)
        p_c = pressure.corner_values()
        r3 = (dr.full_stiffness(kernel.stiffness) @ p_c[:, :, None])[:, :, 0]
        th = np.clip(theta.corner_values() @ quad.phi.T, 0.0, 1.0)
        kq = kappa(th, pts[:, :, 0], pts[:, :, 1])
        grad_p = np.einsum("pcd,ec->epd", quad.dphi, p_c)
        want = quad.weight * np.einsum("ep,epd,pxd->ex", kq, grad_p, quad.dphi)
        assert np.max(np.abs(r3 - want)) <= 1e-13 * np.max(np.abs(want))
