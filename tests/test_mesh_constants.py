"""Fixed point sets and mesh-constant operators: one owner, built once.

The driver-path tests run a twin experiment (reference plus assimilated run)
and count how often each mesh constant and the raster factor of kappa are
built, and how often a run evaluates the spatial part of example1's source
and of its truth: once per run, never per step.  The other tests hold the
faster forms to the ones they replaced (`np.add.at` source scatter, two
evaluations of an analytic truth per metric row, the sorted-stream
prolongation), bitwise.
"""

import numpy as np
import pytest
from scipy import sparse

import dense_reference as dr
from porousda import driver, fields, pressure, scenarios
from porousda.fields import NodalField, kernel_point_blocks, quadrature
from porousda.mesh import DIRICHLET, NEUMANN, build_mesh
from porousda.observation import SparseGrid
from porousda.scenarios import PermeabilityRaster
from porousda.transport import TransportCoefficients


def _counting(counts, key, fn):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return counted


def _mixed_faces(x, y):
    return DIRICHLET if x == 0.0 or (y == 0.0 and x < 0.5) else NEUMANN


@pytest.fixture(scope="module")
def ex3_twin_builds():
    """example3 nx=30 over three coarse intervals, reference plus assimilated
    run on one mesh, counting the builds of every mesh constant."""
    sc = scenarios.example3(nx=30, spacing=0.1, t_end=0.006)
    counts = dict.fromkeys(("quadrature", "kernel_blocks"), 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "Quadrature",
                   _counting(counts, "quadrature", fields.Quadrature))
        mp.setattr(fields, "_build_kernel_blocks",
                   _counting(counts, "kernel_blocks",
                             fields._build_kernel_blocks))
        part = driver.TimePartition.from_scenario(sc)
        mesh = sc.build_mesh()
        ref = driver.run_reference(sc, part, mesh)
        run = driver.run_assimilated(sc, ref.stream, part, mesh,
                                     reference=ref.trajectory)
    solves = sum(len(r.report.solver_iterations["pressure"]) for r in (ref, run))
    return mesh, counts, solves


def test_twin_builds_each_mesh_constant_once(ex3_twin_builds):
    _, counts, solves = ex3_twin_builds
    assert solves == 6
    assert counts["quadrature"] == 1
    assert counts["kernel_blocks"] == 1


def test_twin_builds_no_transfer_constant(ex3_twin_builds):
    """The multigrid transfers are slices of the value grids, so after six
    multigrid pressure solves the mesh keeps no transfer constant and no
    sparse matrix but the 1-D factors of the CV mass, one lattice line
    long; the stencil's CSR arrays are its pattern."""
    mesh, _, _ = ex3_twin_builds
    assert not any("transfer" in str(key) for key in mesh._constants)
    line = max(mesh.nx, mesh.ny) + 1
    for value in mesh._constants.values():
        for item in value if isinstance(value, (list, tuple)) else (value,):
            assert not sparse.issparse(item) or max(item.shape) <= line


def test_point_sets_are_views_of_one_read_only_pair(ex3_twin_builds):
    """The quadrature points, the kernel blocks and the sub-segment
    midpoints are views of the one pair of the mesh's quadrature, broadcast
    from an (nx, 28) table of columns and an (ny, 28) table of rows, all
    read-only; the mesh holds no segment table."""
    mesh, _, _ = ex3_twin_builds
    quad = quadrature(mesh)
    px, py = quad.points
    blocks = kernel_point_blocks(mesh)
    assert sum(x[..., 0].size for _, _, x, _ in blocks) == mesh.n_elements
    for base, n, views in (
            (px.base, mesh.nx, [px, quad.x, quad.seg_x, *(b[2] for b in blocks)]),
            (py.base, mesh.ny, [py, quad.y, quad.seg_y, *(b[3] for b in blocks)])):
        assert base.shape == (n, 28) and base.flags.owndata
        for view in views:
            assert np.shares_memory(view, base) and view.base is base
            with pytest.raises(ValueError):
                view[0, 0] = 0.0
    assert not [name for name in vars(mesh) if name.startswith("seg_")]
    local = np.array([pt[:2] for pt in dr.quad_points()])
    segments = dr.segment_arrays(mesh)
    x, y = quad.x.reshape(-1, 16), quad.y.reshape(-1, 16)
    seg_x, seg_y = quad.seg_x.reshape(-1, 4), quad.seg_y.reshape(-1, 4)
    for e in (0, mesh.n_elements - 1):
        ox, oy = dr.element_origin(mesh, e)
        np.testing.assert_allclose(x[e], ox + local[:, 0] * mesh.hx,
                                   rtol=1e-15, atol=0)
        np.testing.assert_allclose(y[e], oy + local[:, 1] * mesh.hy,
                                   rtol=1e-15, atol=0)
        mid = segments.mid[4 * e:4 * e + 4]
        np.testing.assert_array_equal(seg_x[e], mid[:, 0])
        np.testing.assert_array_equal(seg_y[e], mid[:, 1])


# Non-square meshes, one with mixed Dirichlet and Neumann faces.
_RECTANGLES = [(12, 8, 1.5, 1.0, "all_dirichlet"), (5, 9, 1.0, 1.8, "all_neumann"),
               (9, 6, 0.9, 0.6, _mixed_faces)]


@pytest.mark.parametrize("nx, ny, Lx, Ly, boundary", _RECTANGLES)
def test_point_set_equals_the_dense_pair_bitwise(nx, ny, Lx, Ly, boundary,
                                                 monkeypatch):
    """Reshaped to (ne, 28), the point pair equals origin + local * h
    element by element, bitwise; so do its column blocks, and the kernel
    blocks, whole element rows with a short last block, in element order."""
    mesh = build_mesh(nx, ny, Lx, Ly, boundary)
    quad = quadrature(mesh)
    dense = dr.dense_points(mesh)
    for got, want in zip(quad.points, dense):
        assert got.shape == (ny, nx, 28)
        assert got.reshape(-1, 28).tobytes() == want.tobytes()
    for got, want in ((quad.x, dense[0][:, :16]), (quad.y, dense[1][:, :16]),
                      (quad.seg_x, dense[0][:, 24:]),
                      (quad.seg_y, dense[1][:, 24:])):
        assert got.reshape(want.shape).tobytes() == want.tobytes()
    monkeypatch.setattr(fields, "KERNEL_BLOCK", 2 * nx + 1)
    blocks = kernel_point_blocks(mesh)
    assert [x.shape[0] for _, _, x, _ in blocks] == [2] * (ny // 2) + [1] * (ny % 2)
    starts = list(range(0, mesh.n_elements, 2 * nx))
    assert [(lo, hi) for lo, hi, _, _ in blocks] == list(zip(
        starts, starts[1:] + [mesh.n_elements]))
    for i, want in enumerate(dense):
        got = np.concatenate([b[2 + i].reshape(-1, 28) for b in blocks])
        assert got.tobytes() == want.tobytes()


def _owner(a):
    while not a.flags.owndata:
        a = a.base
    return a


@pytest.mark.parametrize("nx, ny, Lx, Ly, boundary", _RECTANGLES)
def test_point_set_owns_per_column_and_per_row_tables_only(nx, ny, Lx, Ly,
                                                           boundary):
    """Every view of the point set, the kernel blocks included, reads from
    arrays that own at most 2 (nx + ny) 28 floats: no (ne, 28) array."""
    mesh = build_mesh(nx, ny, Lx, Ly, boundary)
    quad = quadrature(mesh)
    views = [*quad.points, quad.x, quad.y, quad.seg_x, quad.seg_y]
    for _, _, x, y in kernel_point_blocks(mesh):
        views += [x, y]
    owners = {id(o): o for o in map(_owner, views)}
    assert sum(o.size for o in owners.values()) <= 2 * (nx + ny) * 28


def test_problems_on_one_mesh_share_the_transfers():
    """The transfers are defined by the hierarchy's lattices, whose fixed
    vertices are strided views of the mesh's one `is_dirichlet`: problems
    on one mesh share them and hold no mesh-sized array."""
    sc = scenarios.example3(nx=32)
    mesh = sc.build_mesh()
    a = pressure.PressureProblem(mesh, sc.kappa, sc.pressure_source)
    b = pressure.PressureProblem(mesh, sc.kappa, sc.pressure_source)
    assert [(h.nx, h.ny) for h in a.hierarchy] == [(32, 32), (16, 16), (8, 8)]
    for p, q in zip(a.hierarchy, b.hierarchy):
        assert (p.nx, p.ny) == (q.nx, q.ny)
        for level in (p, q):
            assert level.fixed.base is mesh.is_dirichlet
        assert np.array_equal(p.fixed, q.fixed)


@pytest.fixture(scope="module")
def ex1_twin_builds():
    """example1 nx=10 over two coarse intervals, reference plus assimilated
    run on one mesh, counting the builds of the mass matrix's 1-D factors,
    every evaluation of the source's spatial factors and of the truth's
    profile, at any points: (counts after the reference run, after both)."""
    sc = scenarios.example1(nx=10, t_end=0.04)
    counts = {"mass": 0, "source_spatial": 0, "truth_profile": 0}
    sc = sc.with_overrides(
        source=scenarios.TimeFactored(
            _counting(counts, "source_spatial", sc.source.spatial),
            sc.source.combine),
        exact=scenarios.Separable(
            _counting(counts, "truth_profile", sc.exact.profile),
            sc.exact.rate))
    mesh = sc.build_mesh()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "_build_mass_factors",
                   _counting(counts, "mass", fields._build_mass_factors))
        part = driver.TimePartition.from_scenario(sc)
        ref = driver.run_reference(sc, part, mesh)
        after_reference = dict(counts)
        run = driver.run_assimilated(sc, ref.stream, part, mesh,
                                     reference=ref.trajectory)
    assert len(run.report.rows) == part.n_coarse * part.fine_per_coarse + 1
    return after_reference, counts


def test_twin_computes_example1_factors_once_per_run(ex1_twin_builds):
    """Each run evaluates the source's spatial factors once, none per step;
    the reference run's analytic comparator evaluates the truth's profile
    twice, at the quadrature points and at the vertices, and the assimilated
    run, measured against the reference trajectory, not at all."""
    after_reference, counts = ex1_twin_builds
    assert after_reference["source_spatial"] == 1
    assert counts["source_spatial"] == 2
    assert after_reference["truth_profile"] == 2
    assert counts["truth_profile"] == 2


def test_twin_builds_the_mass_matrix_once_per_mesh(ex1_twin_builds):
    assert ex1_twin_builds[1]["mass"] == 1


# -- the raster lookup ------------------------------------------------------------

# The lookup blends along y and then along x, a + fx (b - a); the oracle
# sums four weighted corners.  Both round to a few ulp of the value.
LOOKUP_RTOL = 1e-15


def test_lookup_equals_the_bilinear_oracle_at_the_kernel_blocks():
    """example3 at nx = 240: 14 blocks of 17 element rows and one of 2."""
    sc = scenarios.example3(nx=240)
    mesh = sc.build_mesh()
    raster = sc.notes["raster"]
    for _, _, x, y in kernel_point_blocks(mesh):
        got = raster.lookup(x, y)
        assert got.shape == x.shape and got.flags.c_contiguous
        np.testing.assert_allclose(got, dr.raster_bilinear(raster, x, y),
                                   rtol=LOOKUP_RTOL, atol=0.0)


@pytest.mark.parametrize("shape", [(9, 12), (1, 12), (9, 1), (1, 1)],
                         ids=["9x12", "1-tall", "1-wide", "1x1"])
def test_lookup_equals_the_bilinear_oracle_on_a_strip(shape, monkeypatch):
    """A 12 x 8 strip of lengths (2, 1) in blocks of 3 element rows, and
    points beyond every edge of the raster, where the lookup clamps; on
    rasters of one row, one column or one value too."""
    values = np.random.default_rng(7).uniform(0.5, 2.0, shape)
    raster = PermeabilityRaster(values, lengths=(2.0, 1.0))
    monkeypatch.setattr(fields, "KERNEL_BLOCK", 3 * 12)
    mesh = build_mesh(12, 8, 2.0, 1.0)
    blocks = kernel_point_blocks(mesh)
    assert [x.shape[0] for _, _, x, _ in blocks] == [3, 3, 2]
    outside = np.meshgrid(np.linspace(-0.3, 2.3, 11), np.linspace(-0.2, 1.2, 9))
    for x, y in [b[2:] for b in blocks] + [outside]:
        np.testing.assert_allclose(raster.lookup(x, y),
                                   dr.raster_bilinear(raster, x, y),
                                   rtol=LOOKUP_RTOL, atol=0.0)
    edge = raster.lookup(np.array([-1.0, 5.0]), np.array([-1.0, 5.0]))
    np.testing.assert_array_equal(edge, [values[0, 0], values[-1, -1]])


@pytest.mark.parametrize("factory", [scenarios.example3, scenarios.example4])
def test_lookup_is_bitwise_equal_on_compact_broadcast_and_contiguous_points(
        factory):
    """A kernel block, its compact (1, nx, 28) and (rows, 1, 28) tables and
    contiguous copies of it, whole or as (ne, 28) rows, give the same
    values, bitwise; so does one point given as two floats."""
    sc = factory(nx=36)
    mesh = sc.build_mesh()
    raster = sc.notes["raster"]
    px, py = quadrature(mesh).points
    x, y = px[:5], py[:5]
    want = raster.lookup(x, y)
    compact = raster.lookup(scenarios._compact(x), scenarios._compact(y))
    assert compact.tobytes() == want.tobytes()
    copies = raster.lookup(x.copy(), y.copy())
    assert copies.tobytes() == want.tobytes()
    rows = raster.lookup(x.reshape(-1, 28), y.reshape(-1, 28))
    assert rows.tobytes() == want.tobytes()
    point = raster.lookup(float(x[2, 3, 7]), float(y[2, 3, 7]))
    assert point.shape == () and point == want[2, 3, 7]


def test_a_reference_run_leaves_no_whole_point_array():
    """The raster keeps nothing of the points it was looked up at, and the
    mesh's constants hold no array of ne x 28 values after a run."""
    sc = scenarios.example3(nx=30, spacing=0.1, t_end=0.004)
    mesh = sc.build_mesh()
    ref = driver.run_reference(sc, driver.TimePartition.from_scenario(sc),
                               mesh)
    assert len(ref.report.solver_iterations["pressure"]) == 2
    raster = sc.notes["raster"]
    assert set(vars(raster)) == {"values", "lengths", "nx", "ny"}

    seen = set()

    def arrays(value):
        if id(value) in seen or value is mesh:
            return
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            yield _owner(value)
        elif sparse.issparse(value):
            yield from arrays([value.data, value.indices, value.indptr])
        elif isinstance(value, (list, tuple)):
            for item in value:
                yield from arrays(item)
        elif isinstance(value, dict):
            yield from arrays(list(value.values()))
        elif hasattr(value, "__dict__"):
            yield from arrays(list(vars(value).values()))

    held = list(arrays(mesh._constants))
    assert held
    assert max(a.size for a in held) < 28 * mesh.n_elements


def test_no_mesh_attribute_or_constant_holds_a_whole_mesh_index_table():
    """After a nudged twin and a transport factor on one mesh, no attribute
    of the mesh and no mesh constant holds an integer array of ne or more
    entries but the stencil's CSR `indices` and `indptr` and the
    `dissection` orders: element corners, stencil slots and the multigrid
    transfers are derived from the lattice where they are read.  The three
    element rows of slots the stencil keeps, 48 nx entries, are fewer than
    ne from ny = 49 on."""
    sc = scenarios.example3(nx=60, spacing=0.1, t_end=0.004)
    part = driver.TimePartition.from_scenario(sc)
    mesh = sc.build_mesh()
    ref = driver.run_reference(sc, part, mesh)
    run = driver.run_assimilated(sc, ref.stream, part, mesh,
                                 reference=ref.trajectory)
    assert len(run.report.solver_iterations["pressure"]) == 2
    grid = SparseGrid(mesh, 0.1)
    coeffs = TransportCoefficients(mesh, lambda x, y: 0.01 + 0.0 * x,
                                   mu=10.0, grid=grid)
    coeffs.set_velocity(np.random.default_rng(5).standard_normal(
        mesh.n_segments))
    assert coeffs.factorize(coeffs.matrices(1e-3)[0])
    assert ("dissection", (grid.kx, grid.ky)) in mesh._constants

    seen = set()

    def arrays(value, path):
        if id(value) in seen or value is mesh:
            return
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            yield path, value
        elif sparse.issparse(value):
            for name in ("data", "indices", "indptr"):
                yield from arrays(getattr(value, name), path + (name,))
        elif isinstance(value, (list, tuple)):
            for k, item in enumerate(value):
                yield from arrays(item, path + (k,))
        elif isinstance(value, dict):
            for key, item in value.items():
                yield from arrays(item, path + (key,))
        elif hasattr(value, "__dict__"):
            for name, item in vars(value).items():
                yield from arrays(item, path + (name,))

    def allowed(path):
        key = path[1]
        return ((isinstance(key, tuple) and key[0] == "dissection")
                or path[1:] in (("stencil", "indices"), ("stencil", "indptr")))

    whole = [path for path, a in arrays(vars(mesh), ())
             if np.issubdtype(a.dtype, np.integer) and a.size >= mesh.n_elements
             and not (path[0] == "_constants" and allowed(path))]
    assert whole == []
    assert "stencil" in mesh._constants and "upwind_slots" in mesh._constants


@pytest.mark.parametrize("factory", [scenarios.example3, scenarios.example4])
def test_raster_kappa_reuses_the_factor_at_the_kernel_points(factory):
    """kappa at the mesh's broadcast point views equals kappa at contiguous
    copies of them, bitwise, for scalar and whole-array concentrations."""
    sc = factory(nx=16)
    mesh = sc.build_mesh()
    x, y = quadrature(mesh).points
    for theta in (0.0, 0.3, np.linspace(0.0, 1.0, x.size).reshape(x.shape)):
        got = sc.kappa(theta, x, y)
        np.testing.assert_array_equal(got, sc.kappa(theta, x.copy(), y.copy()))


# -- source and metric integrals ---------------------------------------------

@pytest.mark.parametrize("boundary", ["all_dirichlet", "all_neumann", _mixed_faces])
def test_source_vector_equals_the_add_at_scatter_bitwise(boundary):
    """A plain source and its `TimeFactored` form, sin(3x) and e^y kept, give
    the scatter of the plain source's values bitwise."""
    mesh = build_mesh(9, 7, 1.0, 0.7, boundary)

    def source(x, y, t):
        return np.sin(3.0 * x + t) * np.exp(y) - 0.4

    def spatial(x, y):
        return 3.0 * x, np.exp(y)

    def combine(parts, t):
        x3, ey = parts
        return np.sin(x3 + t) * ey - 0.4

    for form in (source, scenarios.TimeFactored(spatial, combine)):
        coeffs = TransportCoefficients(mesh, lambda x, y: np.ones_like(x),
                                       source=form)
        for t in (0.0, 0.125, 1.0 / 3.0):
            got = coeffs.source_vector(t)
            want = dr.cv_integrals_add_at(mesh, lambda x, y: source(x, y, t))
            assert got.tobytes() == want.tobytes()


def test_scalar_source_is_spread_over_every_point():
    mesh = build_mesh(5, 4)
    coeffs = TransportCoefficients(mesh, lambda x, y: np.ones_like(x),
                                   source=lambda x, y, t: 2.0)
    np.testing.assert_array_equal(coeffs.source_vector(0.0),
                                  dr.source_vector_add_at(coeffs, 0.0))


# Integrating a separable source's profile once and scaling it by rate(t)
# rounds differently from integrating profile * rate at the points; every
# profile and rate here is positive, so the two agree entry by entry.
SEPARABLE_RTOL = 1e-14


@pytest.mark.parametrize("factory, nx, times", [
    (scenarios.example1, 20, (0.0, 0.013, 0.5)),
    (scenarios.example4, 24, (0.0, 7200.0, 1.3 * scenarios.DAY)),
    # Blocks of 56 and 16 element rows (`fields.KERNEL_BLOCK`).
    (scenarios.example4, 72, (0.0, 7200.0)),
    (scenarios.example2, 12, (0.0, 0.02, 1.5)),
    (scenarios.diffusion_reaction, 10, (0.0, 0.1, 0.75))])
def test_example_source_vectors_equal_the_add_at_scatter_bitwise(factory, nx,
                                                                times):
    """The scatter sums each CV in point order, as the `np.bincount` form
    the CSR product replaced did, and evaluates at fresh copies of the
    points, where no memo applies.  example1's source is general and matches
    the scatter of its values; a `Separable` source is rate(t) times the
    scatter of its profile, bitwise, and the scatter of its values to
    `SEPARABLE_RTOL`."""
    sc = factory(nx=nx)
    mesh = sc.build_mesh()
    coeffs = TransportCoefficients(mesh, sc.diffusion, reaction=sc.reaction,
                                   source=sc.source)
    separable = isinstance(sc.source, scenarios.Separable)
    assert (coeffs.separable is not None) == separable
    if separable:
        profile = dr.cv_integrals_add_at(mesh, sc.source.profile)
    for t in times:
        got = coeffs.source_vector(t)
        general = dr.source_vector_add_at(coeffs, t)
        if not separable:
            assert got.tobytes() == general.tobytes()
            continue
        assert got.tobytes() == (sc.source.rate(t) * profile).tobytes()
        np.testing.assert_allclose(got, general, rtol=SEPARABLE_RTOL, atol=0.0)


def test_cv_integration_matrix_is_built_only_with_a_source():
    mesh = build_mesh(6, 5)
    diffusion = lambda x, y: np.ones_like(x)
    assert TransportCoefficients(mesh, diffusion).source_cv is None
    with_source = TransportCoefficients(mesh, diffusion,
                                        source=lambda x, y, t: x + t)
    assert with_source.source_cv.shape == (mesh.n_vertices,
                                                    16 * mesh.n_elements)
    np.testing.assert_array_equal(TransportCoefficients(mesh, diffusion)
                                  .source_vector(0.5), 0.0)


def test_a_separable_source_keeps_no_integration_matrix():
    """A `Separable` source keeps its profile's CV integrals, an nv-vector,
    and no (nv, 16 ne) matrix; its profile is evaluated once, at build."""
    mesh = build_mesh(6, 5)
    calls = {"profile": 0}
    profile = _counting(calls, "profile", lambda x, y: x + 2.0 * y)
    coeffs = TransportCoefficients(
        mesh, lambda x, y: np.ones_like(x),
        source=scenarios.Separable(profile, lambda t: 1.0 + t))
    assert coeffs.source_cv is None
    assert coeffs.profile_cv.shape == (mesh.n_vertices,)
    assert not any(sparse.issparse(v) and v.shape[1] == 16 * mesh.n_elements
                   for v in vars(coeffs).values())
    for t in (0.0, 0.5, 2.0):
        np.testing.assert_array_equal(coeffs.source_vector(t),
                                      (1.0 + t) * coeffs.profile_cv)
    assert calls["profile"] == 1


def test_metrics_evaluate_the_truth_once_and_match_two_calls():
    sc = scenarios.example1(nx=20)
    mesh = sc.build_mesh()
    grid = SparseGrid(mesh, sc.spacing)
    calls = {"exact": 0}
    exact = _counting(calls, "exact", sc.exact)
    comparator = driver._Comparator(sc.with_overrides(exact=exact), grid)
    theta = NodalField.from_callable(
        mesh, lambda x, y: 0.9 * sc.exact(x, y, 0.1) + 0.01 * np.sin(7.0 * x))
    for t in (0.0, 0.1, 0.37):
        calls["exact"] = 0
        got = comparator.metrics(theta, t)
        # One evaluation at the quadrature points, one at the mesh vertices
        # for the coarse interpolant.
        assert calls["exact"] == 2
        want = dr.metrics_two_calls(theta, lambda x, y: sc.exact(x, y, t), grid)
        assert got == want


# -- coarse transfers -------------------------------------------------------------

@pytest.mark.parametrize("nx, ny, kx, ky", [(240, 240, 8, 8), (240, 240, 2, 2),
                                            (60, 60, 6, 6), (9, 6, 3, 2)])
def test_prolongation_equals_the_assembled_stream_bitwise(nx, ny, kx, ky):
    got = dr.bilinear_prolongation(nx, ny, kx, ky)
    want = dr.prolongation_by_assembly(nx, ny, kx, ky)
    assert got.shape == want.shape
    for a, b in ((got.data, want.data), (got.indices, want.indices),
                 (got.indptr, want.indptr)):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
