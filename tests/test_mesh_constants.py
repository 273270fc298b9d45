"""Fixed point sets and mesh-constant operators: one owner, built once.

The driver-path tests run a twin experiment (reference plus assimilated run)
and count how often each mesh constant, the raster factor of kappa and
example1's spatial factors are built.  The other tests hold the faster forms
to the ones they replaced (`np.add.at` source scatter, two evaluations of an
analytic truth per metric row, the sorted-stream prolongation), bitwise.
"""

import numpy as np
import pytest

import dense_reference as dr
from porousda import driver, fields, pressure, scenarios
from porousda.fields import NodalField, quadrature
from porousda.mesh import DIRICHLET, NEUMANN, build_mesh
from porousda.observation import SparseGrid, bilinear_prolongation
from porousda.pressure import kernel_point_blocks, multigrid_transfers
from porousda.scenarios import PermeabilityRaster
from porousda.transport import TransportCoefficients


def _counting(counts, key, fn):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return counted


@pytest.fixture(scope="module")
def ex3_twin_builds():
    """example3 nx=30 over three coarse intervals, reference plus assimilated
    run on one mesh, counting the builds of every mesh constant and every
    run of the raster's bilinear formula."""
    sc = scenarios.example3(nx=30, spacing=0.1, t_end=0.006)
    counts = dict.fromkeys(("bilinear", "quadrature", "kernel_blocks",
                            "transfers"), 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PermeabilityRaster, "_bilinear",
                   _counting(counts, "bilinear", PermeabilityRaster._bilinear))
        mp.setattr(fields, "Quadrature",
                   _counting(counts, "quadrature", fields.Quadrature))
        mp.setattr(pressure, "_build_kernel_blocks",
                   _counting(counts, "kernel_blocks",
                             pressure._build_kernel_blocks))
        mp.setattr(pressure, "_build_transfers",
                   _counting(counts, "transfers", pressure._build_transfers))
        part = driver.TimePartition.from_scenario(sc)
        mesh = sc.build_mesh()
        ref = driver.run_reference(sc, part, mesh)
        run = driver.run_assimilated(sc, ref.stream, part, mesh,
                                     reference=ref.trajectory)
    solves = sum(len(r.report.solver_iterations["pressure"]) for r in (ref, run))
    return mesh, counts, solves


def test_twin_runs_the_raster_formula_once_per_mesh(ex3_twin_builds):
    _, counts, solves = ex3_twin_builds
    assert solves == 6
    assert counts["bilinear"] == 1


def test_twin_builds_each_mesh_constant_once(ex3_twin_builds):
    _, counts, _ = ex3_twin_builds
    assert counts["quadrature"] == 1
    assert counts["kernel_blocks"] == 1
    assert counts["transfers"] == 1


def test_point_sets_are_views_of_one_read_only_pair(ex3_twin_builds):
    """The quadrature points, the kernel blocks and the sub-segment
    midpoints are views of the one (ne, 28) pair of the mesh's quadrature,
    frozen, so the memos keep them; the mesh holds no segment table."""
    mesh, _, _ = ex3_twin_builds
    quad = quadrature(mesh)
    px, py = quad.points
    blocks = kernel_point_blocks(mesh)
    assert sum(x.shape[0] for _, x, _ in blocks) == mesh.n_elements
    for base, views in ((px, [quad.x, quad.seg_x, *(x for _, x, _ in blocks)]),
                        (py, [quad.y, quad.seg_y, *(y for _, _, y in blocks)])):
        assert base.shape == (mesh.n_elements, 28) and base.flags.owndata
        for view in views:
            assert np.shares_memory(view, base) and view.base is base
            assert scenarios._frozen(view)
            with pytest.raises(ValueError):
                view[0, 0] = 0.0
    assert not [name for name in vars(mesh) if name.startswith("seg_")]
    local = np.array([pt[:2] for pt in dr.quad_points()])
    segments = dr.segment_arrays(mesh)
    for e in (0, mesh.n_elements - 1):
        ox, oy = dr.element_origin(mesh, e)
        np.testing.assert_allclose(quad.x[e], ox + local[:, 0] * mesh.hx,
                                   rtol=1e-15, atol=0)
        np.testing.assert_allclose(quad.y[e], oy + local[:, 1] * mesh.hy,
                                   rtol=1e-15, atol=0)
        mid = segments.mid[4 * e:4 * e + 4]
        np.testing.assert_array_equal(quad.seg_x[e], mid[:, 0])
        np.testing.assert_array_equal(quad.seg_y[e], mid[:, 1])


def test_problems_on_one_mesh_share_the_transfers():
    sc = scenarios.example3(nx=32)
    mesh = sc.build_mesh()
    a = pressure.PressureProblem(mesh, sc.kappa, sc.pressure_source)
    b = pressure.PressureProblem(mesh, sc.kappa, sc.pressure_source)
    assert a.transfers is b.transfers is multigrid_transfers(mesh)
    assert len(a.transfers) == 2


@pytest.fixture(scope="module")
def ex1_twin_builds():
    """example1 nx=10 over two coarse intervals, reference plus assimilated
    run on one mesh, counting the builds of the mass matrix and the
    evaluations of example1's spatial factors at the quadrature points."""
    sc = scenarios.example1(nx=10, t_end=0.04)
    mesh = sc.build_mesh()
    quad = quadrature(mesh)
    counts = {"mass": 0, "factors_at_quadrature": 0}
    factors = scenarios.example1_factors

    def counted_factors(x, y):
        counts["factors_at_quadrature"] += x is quad.x and y is quad.y
        return factors(x, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "_build_mass_matrix",
                   _counting(counts, "mass", fields._build_mass_matrix))
        mp.setattr(scenarios, "example1_factors", counted_factors)
        part = driver.TimePartition.from_scenario(sc)
        ref = driver.run_reference(sc, part, mesh)
        run = driver.run_assimilated(sc, ref.stream, part, mesh,
                                     reference=ref.trajectory)
    assert len(run.report.rows) == part.n_coarse * part.fine_per_coarse + 1
    return counts


def test_twin_computes_example1_factors_once_per_mesh(ex1_twin_builds):
    assert ex1_twin_builds["factors_at_quadrature"] == 1


def test_twin_builds_the_mass_matrix_once_per_mesh(ex1_twin_builds):
    assert ex1_twin_builds["mass"] == 1


# -- the raster memo ------------------------------------------------------------

def _frozen_points(n=40, seed=3):
    rng = np.random.default_rng(seed)
    x, y = (a.copy() for a in rng.uniform(-0.1, 1.1, (2, n, 7)))
    x.flags.writeable = False
    y.flags.writeable = False
    return x, y


def test_lookup_memo_returns_the_stored_value_for_the_same_arrays(monkeypatch):
    raster = PermeabilityRaster.standin(nx=12, ny=9, seed=5)
    counts = {"bilinear": 0}
    monkeypatch.setattr(PermeabilityRaster, "_bilinear",
                        _counting(counts, "bilinear", PermeabilityRaster._bilinear))
    x, y = _frozen_points()
    first = raster.lookup(x, y)
    again = raster.lookup(x, y)
    assert again is first and counts["bilinear"] == 1
    assert not first.flags.writeable
    np.testing.assert_array_equal(first, raster._bilinear(x.copy(), y.copy()))
    # Equal but different arrays are computed fresh, and become the memo.
    x2, y2 = _frozen_points()
    assert raster.lookup(x2, y2) is not first
    assert counts["bilinear"] == 3


def test_lookup_memo_ignores_arrays_that_can_change(monkeypatch):
    raster = PermeabilityRaster.standin(nx=12, ny=9, seed=5)
    counts = {"bilinear": 0}
    monkeypatch.setattr(PermeabilityRaster, "_bilinear",
                        _counting(counts, "bilinear", PermeabilityRaster._bilinear))
    x, y = _frozen_points()
    writable = x.copy(), y.copy()
    base = x.copy()
    view = base.view()
    view.flags.writeable = False         # read-only, but base can change it
    for args in (writable, writable, (view, y), (view, y)):
        value = raster.lookup(*args)
        assert value.flags.writeable
    assert counts["bilinear"] == 4
    base[0, 0] = 0.5
    np.testing.assert_array_equal(raster.lookup(view, y),
                                  raster._bilinear(base, y))


def test_memo_keeps_one_entry_per_pair_and_drops_it_with_its_arrays():
    memo = scenarios.FrozenPointMemo()
    x, y = _frozen_points()
    x2, y2 = _frozen_points(seed=4)
    first = memo(np.add, x, y)
    assert memo(np.add, x2, y2) is not first
    assert memo(np.add, x, y) is first and len(memo.values) == 2
    del x, first
    assert len(memo.values) == 1
    del y2
    assert memo.values == {}


@pytest.mark.parametrize("factory", [scenarios.example3, scenarios.example4])
def test_raster_kappa_reuses_the_factor_at_the_kernel_points(factory, monkeypatch):
    sc = factory(nx=16)
    mesh = sc.build_mesh()
    x, y = quadrature(mesh).points
    counts = {"bilinear": 0}
    monkeypatch.setattr(PermeabilityRaster, "_bilinear",
                        _counting(counts, "bilinear", PermeabilityRaster._bilinear))
    for theta in (0.0, 0.3, np.linspace(0.0, 1.0, x.size).reshape(x.shape)):
        got = sc.kappa(theta, x, y)
        np.testing.assert_array_equal(got, sc.kappa(theta, x.copy(), y.copy()))
    assert counts["bilinear"] == 1 + 3       # one memo fill, three fresh copies


# -- source and metric integrals ---------------------------------------------

def _mixed_faces(x, y):
    return DIRICHLET if x == 0.0 or (y == 0.0 and x < 0.5) else NEUMANN


@pytest.mark.parametrize("boundary", ["all_dirichlet", "all_neumann", _mixed_faces])
def test_source_vector_equals_the_add_at_scatter_bitwise(boundary):
    mesh = build_mesh(9, 7, 1.0, 0.7, boundary)

    def source(x, y, t):
        return np.sin(3.0 * x + t) * np.exp(y) - 0.4

    coeffs = TransportCoefficients(mesh, lambda x, y: np.ones_like(x),
                                   source=source)
    for t in (0.0, 0.125, 1.0 / 3.0):
        got = coeffs.source_vector(t)
        want = dr.source_vector_add_at(coeffs, t)
        assert got.tobytes() == want.tobytes()


def test_scalar_source_is_spread_over_every_point():
    mesh = build_mesh(5, 4)
    coeffs = TransportCoefficients(mesh, lambda x, y: np.ones_like(x),
                                   source=lambda x, y, t: 2.0)
    np.testing.assert_array_equal(coeffs.source_vector(0.0),
                                  dr.source_vector_add_at(coeffs, 0.0))


@pytest.mark.parametrize("factory, nx, times", [
    (scenarios.example1, 20, (0.0, 0.013, 0.5)),
    (scenarios.example4, 24, (0.0, 7200.0, 1.3 * scenarios.DAY))])
def test_example_source_vectors_equal_the_add_at_scatter_bitwise(factory, nx,
                                                                times):
    """The scatter sums each CV in point order, as the `np.bincount` form
    the CSR product replaced did, and evaluates the source at fresh copies
    of the points, where no memo applies."""
    sc = factory(nx=nx)
    coeffs = TransportCoefficients(sc.build_mesh(), sc.diffusion,
                                   reaction=sc.reaction, source=sc.source)
    for t in times:
        got = coeffs.source_vector(t)
        assert got.tobytes() == dr.source_vector_add_at(coeffs, t).tobytes()


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
    got = bilinear_prolongation(nx, ny, kx, ky)
    want = dr.prolongation_by_assembly(nx, ny, kx, ky)
    assert got.shape == want.shape
    for a, b in ((got.data, want.data), (got.indices, want.indices),
                 (got.indptr, want.indptr)):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
