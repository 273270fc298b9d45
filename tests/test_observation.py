import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import dense_reference as dr
from porousda.fields import NodalField, l2_diff, l2_norm
from porousda.mesh import build_mesh
from porousda.observation import (AlignmentError, ObservationGapError,
                                  ObservationStream, SparseGrid)


@pytest.mark.parametrize("kind", ["point", "average"])
def test_constants_are_reproduced(kind):
    mesh = build_mesh(10, 10)
    grid = SparseGrid(mesh, 0.2, kind=kind)
    const = NodalField.from_callable(mesh, lambda x, y: 3.25 + 0.0 * x)
    out = grid.interpolate(const)
    np.testing.assert_allclose(out.values, 3.25, atol=1e-13)


def test_point_sampling_reads_lattice_vertices():
    """Point values are the field's values at the lattice vertices, read
    exactly, on a lattice that skips a different number of cells in x (6)
    than in y (3)."""
    mesh = build_mesh(12, 6)
    grid = SparseGrid(mesh, 0.5)
    assert (grid.kx, grid.ky) == (6, 3)
    field = NodalField.from_callable(mesh, lambda x, y: x + 10.0 * y)
    points = dr.lattice_vertices(grid)
    np.testing.assert_array_equal(points[:3, 0], [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(points[::3, 1], [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(grid.sample(field),
                                  points[:, 0] + 10.0 * points[:, 1])


@pytest.mark.parametrize("source", [lambda x, y: x + y, np.zeros(36)])
def test_sampling_takes_only_a_nodal_field(source):
    """A callable or a bare value array is wrapped by the caller
    (`NodalField.from_callable`, `NodalField`), not guessed at here."""
    grid = SparseGrid(build_mesh(5, 5), 0.2)
    with pytest.raises(TypeError, match="expected a NodalField"):
        grid.sample(source)
    with pytest.raises(TypeError, match="expected a NodalField"):
        grid.interpolate(source)


def test_idempotence_on_coarse_bilinear_fields():
    mesh = build_mesh(20, 20)
    grid = SparseGrid(mesh, 0.25)
    rng = np.random.default_rng(1)
    coarse = grid.reconstruct(rng.random(grid.n_obs))
    again = grid.interpolate(coarse)
    np.testing.assert_allclose(again.values, coarse.values, atol=1e-13)


@pytest.mark.parametrize("nx, ny, lx, k", [(240, 240, 1.0, 8), (60, 60, 1.0, 6),
                                         (48, 24, 2.0, 6), (45, 30, 1.5, 3)])
def test_average_functionals_match_the_assembled_ones(nx, ny, lx, k):
    """The Kronecker product of 1-D averages has the pattern of the
    functionals assembled point by point, and their values to roundoff."""
    mesh = build_mesh(nx, ny, lx, lx * ny / nx)
    grid = SparseGrid(mesh, k * lx / nx, kind="average")
    got = sparse.kron(grid.fy, grid.fx, format="csr")
    want = dr.average_functionals_by_assembly(grid)
    assert got.has_canonical_format
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_allclose(got.data, want.data, rtol=2e-15, atol=0.0)


def test_prolongation_partition_of_unity():
    mesh = build_mesh(12, 12)
    grid = SparseGrid(mesh, 0.25)
    ones = grid.reconstruct(np.ones(grid.n_obs)).values
    np.testing.assert_allclose(ones, 1.0, atol=1e-13)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(["point", "average"]))
def test_sign_preserved_for_nonnegative_fields(seed, kind):
    mesh = build_mesh(10, 10)
    grid = SparseGrid(mesh, 0.2, kind=kind)
    rng = np.random.default_rng(seed)
    field = NodalField(mesh, rng.random(mesh.n_vertices))
    assert np.min(grid.interpolate(field).values) >= 0.0


def test_interpolation_error_second_order():
    """Interpolation error of a smooth field halves twice per halved spacing."""
    mesh = build_mesh(40, 40)
    smooth = NodalField.from_callable(
        mesh, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    errs = []
    spacings = [0.2, 0.1, 0.05]
    for sp in spacings:
        out = SparseGrid(mesh, sp).interpolate(smooth)
        errs.append(l2_diff(out, smooth))
    slope = np.polyfit(np.log(spacings), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.25)   # measured 2.157 at nx=40


def test_average_vs_point_gap():
    """Cell averages differ from point values at O(H^2) inside the domain
    and at O(H) on the boundary rows of the lattice."""
    mesh = build_mesh(80, 80)
    f = NodalField.from_callable(
        mesh, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    for sp in (0.2, 0.1):
        pt = SparseGrid(mesh, sp, kind="point")
        av = SparseGrid(mesh, sp, kind="average")
        gap = np.abs(av.sample(f) - pt.sample(f))
        x, y = dr.lattice_vertices(pt).T
        on_edge = (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)
        interior = np.max(gap[~on_edge])
        assert 0.5 * sp ** 2 <= interior <= 1.0 * sp ** 2
        # one-sided averaging at a clipped cell leaves a first-order gap
        taylor = np.pi * sp / 4.0
        assert np.max(gap[on_edge]) == pytest.approx(taylor, rel=0.15)


@pytest.mark.parametrize("kind", ["point", "average"])
def test_interpolant_norm_bounded(kind):
    mesh = build_mesh(20, 20)
    grid = SparseGrid(mesh, 0.2, kind=kind)
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(11):
        u = NodalField(mesh, rng.standard_normal(mesh.n_vertices))
        worst = max(worst, l2_norm(grid.interpolate(u)) / l2_norm(u))
    assert worst <= 2.0          # measured peak 1.0026 on this corpus


def test_misaligned_lattice_rejected():
    mesh = build_mesh(10, 10)
    with pytest.raises(AlignmentError):
        SparseGrid(mesh, 0.15)
    with pytest.raises(AlignmentError):
        SparseGrid(mesh, 0.05)   # finer than the mesh
    with pytest.raises(AlignmentError):
        SparseGrid(build_mesh(7, 7), 0.3)  # 7 cells not divisible by 2


def test_reconstruct_validates_length():
    grid = SparseGrid(build_mesh(10, 10), 0.5)
    with pytest.raises(ValueError):
        grid.reconstruct(np.zeros(grid.n_obs + 1))


def test_stream_exact_at_records_and_midpoints():
    vals = np.array([[0.0, 2.0], [1.0, 4.0]])
    stream = ObservationStream([0.0, 1.0], vals)
    np.testing.assert_array_equal(stream.interpolate(0.0), vals[0])
    np.testing.assert_array_equal(stream.interpolate(1.0), vals[1])
    np.testing.assert_allclose(stream.interpolate(0.5), [0.5, 3.0])
    np.testing.assert_allclose(stream.interpolate(0.25), [0.25, 2.5])


def test_stream_gap_and_ordering_errors():
    stream = ObservationStream([0.0, 0.5], np.zeros((2, 3)))
    with pytest.raises(ObservationGapError):
        stream.interpolate(0.6)
    with pytest.raises(ObservationGapError):
        stream.interpolate(-0.1)
    with pytest.raises(ValueError):
        ObservationStream([0.0, 0.0], np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ObservationStream([0.3, 0.1], np.zeros((2, 3)))


def test_stream_time_interpolation_bound():
    """Linear-in-time readings of e^{-t} data stay within the dt^2/8 bound."""
    rng = np.random.default_rng(3)
    gamma0 = rng.random(6)
    coarse = np.linspace(0.0, 1.0, 11)      # dt = 0.1
    stream = ObservationStream(coarse,
                               np.exp(-coarse)[:, None] * gamma0[None, :])
    bound = (0.1 ** 2 / 8.0) * np.abs(gamma0)   # |d2/dt2| <= gamma0
    for t in np.linspace(0.0, 1.0, 101):
        gap = np.abs(stream.interpolate(t) - np.exp(-t) * gamma0)
        assert np.all(gap <= bound * 1.0001)
