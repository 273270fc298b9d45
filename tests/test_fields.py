import numpy as np
import pytest

from dense_reference import (field_gradient, field_value, integrate,
                             interp_const, l2_by_quadrature, locate)
from porousda.fields import (DGField, NodalField, basis_gradients,
                             basis_values, l2_diff, l2_norm, mass_matrix,
                             quadrature)
from porousda.mesh import build_mesh


def test_partition_of_unity():
    rng = np.random.default_rng(7)
    pts = rng.random((40, 2))
    vals = basis_values(pts[:, 0], pts[:, 1])
    np.testing.assert_allclose(vals.sum(axis=-1), 1.0, atol=1e-14)
    grads = basis_gradients(pts[:, 0], pts[:, 1], 0.3, 0.7)
    np.testing.assert_allclose(grads.sum(axis=-2), 0.0, atol=1e-13)


def test_bilinear_field_reproduced_exactly():
    m = build_mesh(3, 5, Lx=1.5, Ly=2.0)
    f = lambda x, y: 2.0 + 3.0 * x - 5.0 * y + 7.0 * x * y
    field = NodalField.from_callable(m, f)
    pts = np.array([[0.1, 0.2], [0.73, 1.9], [1.5, 0.0], [0.5, 1.0]])
    np.testing.assert_allclose(field_value(field, pts), f(pts[:, 0], pts[:, 1]),
                               atol=1e-13)


def test_gradient_of_xy_at_element_center():
    m = build_mesh(1, 1)
    field = NodalField.from_callable(m, lambda x, y: x * y)
    g = field_gradient(field, np.array([[0.5, 0.5]]))
    np.testing.assert_allclose(g[0], [0.5, 0.5], atol=1e-14)


def test_quadrature_layout():
    m = build_mesh(2, 3, Lx=1.0, Ly=1.5)
    q = quadrature(m)
    assert q.local_points.shape == (16, 2)
    assert q.phi.shape == (16, 4)
    np.testing.assert_array_equal(q.owner_corner, np.repeat(np.arange(4), 4))
    # weights tile the element
    assert 16 * q.weight == pytest.approx(m.hx * m.hy)
    # each point sits inside the quadrant of its owning corner
    xi, eta = q.local_points[:, 0], q.local_points[:, 1]
    quadrant = (xi > 0.5).astype(int) + 2 * (eta > 0.5).astype(int)
    np.testing.assert_array_equal(quadrant, q.owner_corner)


def test_quadrature_integrates_bilinear_exactly():
    m = build_mesh(4, 4)
    assert integrate(m, lambda x, y: x + y) == pytest.approx(1.0, abs=1e-14)
    assert integrate(m, lambda x, y: x * y) == pytest.approx(0.25, abs=1e-14)


def test_quadrant_sum_of_constant_is_quarter_area():
    m = build_mesh(3, 2, Lx=0.9, Ly=1.1)
    q = quadrature(m)
    for c in range(4):
        part = q.weight * (q.owner_corner == c).sum()
        assert part == pytest.approx(m.hx * m.hy / 4.0)


def test_interp_const_picks_corner_values():
    m = build_mesh(2, 2)
    dg = DGField(m, np.tile([1.0, 2.0, 3.0, 4.0], (m.n_elements, 1)))
    vals = interp_const(dg, 3)
    np.testing.assert_array_equal(vals, [1.0, 2.0, 3.0, 4.0])


def test_locate_ties_go_to_lower_element():
    m = build_mesh(2, 1, Lx=2.0)
    assert locate(m, np.array([[1.0, 0.5]]))[0] == 0
    assert locate(m, np.array([[2.0, 0.5]]))[0] == 1  # clamped at the far edge
    with pytest.raises(ValueError):
        locate(m, np.array([[2.5, 0.5]]))


def test_l2_norm_constant_field():
    m = build_mesh(6, 6, Lx=2.0, Ly=3.0)
    one = NodalField.from_callable(m, lambda x, y: 1.0)
    assert l2_norm(one) == pytest.approx(np.sqrt(6.0), rel=1e-13)


def test_l2_norm_sine_interpolant():
    m = build_mesh(20, 20)
    f = NodalField.from_callable(
        m, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    # continuum norm is 0.5; the nx=20 interpolant measures 0.49795
    assert abs(l2_norm(f) - 0.5) < 0.01


def test_l2_diff_against_time_callable():
    m = build_mesh(8, 8)
    exact = lambda x, y, t: (x - x * x) * np.exp(-t)
    f = NodalField.from_callable(m, lambda x, y: exact(x, y, 0.3))
    # only the O(h^2) interpolation error remains at the same t
    assert 1e-4 < l2_diff(f, lambda x, y: exact(x, y, 0.3)) < 5e-3
    assert l2_diff(f, f.copy()) == 0.0


@pytest.mark.parametrize("nx, ny, lx, ly", [(12, 12, 1.0, 1.0),    # square cells
                                            (8, 10, 4.0, 1.25)])  # 4:1 cells
def test_nodal_l2_by_mass_matrix_matches_the_quadrature_sum(nx, ny, lx, ly):
    m = build_mesh(nx, ny, Lx=lx, Ly=ly)
    rng = np.random.default_rng(nx)
    u = NodalField(m, rng.standard_normal(m.n_vertices))
    v = NodalField(m, rng.standard_normal(m.n_vertices))
    smooth = NodalField.from_callable(m, lambda x, y: np.exp(x) * np.cos(y))
    for a, b in ((u, v), (smooth, u), (u, smooth)):
        assert l2_norm(a) == pytest.approx(l2_by_quadrature(a), rel=1e-14)
        assert l2_diff(a, b) == pytest.approx(l2_by_quadrature(a, b), rel=1e-14)
    assert l2_diff(u, u.copy()) == 0.0
    assert l2_norm(NodalField.zeros(m)) == 0.0


def test_mass_matrix_is_a_symmetric_mesh_constant_with_the_domain_area():
    m = build_mesh(5, 3, Lx=2.0, Ly=0.75)
    M = mass_matrix(m)
    assert mass_matrix(m) is M
    assert abs(M - M.T).max() == 0.0
    assert M.sum() == pytest.approx(1.5, rel=1e-14)


def test_nodal_field_shape_validation():
    m = build_mesh(2, 2)
    with pytest.raises(ValueError):
        NodalField(m, np.zeros(5))
    with pytest.raises(ValueError):
        DGField(m, np.zeros((m.n_elements, 3)))


def test_quadrature_norm_matches_the_dot_product():
    """The einsum reduction gives the norm of the BLAS dot product it
    replaced, on full-size and broadcast values."""
    from porousda.fields import _quadrature_norm

    mesh = build_mesh(60, 60)
    weight = quadrature(mesh).weight
    rng = np.random.default_rng(7)
    for v in (rng.standard_normal((mesh.n_elements, 16)),
              np.broadcast_to(rng.random(16), (mesh.n_elements, 16))):
        want = float(np.sqrt(np.vdot(v, v) * weight))
        assert abs(_quadrature_norm(mesh, v) - want) <= 1e-14 * want
