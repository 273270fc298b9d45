import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import control_volumes, cv_areas, cv_bounds
from porousda.fields import quadrature
from porousda.mesh import (DIRICHLET, NEUMANN, SEG_LEFT_CORNER, SEG_NORMAL_AXIS,
                           SEG_RIGHT_CORNER, MeshError, build_mesh)


def test_two_by_two_counts():
    m = build_mesh(2, 2)
    assert m.n_vertices == 9
    assert m.n_elements == 4
    assert m.n_segments == 16
    assert m.hx == 0.5 and m.hy == 0.5


def test_element_vertex_ordering():
    """Row-major numbering, corners ordered SW, SE, NW, NE."""
    m = build_mesh(2, 2)
    expected = [[0, 1, 3, 4], [1, 2, 4, 5], [3, 4, 6, 7], [4, 5, 7, 8]]
    assert m.elements.tolist() == expected
    np.testing.assert_allclose(m.vertices[4], [0.5, 0.5])


def test_cv_areas_corner_edge_interior():
    m = build_mesh(2, 2)
    areas = cv_areas(m)
    assert areas[0] == pytest.approx(1.0 / 16.0)   # corner vertex
    assert areas[1] == pytest.approx(1.0 / 8.0)    # edge midpoint vertex
    assert areas[4] == pytest.approx(1.0 / 4.0)    # interior vertex


def test_cv_areas_partition_domain():
    m = build_mesh(3, 4, Lx=2.5, Ly=1.5)
    assert abs(cv_areas(m).sum() - 2.5 * 1.5) < 1e-13


def test_interior_cv_bounds_centered():
    m = build_mesh(2, 2)
    xlo, xhi, ylo, yhi = cv_bounds(m, 4)
    assert (xlo, xhi, ylo, yhi) == (0.25, 0.75, 0.25, 0.75)


def test_segment_endpoints_flank_midpoint():
    """Each sub-segment, an (element, type) pair, separates the two corners
    its type lists, and its midpoint in the mesh's point set lies halfway
    between them."""
    m = build_mesh(3, 2, Lx=1.5, Ly=1.0)
    quad = quadrature(m)
    seg_x, seg_y = quad.seg_x.reshape(-1, 4), quad.seg_y.reshape(-1, 4)
    for e in range(m.n_elements):
        for s in range(4):
            left = m.vertices[m.elements[e, SEG_LEFT_CORNER[s]]]
            right = m.vertices[m.elements[e, SEG_RIGHT_CORNER[s]]]
            axis = SEG_NORMAL_AXIS[s]
            mid = np.array([seg_x[e, s], seg_y[e, s]])
            # midpoint lies on the axis-line halfway between the two vertices
            assert mid[axis] == pytest.approx(0.5 * (left[axis] + right[axis]))
            # the off-axis coordinates agree, and the midpoint halves the
            # half-cell segment between the two vertices' rows or columns
            other = 1 - axis
            assert left[other] == pytest.approx(right[other])
            half = (m.hx, m.hy)[other] / 4.0
            assert abs(mid[other] - left[other]) == pytest.approx(half)
            # normal points from left vertex toward right vertex
            assert right[axis] > left[axis]


def test_cv_faces_close():
    """Sum of length-weighted outward normals vanishes on every CV."""
    m = build_mesh(3, 3)
    for cv in control_volumes(m):
        total = np.zeros(2)
        for face in cv.faces:
            total += face.length * face.normal
        np.testing.assert_allclose(total, 0.0, atol=1e-14)


def test_cv_face_pairing():
    m = build_mesh(3, 2)
    cvs = control_volumes(m)
    for cv in cvs:
        for face in cv.faces:
            if face.neighbor < 0:
                continue
            twins = [f for f in cvs[face.neighbor].faces
                     if f.neighbor == cv.vertex
                     and np.allclose(f.midpoint, face.midpoint)]
            assert len(twins) == 1
            assert twins[0].length == face.length
            np.testing.assert_allclose(twins[0].normal, -face.normal)


def test_boundary_cv_has_tagged_pieces():
    m = build_mesh(2, 2, boundary_spec="all_neumann")
    corner = control_volumes(m)[0]
    tags = [f.tag for f in corner.faces if f.neighbor == -1]
    assert tags == [NEUMANN, NEUMANN]
    # two interior faces and two boundary pieces around a corner vertex
    assert len(corner.faces) == 4


def test_mixed_boundary_tagging():
    """Dirichlet on the x-faces only; every vertex on those faces is fixed."""

    def rule(x, y):
        return DIRICHLET if x in (0.0, 1.0) else NEUMANN

    m = build_mesh(4, 4, boundary_spec=rule)
    x = m.vertices[:, 0]
    np.testing.assert_array_equal(m.is_dirichlet, (x == 0.0) | (x == 1.0))
    assert m.free_vertices.size == m.n_vertices - 2 * 5
    np.testing.assert_array_equal(m.dirichlet_vertices,
                                  np.flatnonzero(m.is_dirichlet))


def test_all_dirichlet_free_interior():
    m = build_mesh(4, 3)
    assert m.free_vertices.size == (4 - 1) * (3 - 1)
    x, y = m.vertices[:, 0], m.vertices[:, 1]
    on_boundary = (x == 0.0) | (y == 0.0) | (x == m.Lx) | (y == m.Ly)
    assert np.all(on_boundary == m.is_dirichlet)


def test_deterministic_rebuild():
    a = build_mesh(5, 4, Lx=2.0)
    b = build_mesh(5, 4, Lx=2.0)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.elements, b.elements)
    for pa, pb in zip(quadrature(a).points, quadrature(b).points):
        assert np.array_equal(pa, pb)


def test_bad_arguments_raise():
    with pytest.raises(MeshError):
        build_mesh(0, 3)
    with pytest.raises(MeshError):
        build_mesh(2, 2, Lx=-1.0)
    with pytest.raises(MeshError):
        build_mesh(2.5, 2)
    with pytest.raises(MeshError):
        build_mesh(2, 2, boundary_spec="slippery")
    with pytest.raises(MeshError):
        build_mesh(2, 2, boundary_spec=lambda x, y: "robin")


@settings(deadline=None, max_examples=25)
@given(nx=st.integers(1, 7), ny=st.integers(1, 7))
def test_counts_and_partition_property(nx, ny):
    m = build_mesh(nx, ny)
    assert m.n_vertices == (nx + 1) * (ny + 1)
    assert m.n_segments == 4 * nx * ny
    assert abs(cv_areas(m).sum() - 1.0) < 1e-12
    assert m.free_vertices.size + m.is_dirichlet.sum() == m.n_vertices
    both = np.sort(np.concatenate([m.dirichlet_vertices, m.free_vertices]))
    np.testing.assert_array_equal(both, np.arange(m.n_vertices))
    np.testing.assert_array_equal(m.dirichlet_vertices,
                                  np.flatnonzero(m.is_dirichlet))
