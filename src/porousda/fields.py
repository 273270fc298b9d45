"""Piecewise-bilinear fields on structured meshes and their quadrature.

Two field types: NodalField is continuous with one value per vertex, DGField
is discontinuous with four corner values per element.  All area integrals use
the same rule everywhere in the package: 2x2 Gauss points on each quadrant of
each element (16 points per element), so that control-volume integrals and
element integrals are built from the identical point set.  Surface integrals
on control-volume faces use the midpoint rule per sub-segment.

`quadrature(mesh)` is the one owner of the element point set, built once per
mesh, on first use: every element's 16 quadrature points, its 8 edge
quarter points (where the flux recovery averages the pressure's edge
fluxes) and its 4 sub-segment midpoints, in the order of `POINT_LOCAL`.  On
the uniform mesh a point's x depends only on its element's column and its
y only on its element's row, so the set is kept as two read-only tables,
(nx, 28) and (ny, 28), and `points` is a pair of read-only broadcast views
of them, (ny, nx, 28), elements row by row as the mesh numbers them.  Its
column blocks are the views every module reads: `x` and `y`, (ny, nx, 16),
where each coefficient and source integrated with the rule is evaluated,
and `seg_x` and `seg_y`, (ny, nx, 4), the sub-segment midpoints.  A value
computed at them is reshaped to the per-element layout, (ne, 16) or
(ne, 4), by the caller.

`kernel_point_blocks(mesh)`, also built once per mesh, slices the pair into
blocks of max(1, `KERNEL_BLOCK` // nx) whole element rows, each with its
element range lo:hi, the one owner of that rule.  Every pass that
evaluates a coefficient at the point set or scatters per-element data over
the whole mesh runs one block at a time: kappa (with a raster's lookup,
which keeps no values at the blocks), the pressure source and its
control-volume integrals, the stiffness's sum into the stencil pattern
(`linalg.StencilPattern.sum_blocks`), the transport run's operator and its
upwind advection, and the flux recovery's stiffness action and
control-volume balance.  A block scatters by `np.add.at`, which adds into a
zeroed output in element order as one `np.bincount` over the whole mesh
would, so the sums do not depend on the blocks; each such pass makes a few
(rows, nx, k) temporaries instead of (ny, nx, k) ones.  The pressure set-up's weighted source
(`pressure.PressureProblem`) is blocked too: its product with the basis is
an `np.einsum`, which calls no BLAS, and the blocks' products equal the
whole array's bitwise in the tests, for the block layouts used (numpy does
not promise einsum's summation order).  Not blocked: a general transport
source or an analytic truth, evaluated at every quadrature point on each
call.

The L2 norm of a nodal field, or of the difference of two, is sqrt(u^T M u),
M = m_y (x) m_x the consistent mass matrix, never formed
(`_build_mass_factors`, once per mesh); the rule is exact for M, so this is
the quadrature sum up to roundoff.  A norm that involves a discontinuous
field, a callable or a `QuadratureField` is summed over the quadrature
points.
"""

import numpy as np
from scipy import sparse

from .mesh import EDGE_QP_LOCAL, SEG_LOCAL_MID, SEG_NORMAL_AXIS, SEG_SIGN

_G = 0.5 / np.sqrt(3.0)
# Elements per block of `kernel_point_blocks`, rounded down to whole rows of
# elements: a block is max(1, KERNEL_BLOCK // nx) rows.
KERNEL_BLOCK = 4096


def basis_values(xi, eta):
    """Bilinear basis on the unit square, corner order SW, SE, NW, NE."""
    xi = np.asarray(xi)
    eta = np.asarray(eta)
    return np.stack([(1 - xi) * (1 - eta), xi * (1 - eta),
                     (1 - xi) * eta, xi * eta], axis=-1)


def basis_gradients(xi, eta, hx, hy):
    """Physical gradients of the bilinear basis, shape (..., 4, 2)."""
    xi = np.asarray(xi)
    eta = np.asarray(eta)
    dxi = np.stack([-(1 - eta), (1 - eta), -eta, eta], axis=-1) / hx
    deta = np.stack([-(1 - xi), -xi, (1 - xi), xi], axis=-1) / hy
    return np.stack([dxi, deta], axis=-1)


def _quad_local():
    g = np.array([0.5 - _G, 0.5 + _G])
    quadrants = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
    return np.array([((qx + gx) / 2.0, (qy + gy) / 2.0)
                     for qx, qy in quadrants for gy in g for gx in g])


# Local coordinates of the 16 quadrature points of the unit element.
QUAD_LOCAL = _quad_local()
# The rule's 1-D factor: the two hats of a unit cell at its four Gauss
# points, two on each half, (hat, point); each point weighs a quarter cell.
CELL_HATS = np.stack([1.0 - np.unique(QUAD_LOCAL[:, 0]),
                      np.unique(QUAD_LOCAL[:, 0])])
# The element point set: the quadrature points, the edge quarter points and
# the sub-segment midpoints, columns 0:16, 16:24 and 24:28 of `points`.
POINT_LOCAL = np.concatenate([QUAD_LOCAL, EDGE_QP_LOCAL, SEG_LOCAL_MID])


class Quadrature:
    """Per-element quadrature and segment tables bound to one mesh.

    Points are ordered quadrant by quadrant (SW, SE, NW, NE), four Gauss
    points each, so point k belongs to the control volume of local corner
    k // 4.  Weights are uniform: hx*hy/16 per point.  `points` holds the
    global coordinates of every element's 28 points (`POINT_LOCAL`), a pair
    of read-only (ny, nx, 28) views: x broadcast from an (nx, 28) table of
    i hx + POINT_LOCAL[:, 0] hx over the element rows, y from an (ny, 28)
    table of j hy + POINT_LOCAL[:, 1] hy over the element columns.  `x` and
    `y` are its quadrature columns and `seg_x` and `seg_y` its sub-segment
    midpoints, segment types in order.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.local_points = QUAD_LOCAL                          # (16, 2)
        self.owner_corner = np.repeat(np.arange(4), 4)          # CV owning each point
        self.weight = mesh.hx * mesh.hy / 16.0
        self.phi = basis_values(self.local_points[:, 0], self.local_points[:, 1])
        self.dphi = basis_gradients(self.local_points[:, 0], self.local_points[:, 1],
                                    mesh.hx, mesh.hy)

        # Basis tables at the four CV sub-segment midpoints.
        sm = SEG_LOCAL_MID
        self.seg_phi = basis_values(sm[:, 0], sm[:, 1])         # (4, 4)
        self.seg_dphi = basis_gradients(sm[:, 0], sm[:, 1], mesh.hx, mesh.hy)
        # Gradient component along the segment normal, (type, basis).
        self.seg_dphi_n = np.take_along_axis(
            self.seg_dphi, SEG_NORMAL_AXIS[:, None, None], axis=2)[:, :, 0]
        self.seg_len = np.where(SEG_NORMAL_AXIS == 0, mesh.hy / 2.0, mesh.hx / 2.0)
        # (segment, 16): the flux block (a, b) of a unit coefficient on the
        # segment, -sign(a, s) |s| grad(phi_b) . n, flattened.
        self.unit_flux_blocks = -((SEG_SIGN * self.seg_len).T[:, :, None]
                                  * self.seg_dphi_n[:, None, :]).reshape(4, 16)
        shape = (mesh.ny, mesh.nx, len(POINT_LOCAL))
        columns = (np.arange(mesh.nx) * mesh.hx)[:, None] + POINT_LOCAL[:, 0] * mesh.hx
        rows = (np.arange(mesh.ny) * mesh.hy)[:, None] + POINT_LOCAL[:, 1] * mesh.hy
        columns.flags.writeable = rows.flags.writeable = False
        px = np.broadcast_to(columns, shape)
        py = np.broadcast_to(rows[:, None], shape)
        self.points = px, py
        self.x, self.y = px[..., :16], py[..., :16]
        self.seg_x, self.seg_y = px[..., 24:], py[..., 24:]


def quadrature(mesh):
    """Quadrature tables and points of a mesh, built once per mesh."""
    return mesh.constant("quadrature", Quadrature)


def _build_kernel_blocks(mesh):
    x, y = quadrature(mesh).points
    rows = max(1, KERNEL_BLOCK // mesh.nx)
    return [(lo * mesh.nx, min(lo + rows, mesh.ny) * mesh.nx,
             x[lo:lo + rows], y[lo:lo + rows])
            for lo in range(0, mesh.ny, rows)]


def kernel_point_blocks(mesh):
    """The mesh's point set in blocks of max(1, `KERNEL_BLOCK` // nx)
    element rows.

    Returns a list of (lo, hi, x, y): the block's elements lo:hi and x and
    y, read-only (rows, nx, 28) blocks of `quadrature(mesh).points`, built
    once per mesh.  kappa is evaluated at column slices of these arrays on
    every solve, and every blocked pass over the element data, the stencil's
    `sum_blocks` among them, takes its element ranges from it.
    """
    return mesh.constant("kernel_point_blocks", _build_kernel_blocks)


def cell_sum(block, n):
    """The (n+1, n+1) CSR sum of a 2 x 2 block over n cells in a row."""
    k = np.arange(n)[:, None]
    a, b = np.divmod(np.arange(4), 2)
    return sparse.csr_matrix((np.tile(block.ravel(), n), (
        (k + a).ravel(), (k + b).ravel())), shape=(n + 1, n + 1))


def _build_mass_factors(mesh):
    """((d_y, o_y), (d_x, o_x)): the diagonal d and off-diagonal entry o of
    each tridiagonal factor of the consistent mass matrix m_y (x) m_x, by
    the rule's 1-D factor, which is exact for them; kept on the mesh."""
    factors = []
    for n, h in ((mesh.ny, mesh.hy), (mesh.nx, mesh.hx)):
        m = cell_sum(0.25 * h * (CELL_HATS @ CELL_HATS.T), n)
        factors.append((m.diagonal(), m[0, 1]))
    return tuple(factors)


def cv_flux_blocks(mesh, coeff):
    """Element-local control-volume flux blocks, shape (ne, 4, 4).

    Entry (e, a, b) is the flux -coeff grad(phi_b) . n out of the control
    volume of corner a through the sub-segments inside element e, by the
    midpoint rule; `coeff` (ne, 4) holds the coefficient at the four
    sub-segment midpoints.  One contraction with the blocks of a unit
    coefficient, by `np.einsum`, which calls no threaded BLAS.
    """
    return np.einsum("es,sk->ek", coeff,
                     quadrature(mesh).unit_flux_blocks).reshape(-1, 4, 4)


class NodalField:
    """Continuous piecewise-bilinear field, one value per mesh vertex."""

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.n_vertices,):
            raise ValueError(f"expected {mesh.n_vertices} nodal values, got {values.shape}")
        self.mesh = mesh
        self.values = values

    @classmethod
    def from_callable(cls, mesh, fn):
        return cls(mesh, fn(mesh.vertices[:, 0], mesh.vertices[:, 1]) * np.ones(mesh.n_vertices))

    @classmethod
    def zeros(cls, mesh):
        return cls(mesh, np.zeros(mesh.n_vertices))

    def corner_values(self, lo=0, hi=None):
        """Values at the corners of elements lo:hi, whole element rows (all
        by default), shape (hi - lo, 4): four shifted slices of the
        (ny + 1, nx + 1) value grid copied into place, no gather."""
        nx = self.mesh.nx
        rows = self.values.reshape(-1, nx + 1)[
            lo // nx:(self.mesh.n_elements if hi is None else hi) // nx + 1]
        out = np.empty((rows.shape[0] - 1, nx, 4))
        out[..., 0] = rows[:-1, :-1]
        out[..., 1] = rows[:-1, 1:]
        out[..., 2] = rows[1:, :-1]
        out[..., 3] = rows[1:, 1:]
        return out.reshape(-1, 4)

    def copy(self):
        return NodalField(self.mesh, self.values.copy())


class DGField:
    """Discontinuous piecewise-bilinear field, four corner values per element."""

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.n_elements, 4):
            raise ValueError(f"expected shape ({mesh.n_elements}, 4), got {values.shape}")
        self.mesh = mesh
        self.values = values


# -- L2 norms: by the mass factors for nodal fields, else by quadrature -----

class QuadratureField:
    """A function known by its values at the quadrature points, (ne, 16),
    element by element.

    `sample` evaluates a callable there once, so several integrals of the
    same function (a norm and a difference, say) share one evaluation.
    """

    def __init__(self, mesh, values):
        self.mesh = mesh
        self.values = values

    @classmethod
    def sample(cls, mesh, fn):
        return cls(mesh, _values_at_quadrature(mesh, fn))


def _values_at_quadrature(mesh, source):
    """Values of a field, QuadratureField or callable f(x, y) at the
    quadrature points, (ne, 16)."""
    quad = quadrature(mesh)
    if isinstance(source, NodalField):
        return source.corner_values() @ quad.phi.T
    if isinstance(source, DGField):
        return source.values @ quad.phi.T
    if isinstance(source, QuadratureField):
        return source.values
    x, y = quad.x, quad.y
    return np.broadcast_to(np.asarray(source(x, y), dtype=float),
                           x.shape).reshape(-1, 16)


def _mass_norm(mesh, u):
    """sqrt(u^T M u) = sqrt(sum_j d_y[j] (U_j, U_j) + 2 o_y (U_j, U_j+1)),
    U_j row j of the nodal values and (a, b) = a^T m_x b; each sum over a
    row is one `np.einsum`, no BLAS, over shifted slices of U and U d_x."""
    (dy, oy), (dx, ox) = mesh.constant("mass_factors", _build_mass_factors)
    U = u.reshape(mesh.ny + 1, mesh.nx + 1)
    P = U * dx
    rows = np.einsum("ij,ij->i", U, P)
    rows += 2.0 * ox * np.einsum("ij,ij->i", U[:, :-1], U[:, 1:])
    across = (np.einsum("ij,ij->", U[:-1], P[1:])
              + ox * (np.einsum("ij,ij->", U[:-1, :-1], U[1:, 1:])
                      + np.einsum("ij,ij->", U[:-1, 1:], U[1:, :-1])))
    return float(np.sqrt(np.dot(dy, rows) + 2.0 * oy * across))


def _quadrature_norm(mesh, v):
    """L2 norm of the values v (ne, 16) at the quadrature points.

    Each element's sum of squares is one `np.einsum` reduction, which makes
    no squared copy of v and calls no BLAS, and the element sums are added
    pairwise.  OpenBLAS's dot product wakes a thread above 10,000 entries:
    over the 57,600 points of example1 at nx = 60 it took from 40 us to 8 ms
    a call, by process, against 60 us for this.
    """
    return float(np.sqrt(np.einsum("ij,ij->i", v, v).sum()
                         * quadrature(mesh).weight))


def l2_norm(field):
    if isinstance(field, NodalField):
        return _mass_norm(field.mesh, field.values)
    return _quadrature_norm(field.mesh, _values_at_quadrature(field.mesh, field))


def l2_diff(field, other):
    """L2 norm of (field - other); other is a field, a QuadratureField or a
    callable f(x, y).  Two nodal fields are compared by the mass factors."""
    mesh = field.mesh
    if isinstance(field, NodalField) and isinstance(other, NodalField):
        return _mass_norm(mesh, field.values - other.values)
    return _quadrature_norm(mesh, _values_at_quadrature(mesh, field)
                            - _values_at_quadrature(mesh, other))


def l2_norm_callable(mesh, fn):
    return _quadrature_norm(mesh, _values_at_quadrature(mesh, fn))
