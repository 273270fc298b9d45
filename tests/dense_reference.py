"""Dense brute-force reference assemblies used as oracles by the tests.

Everything here is written with explicit Python loops over elements,
quadrature points, edges, and dual-mesh segments, deliberately avoiding the
vectorized code paths of the package.  Shared layout conventions (vertex and
element numbering, quadrature point set, segment ordering) are the interface
contract and are re-derived here from first principles; the assembly logic
itself is independent.

The dense assembly routines return dense numpy arrays.  The last three
sections hold what only the tests use: record views of the dual mesh and of
fields (the quadrature points as one array, the dense (ne, 28) point
pair, control-volume areas, point evaluation, the raw FEM flux residuals),
the bump as first written and the exact integral of a bump well; the forms
the package replaced, kept as references: among them the whole index
tables the mesh and stencil no longer keep (element corners, stencil
slots, every row's diagonal slot, the free vertices), the stencil pattern
built from whole-mesh tables, the multigrid transfers as CSR matrices and
their Galerkin products, the raster's
bilinear formula per point, the bordered 5x5 LAPACK solve of the flux recovery's local systems, the same
systems solved exactly in rationals, and the assembled cell-average
functionals; and checks on the scenarios and fields: the domain integral by
the package's rule and a numerical forcing builder.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.integrate

# Corner order on the unit square: SW, SE, NW, NE.
_CORNER_XI = (0.0, 1.0, 0.0, 1.0)
_CORNER_ETA = (0.0, 0.0, 1.0, 1.0)

_GA = 0.5 - 0.5 / np.sqrt(3.0)
_GB = 0.5 + 0.5 / np.sqrt(3.0)


def hat(c, xi, eta):
    """Value of the bilinear corner basis c at local (xi, eta)."""
    fx = xi if _CORNER_XI[c] == 1.0 else 1.0 - xi
    fy = eta if _CORNER_ETA[c] == 1.0 else 1.0 - eta
    return fx * fy


def hat_grad(c, xi, eta, hx, hy):
    """Physical gradient of the corner basis c at local (xi, eta)."""
    sx = 1.0 if _CORNER_XI[c] == 1.0 else -1.0
    sy = 1.0 if _CORNER_ETA[c] == 1.0 else -1.0
    fx = xi if _CORNER_XI[c] == 1.0 else 1.0 - xi
    fy = eta if _CORNER_ETA[c] == 1.0 else 1.0 - eta
    return sx * fy / hx, sy * fx / hy


def quad_points():
    """The 16 local quadrature points: (xi, eta, owner quadrant).

    Two-by-two Gauss points on each quadrant of the element, quadrants in
    corner order, so the owner quadrant of point k is k // 4 and each point
    carries the uniform weight hx*hy/16.
    """
    pts = []
    for quadrant in range(4):
        qx, qy = _CORNER_XI[quadrant], _CORNER_ETA[quadrant]
        for gy in (_GA, _GB):
            for gx in (_GA, _GB):
                pts.append(((qx + gx) / 2.0, (qy + gy) / 2.0, quadrant))
    return pts


def element_vertices(mesh, e):
    """Global vertex ids of element e, corner order."""
    i, j = e % mesh.nx, e // mesh.nx
    sw = j * (mesh.nx + 1) + i
    return [sw, sw + 1, sw + mesh.nx + 1, sw + mesh.nx + 2]


def element_table(mesh):
    """The corner vertex ids (ne, 4) of every element, built as the mesh
    kept them as a whole table: the element lattice tiled and repeated."""
    nx, ny = mesh.nx, mesh.ny
    ei = np.tile(np.arange(nx), ny)
    ej = np.repeat(np.arange(ny), nx)
    sw = ej * (nx + 1) + ei
    return np.column_stack([sw, sw + 1, sw + nx + 1, sw + nx + 2])


def free_vertices(mesh):
    """The vertices not on a Dirichlet edge, in increasing order."""
    return np.flatnonzero(~mesh.is_dirichlet)


def _stencil_positions(mesh):
    """(nv, 9) int32: the CSR position of each vertex's neighbour at each
    lattice offset (row below, same row, row above, each left to right),
    as the stencil built it before it kept three element rows."""
    nvx, nvy = mesh.nx + 1, mesh.ny + 1
    i = np.tile(np.arange(nvx), nvy)
    j = np.repeat(np.arange(nvy), nvx)
    ii = i[:, None] + np.tile([-1, 0, 1], 3)
    jj = j[:, None] + np.repeat([-1, 0, 1], 3)
    present = (ii >= 0) & (ii < nvx) & (jj >= 0) & (jj < nvy)
    indptr = np.zeros(nvx * nvy + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    return indptr[:-1, None] + np.cumsum(present, axis=1, dtype=np.int32) - 1


def stencil_slots(mesh):
    """The whole (16 ne,) int32 slot table of the stencil, entry (e, a, b)
    at 16 e + 4 a + b: the neighbour of corner a at lattice offset b - a."""
    cx = np.array([0, 1, 0, 1])
    cy = np.array([0, 0, 1, 1])
    offset = (cy - cy[:, None] + 1) * 3 + (cx - cx[:, None] + 1)
    return _stencil_positions(mesh)[element_table(mesh)[:, :, None],
                                    offset].ravel()


def diagonal_slots(mesh):
    """The (nv,) int32 slot of every row's diagonal entry."""
    return _stencil_positions(mesh)[:, 4].copy()


def stencil_pattern_by_tables(mesh):
    """The stencil's arrays as `linalg.StencilPattern` built them from
    (nv, 9) tables of neighbours: indptr, indices, dirichlet_diagonal,
    dirichlet_entries and dirichlet_columns (int32), the three element rows
    of slots `tables` (intp) and their `stride`."""
    from types import SimpleNamespace

    nvx, nvy = mesh.nx + 1, mesh.ny + 1
    n = nvx * nvy
    i = np.tile(np.arange(nvx), nvy)
    j = np.repeat(np.arange(nvy), nvx)
    ii = i[:, None] + np.tile([-1, 0, 1], 3)
    jj = j[:, None] + np.repeat([-1, 0, 1], 3)
    present = (ii >= 0) & (ii < nvx) & (jj >= 0) & (jj < nvy)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    indices = (jj * nvx + ii)[present].astype(np.int32)
    position = indptr[:-1, None] + np.cumsum(present, axis=1, dtype=np.int32)
    position -= 1
    cx = np.array([0, 1, 0, 1])
    cy = np.array([0, 0, 1, 1])
    offset = (cy - cy[:, None] + 1) * 3 + (cx - cx[:, None] + 1)
    kept = [0, min(1, mesh.ny - 1), mesh.ny - 1]
    corners = [mesh.element_corners(r * mesh.nx, (r + 1) * mesh.nx)
               for r in kept]
    tables = position[np.stack(corners)[..., None], offset]
    return SimpleNamespace(
        indptr=indptr, indices=indices,
        dirichlet_diagonal=position[mesh.dirichlet_vertices, 4],
        tables=tables.reshape(3, -1).astype(np.intp),
        stride=int(indptr[2 * nvx] - indptr[nvx]) if mesh.ny > 1 else 0,
        dirichlet_entries=np.flatnonzero(np.repeat(
            mesh.is_dirichlet, np.diff(indptr))).astype(np.int32),
        dirichlet_columns=np.flatnonzero(
            mesh.is_dirichlet[indices]).astype(np.int32))


def bilinear_prolongation(nx, ny, kx, ky):
    """Bilinear interpolation to a lattice of nx-by-ny cells from the one
    of every kx-th vertical and ky-th horizontal line, as CSR
    ((nx+1)(ny+1), (nx/kx+1)(ny/ky+1)): the Kronecker product of the 1-D
    interpolations `observation._linear_interpolation` in y and in x, both
    lattices numbered row by row, so row v holds the four corners of one
    coarse cell in column order, explicit zeros included."""
    from scipy import sparse

    from porousda.observation import _linear_interpolation

    return sparse.kron(_linear_interpolation(ny, ky),
                       _linear_interpolation(nx, kx), format="csr")


def multigrid_transfers(mesh):
    """The pressure multigrid's 2:1 bilinear prolongations as CSR pairs
    (P, P^T), finest first, as the package built them: the whole-lattice
    prolongation without the entries of fixed rows and columns but for the
    injection of each fixed coarse vertex into the fixed fine vertex on
    it.  On a mesh without a Dirichlet vertex a last pair drops the first
    coarsest vertex (the pin)."""
    from scipy import sparse

    from porousda.pressure import MIN_COARSE_CELLS

    nx, ny = mesh.nx, mesh.ny
    fixed = mesh.is_dirichlet
    transfers = []
    while nx % 2 == 0 and ny % 2 == 0 and min(nx, ny) // 2 >= MIN_COARSE_CELLS:
        coarse_fixed = fixed.reshape(ny + 1, nx + 1)[::2, ::2].ravel()
        P = bilinear_prolongation(nx, ny, 2, 2)
        row = np.repeat(np.arange(P.shape[0]), np.diff(P.indptr))
        P.data *= np.where(fixed[row], P.data == 1.0, ~coarse_fixed[P.indices])
        P.eliminate_zeros()
        transfers.append((P, P.T.tocsr()))
        fixed, nx, ny = coarse_fixed, nx // 2, ny // 2
    if not mesh.is_dirichlet.any():
        n = fixed.size
        pin = sparse.eye(n, n - 1, k=-1, format="csr")
        transfers.append((pin, pin.T.tocsr()))
    return transfers


def galerkin_product(R, A, P, block=4096):
    """R @ A @ P as CSR, formed `block` rows of R at a time and stacked, as
    the package formed its coarse levels before they were summed in
    stencil form."""
    from scipy import sparse

    n = R.shape[0]
    if n <= block:
        return R @ A @ P
    products = []
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        start, stop = R.indptr[lo], R.indptr[hi]
        rows = sparse.csr_matrix((R.data[start:stop], R.indices[start:stop],
                                  R.indptr[lo:hi + 1] - start),
                                 shape=(hi - lo, R.shape[1]))
        products.append(rows @ A @ P)
    return sparse.vstack(products, format="csr")


def element_origin(mesh, e):
    """The lower-left corner of element e, or of each element of an array."""
    i, j = e % mesh.nx, e // mesh.nx
    return i * mesh.hx, j * mesh.hy


# Dual-mesh sub-segments inside one element, in the package's segment order:
# vertical lower, vertical upper, horizontal left, horizontal right.  Each
# entry: local midpoint, normal axis (0 = +x, 1 = +y), and the local corners
# on the negative ("left") and positive ("right") side of the normal.
_SEGMENTS = (
    ((0.5, 0.25), 0, 0, 1),
    ((0.5, 0.75), 0, 2, 3),
    ((0.25, 0.5), 1, 0, 2),
    ((0.75, 0.5), 1, 1, 3),
)


def segment_tables(mesh):
    """(midpoint, axis, left vertex, right vertex, length) per segment."""
    out = []
    for e in range(mesh.n_elements):
        ox, oy = element_origin(mesh, e)
        verts = element_vertices(mesh, e)
        for (mx, my), axis, lc, rc in _SEGMENTS:
            length = mesh.hy / 2.0 if axis == 0 else mesh.hx / 2.0
            out.append(((ox + mx * mesh.hx, oy + my * mesh.hy), axis,
                        verts[lc], verts[rc], length))
    return out


@dataclass
class SegmentArrays:
    """The dual-mesh segments as flat arrays, in the package's segment order:
    element by element, the four types of `_SEGMENTS` in each."""

    elem: np.ndarray
    type: np.ndarray
    mid: np.ndarray      # (ns, 2)
    axis: np.ndarray     # normal axis, 0 = +x, 1 = +y
    left: np.ndarray     # vertex on the negative side of the normal
    right: np.ndarray    # vertex on the positive side
    length: np.ndarray


def segment_arrays(mesh):
    """`segment_tables` as flat arrays (`SegmentArrays`)."""
    mid, axis, left, right, length = (
        np.array(column) for column in zip(*segment_tables(mesh)))
    index = np.arange(axis.size)
    return SegmentArrays(index // 4, index % 4, mid, axis, left, right, length)


def _kappa_clamped(kappa, theta_corners, xi, eta, x, y):
    th = sum(theta_corners[c] * hat(c, xi, eta) for c in range(4))
    th = min(max(th, 0.0), 1.0)
    return float(kappa(th, x, y))


def dense_pressure_system(mesh, kappa, source, dirichlet, theta_values):
    """Galerkin system for -div(kappa(theta) grad p) = g, loop-assembled.

    Returns (A_ff, rhs_f, A_full, b_full) with the free-block system carrying
    the Dirichlet lifting, mirroring the package contract.
    """
    nv = mesh.n_vertices
    A = np.zeros((nv, nv))
    b = np.zeros(nv)
    pts = quad_points()
    w = mesh.hx * mesh.hy / 16.0

    for e in range(mesh.n_elements):
        verts = element_vertices(mesh, e)
        ox, oy = element_origin(mesh, e)
        th_c = [theta_values[v] for v in verts]
        for xi, eta, _ in pts:
            x, y = ox + xi * mesh.hx, oy + eta * mesh.hy
            k = _kappa_clamped(kappa, th_c, xi, eta, x, y)
            grads = [hat_grad(c, xi, eta, mesh.hx, mesh.hy) for c in range(4)]
            for a in range(4):
                for c in range(4):
                    A[verts[a], verts[c]] += w * k * (
                        grads[a][0] * grads[c][0] + grads[a][1] * grads[c][1])
                b[verts[a]] += w * float(source(x, y)) * hat(a, xi, eta)

    free = [v for v in range(nv) if not mesh.is_dirichlet[v]]
    fixed = [v for v in range(nv) if mesh.is_dirichlet[v]]
    A_ff = A[np.ix_(free, free)]
    rhs = b[np.asarray(free)].copy()
    for row, v in enumerate(free):
        for u in fixed:
            x, y = mesh.vertices[u]
            pd = float(dirichlet(x, y)) if callable(dirichlet) else float(dirichlet)
            rhs[row] -= A[v, u] * pd
    return A_ff, rhs, A, b


def homogeneous_system(mesh, a_free, rhs_free):
    """The dense full-lattice system that `pressure.assemble_pressure`
    returns for the free-vertex system (a_free, rhs_free): the free block in
    the free rows and columns, unit Dirichlet rows, zero Dirichlet columns
    and a zero rhs in the Dirichlet rows."""
    free = ~mesh.is_dirichlet
    A = np.diag(mesh.is_dirichlet.astype(float))
    A[np.ix_(free, free)] = a_free
    b = np.zeros(mesh.n_vertices)
    b[free] = rhs_free
    return A, b


def dense_pressure_solve(mesh, kappa, source, dirichlet, theta_values):
    """Nodal pressure values via numpy.linalg.solve on the free block."""
    A_ff, rhs, _, _ = dense_pressure_system(mesh, kappa, source, dirichlet,
                                            theta_values)
    values = np.zeros(mesh.n_vertices)
    free = [v for v in range(mesh.n_vertices) if not mesh.is_dirichlet[v]]
    values[free] = np.linalg.solve(A_ff, rhs)
    for v in range(mesh.n_vertices):
        if mesh.is_dirichlet[v]:
            x, y = mesh.vertices[v]
            values[v] = float(dirichlet(x, y)) if callable(dirichlet) else float(dirichlet)
    return values


# Element edges: (name, outward normal, two quarter points in local coords,
# neighbor offset in element-index space or None at the boundary).
def _element_edges(mesh, e):
    i, j = e % mesh.nx, e // mesh.nx
    return (
        ("bottom", (0.0, -1.0), ((0.25, 0.0), (0.75, 0.0)),
         e - mesh.nx if j > 0 else None, mesh.edge_tags["bottom"][i] if j == 0 else None,
         mesh.hx),
        ("top", (0.0, 1.0), ((0.25, 1.0), (0.75, 1.0)),
         e + mesh.nx if j < mesh.ny - 1 else None,
         mesh.edge_tags["top"][i] if j == mesh.ny - 1 else None, mesh.hx),
        ("left", (-1.0, 0.0), ((0.0, 0.25), (0.0, 0.75)),
         e - 1 if i > 0 else None, mesh.edge_tags["left"][j] if i == 0 else None,
         mesh.hy),
        ("right", (1.0, 0.0), ((1.0, 0.25), (1.0, 0.75)),
         e + 1 if i < mesh.nx - 1 else None,
         mesh.edge_tags["right"][j] if i == mesh.nx - 1 else None, mesh.hy),
    )


def _one_sided_flux(mesh, kappa, p_values, theta_values, elem, x, y, normal):
    """kappa(theta) grad(p) . n evaluated from inside the given element."""
    verts = element_vertices(mesh, elem)
    ox, oy = element_origin(mesh, elem)
    xi, eta = (x - ox) / mesh.hx, (y - oy) / mesh.hy
    th_c = [theta_values[v] for v in verts]
    k = _kappa_clamped(kappa, th_c, xi, eta, x, y)
    gx = gy = 0.0
    for c in range(4):
        dx, dy = hat_grad(c, xi, eta, mesh.hx, mesh.hy)
        gx += p_values[verts[c]] * dx
        gy += p_values[verts[c]] * dy
    return k * (gx * normal[0] + gy * normal[1])


def dense_flux_systems(mesh, kappa, source, p_values, theta_values):
    """Local flux systems and their solutions, element by element.

    Returns (A_locs, rhs, psi): the 4x4 matrices of the control-volume flux
    form, the right-hand sides built from averaged edge fluxes of the
    pressure plus source and stiffness terms, and the local potentials
    singled out by matching their mean to the mean of the pressure corners.
    """
    ne = mesh.n_elements
    A_locs = np.zeros((ne, 4, 4))
    rhs = np.zeros((ne, 4))
    psi = np.zeros((ne, 4))
    pts = quad_points()
    w = mesh.hx * mesh.hy / 16.0

    # Which sub-segments border each corner's quadrant, with the outward sign
    # of the +axis normal as seen from that quadrant.
    adjacency = {
        0: ((0, +1.0), (2, +1.0)),
        1: ((0, -1.0), (3, +1.0)),
        2: ((1, +1.0), (2, -1.0)),
        3: ((1, -1.0), (3, -1.0)),
    }

    for e in range(ne):
        verts = element_vertices(mesh, e)
        ox, oy = element_origin(mesh, e)
        th_c = [theta_values[v] for v in verts]
        p_c = [p_values[v] for v in verts]

        # Flux matrix: minus the outflux of each trial basis over the part of
        # each corner's control-volume boundary inside this element.
        for test in range(4):
            for seg_idx, sign in adjacency[test]:
                (mx, my), axis, _, _ = _SEGMENTS[seg_idx]
                x, y = ox + mx * mesh.hx, oy + my * mesh.hy
                length = mesh.hy / 2.0 if axis == 0 else mesh.hx / 2.0
                k = _kappa_clamped(kappa, th_c, mx, my, x, y)
                for trial in range(4):
                    dn = hat_grad(trial, mx, my, mesh.hx, mesh.hy)[axis]
                    A_locs[e, test, trial] -= sign * length * k * dn

        # Edge term: averaged pressure flux against (piecewise-constant
        # interpolant minus basis) over the element boundary, one midpoint
        # per half edge.
        for _, normal, qps, neighbor, tag, edge_len in _element_edges(mesh, e):
            for xi, eta in qps:
                x, y = ox + xi * mesh.hx, oy + eta * mesh.hy
                own = _one_sided_flux(mesh, kappa, p_values, theta_values,
                                      e, x, y, normal)
                if neighbor is not None:
                    other = _one_sided_flux(mesh, kappa, p_values,
                                            theta_values, neighbor, x, y,
                                            normal)
                    avg = 0.5 * (own + other)
                elif tag == "neumann":
                    avg = 0.0
                else:
                    avg = own
                quadrant = (1 if xi > 0.5 else 0) + (2 if eta > 0.5 else 0)
                for test in range(4):
                    indicator = 1.0 if quadrant == test else 0.0
                    rhs[e, test] += (edge_len / 2.0) * avg * (
                        indicator - hat(test, xi, eta))

        # Area terms: source against the same difference, plus the stiffness
        # action of the pressure.
        for xi, eta, quadrant in pts:
            x, y = ox + xi * mesh.hx, oy + eta * mesh.hy
            g = float(source(x, y))
            k = _kappa_clamped(kappa, th_c, xi, eta, x, y)
            gpx = gpy = 0.0
            for c in range(4):
                dx, dy = hat_grad(c, xi, eta, mesh.hx, mesh.hy)
                gpx += p_c[c] * dx
                gpy += p_c[c] * dy
            for test in range(4):
                indicator = 1.0 if quadrant == test else 0.0
                tx, ty = hat_grad(test, xi, eta, mesh.hx, mesh.hy)
                rhs[e, test] += w * g * (indicator - hat(test, xi, eta))
                rhs[e, test] += w * k * (gpx * tx + gpy * ty)

        # Singular consistent system: take any solution, then shift the
        # constant so the corner mean matches the pressure's corner mean.
        sol, *_ = np.linalg.lstsq(A_locs[e], rhs[e], rcond=None)
        sol += (sum(p_c) - sol.sum()) / 4.0
        psi[e] = sol

    return A_locs, rhs, psi


def dense_segment_outflux(mesh, kappa, psi, theta_values):
    """Outflux -kappa dpsi/dn * length across every dual-mesh sub-segment."""
    out = np.zeros(4 * mesh.n_elements)
    s = 0
    for e in range(mesh.n_elements):
        verts = element_vertices(mesh, e)
        ox, oy = element_origin(mesh, e)
        th_c = [theta_values[v] for v in verts]
        for (mx, my), axis, _, _ in _SEGMENTS:
            x, y = ox + mx * mesh.hx, oy + my * mesh.hy
            length = mesh.hy / 2.0 if axis == 0 else mesh.hx / 2.0
            k = _kappa_clamped(kappa, th_c, mx, my, x, y)
            dpsi = sum(psi[e][c] * hat_grad(c, mx, my, mesh.hx, mesh.hy)[axis]
                       for c in range(4))
            out[s] = -k * dpsi * length
            s += 1
    return out


def lattice_vertices(grid):
    """Coordinates of the lattice points of `grid`, (n_obs, 2), row by row:
    every kx-th vertex of every ky-th row of the mesh."""
    mesh = grid.mesh
    rows = mesh.vertices.reshape(mesh.ny + 1, mesh.nx + 1, 2)
    return rows[::grid.ky, ::grid.kx].reshape(-1, 2)


def coarse_basis(i, x, y, spacing, ncx):
    """Tensor hat function of coarse lattice point i at (x, y)."""
    ii, jj = i % (ncx + 1), i // (ncx + 1)
    sx = max(0.0, 1.0 - abs(x / spacing - ii))
    sy = max(0.0, 1.0 - abs(y / spacing - jj))
    return sx * sy


def nudge_by_assembly(mesh, grid):
    """CV integrals of the coarse bilinear basis over the free control
    volumes, (nv, n_obs): one (row, col, weight) entry per quadrature point
    and corner of its coarse cell, summed by `linalg.assemble`."""
    from porousda import linalg

    H, ncx, ncy = grid.spacing, mesh.nx // grid.kx, mesh.ny // grid.ky
    weight = mesh.hx * mesh.hy / 16.0
    rows, cols, vals = [], [], []
    for e in range(mesh.n_elements):
        ox, oy = element_origin(mesh, e)
        verts = element_vertices(mesh, e)
        for xi, eta, quadrant in quad_points():
            v = verts[quadrant]
            if mesh.is_dirichlet[v]:
                continue
            x, y = ox + xi * mesh.hx, oy + eta * mesh.hy
            sw = min(int(y // H), ncy - 1) * (ncx + 1) + min(int(x // H), ncx - 1)
            for i in (sw, sw + 1, sw + ncx + 1, sw + ncx + 2):
                rows.append(v)
                cols.append(i)
                vals.append(weight * coarse_basis(i, x, y, H, ncx))
    return linalg.assemble(np.array(rows), np.array(cols), np.array(vals),
                           (mesh.n_vertices, grid.n_obs))


def dense_transport_system(mesh, theta_old, dt, t0, t1, diffusion,
                           reaction=None, source=None, mu=0.0, spacing=None,
                           outflux=None, data0=None, data1=None,
                           dirichlet=None):
    """Full matrix and right-hand side of one trapezoidal transport step.

    Rows are control-volume equations; Dirichlet rows are replaced by the
    identity with the boundary value at the end time on the right-hand side.
    Observation functionals are point values on the coarse lattice.
    """
    nv = mesh.n_vertices
    M = np.zeros((nv, nv))
    K = np.zeros((nv, nv))
    F0 = np.zeros(nv)
    F1 = np.zeros(nv)
    D_vec = np.zeros(nv)
    pts = quad_points()
    w = mesh.hx * mesh.hy / 16.0

    for e in range(mesh.n_elements):
        verts = element_vertices(mesh, e)
        ox, oy = element_origin(mesh, e)
        for xi, eta, quadrant in pts:
            x, y = ox + xi * mesh.hx, oy + eta * mesh.hy
            row = verts[quadrant]
            for c in range(4):
                M[row, verts[c]] += w * hat(c, xi, eta)
                if reaction is not None:
                    K[row, verts[c]] += w * float(reaction(x, y)) * hat(c, xi, eta)
            if source is not None:
                F0[row] += w * float(source(x, y, t0))
                F1[row] += w * float(source(x, y, t1))

    segments = segment_tables(mesh)
    for s, ((x, y), axis, left, right, length) in enumerate(segments):
        e = s // 4
        verts = element_vertices(mesh, e)
        ox, oy = element_origin(mesh, e)
        xi, eta = (x - ox) / mesh.hx, (y - oy) / mesh.hy
        d = float(diffusion(x, y))
        for c in range(4):
            dn = hat_grad(c, xi, eta, mesh.hx, mesh.hy)[axis]
            K[left, verts[c]] -= d * dn * length
            K[right, verts[c]] += d * dn * length
        if outflux is not None and outflux[s] != 0.0:
            up = left if outflux[s] > 0.0 else right
            K[left, up] += outflux[s]
            K[right, up] -= outflux[s]

    if mu > 0.0:
        ncx = int(round(mesh.Lx / spacing))
        ncy = int(round(mesh.Ly / spacing))
        n_obs = (ncx + 1) * (ncy + 1)
        N = np.zeros((nv, n_obs))
        for e in range(mesh.n_elements):
            verts = element_vertices(mesh, e)
            ox, oy = element_origin(mesh, e)
            for xi, eta, quadrant in pts:
                x, y = ox + xi * mesh.hx, oy + eta * mesh.hy
                row = verts[quadrant]
                for i in range(n_obs):
                    N[row, i] += w * coarse_basis(i, x, y, spacing, ncx)
        Gamma = np.zeros((n_obs, nv))
        kx = int(round(spacing / mesh.hx))
        ky = int(round(spacing / mesh.hy))
        for i in range(n_obs):
            ii, jj = i % (ncx + 1), i // (ncx + 1)
            Gamma[i, (jj * ky) * (mesh.nx + 1) + ii * kx] = 1.0
        K = K + mu * (N @ Gamma)
        D_vec = 0.5 * dt * mu * (N @ (np.asarray(data0) + np.asarray(data1)))

    A = M + 0.5 * dt * K
    rhs = M @ theta_old - 0.5 * dt * (K @ theta_old) \
        + 0.5 * dt * (F0 + F1) + D_vec

    for v in range(nv):
        if mesh.is_dirichlet[v]:
            A[v, :] = 0.0
            A[v, v] = 1.0
            if dirichlet is None:
                rhs[v] = 0.0
            else:
                x, y = mesh.vertices[v]
                rhs[v] = float(dirichlet(x, y, t1))
    return A, rhs


def dense_coarse_step(mesh, kappa, pressure_source, pressure_dirichlet,
                      diffusion, theta_old, dt, t0, t1, mu, spacing,
                      data0, data1, reaction=None, source=None,
                      dirichlet=None):
    """One full coarse interval with a single fine step, all dense.

    Solves the pressure at the frozen concentration, recovers the local
    potentials and their outflux, then performs one transport step with
    numpy.linalg.solve.  Returns a dict of every intermediate product.
    """
    p = dense_pressure_solve(mesh, kappa, pressure_source,
                             pressure_dirichlet, theta_old)
    A_locs, flux_rhs, psi = dense_flux_systems(mesh, kappa, pressure_source,
                                               p, theta_old)
    outflux = dense_segment_outflux(mesh, kappa, psi, theta_old)
    A, rhs = dense_transport_system(mesh, theta_old, dt, t0, t1, diffusion,
                                    reaction=reaction, source=source, mu=mu,
                                    spacing=spacing, outflux=outflux,
                                    data0=data0, data1=data1,
                                    dirichlet=dirichlet)
    theta_new = np.linalg.solve(A, rhs)
    return {"pressure": p, "flux_matrices": A_locs, "flux_rhs": flux_rhs,
            "psi": psi, "outflux": outflux, "transport_matrix": A,
            "transport_rhs": rhs, "theta_new": theta_new}


# -- test-only views of package data ------------------------------------------
#
# Record-per-object views of the dual mesh and of postprocessed fields that
# only the tests use.  They read the package's arrays and add no assembly.

@dataclass
class CVFace:
    """A flat piece of a control-volume boundary."""

    midpoint: np.ndarray
    normal: np.ndarray
    length: float
    neighbor: int        # vertex id of the CV across the face, -1 on the boundary
    tag: str | None      # boundary tag when neighbor == -1


@dataclass
class ControlVolume:
    vertex: int
    center: np.ndarray
    bounds: tuple        # (xlo, xhi, ylo, yhi)
    area: float
    faces: list = field(default_factory=list)


def global_points(quad):
    """A mesh's quadrature points as one (ne, 16, 2) array, a fresh copy."""
    return np.stack([quad.x, quad.y], axis=-1).reshape(-1, 16, 2)


def dense_points(mesh):
    """The mesh's point set as the dense (ne, 28) pair of element origin plus
    local coordinate times h, `fields.POINT_LOCAL` in each row: the layout
    the package kept before its per-column and per-row tables."""
    from porousda.fields import POINT_LOCAL

    ox, oy = element_origin(mesh, np.arange(mesh.n_elements))
    return (ox[:, None] + POINT_LOCAL[:, 0] * mesh.hx,
            oy[:, None] + POINT_LOCAL[:, 1] * mesh.hy)


def bump_everywhere(x, y, cx, cy, radius, peak=1.0):
    """`scenarios.bump` as first written: the exponential evaluated at every
    point, its argument kept finite outside the radius by a floor at the
    smallest normal double, and the outside set to zero afterwards."""
    x = np.asarray(x, dtype=float)
    s = ((x - cx) ** 2 + (np.asarray(y, dtype=float) - cy) ** 2) / radius**2
    with np.errstate(divide="ignore", over="ignore"):
        val = np.exp(1.0 - 1.0 / np.maximum(1.0 - s, np.finfo(float).tiny))
    return peak * np.where(s < 1.0, val, 0.0)


def well_total(peak, radius):
    """Exact integral of a bump well (`scenarios.bump`), for audit against
    mesh quadrature."""
    unit, _ = scipy.integrate.quad(lambda s: math.exp(1.0 - 1.0 / (1.0 - s)), 0.0, 1.0)
    return peak * math.pi * radius**2 * unit


def cv_areas(mesh):
    """Areas of all control volumes (clipped at the boundary)."""
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    wx = np.minimum(x + mesh.hx / 2, mesh.Lx) - np.maximum(x - mesh.hx / 2, 0.0)
    wy = np.minimum(y + mesh.hy / 2, mesh.Ly) - np.maximum(y - mesh.hy / 2, 0.0)
    return wx * wy


def vertex_id(mesh, i, j):
    return j * (mesh.nx + 1) + i


def cv_bounds(mesh, vid):
    x, y = mesh.vertices[vid]
    return (max(x - mesh.hx / 2, 0.0), min(x + mesh.hx / 2, mesh.Lx),
            max(y - mesh.hy / 2, 0.0), min(y + mesh.hy / 2, mesh.Ly))


def control_volumes(mesh):
    """Materialize the dual mesh as a list of ControlVolume records.

    One record per vertex (Dirichlet vertices included).  Faces cover the
    full CV boundary: interior sub-segments carry the neighboring vertex id,
    boundary pieces carry the tag of the primal boundary edge they lie on.
    """
    nx, ny = mesh.nx, mesh.ny
    hx, hy = mesh.hx, mesh.hy
    areas = cv_areas(mesh)

    # Gather interior faces per vertex from the segment table.
    faces_of = [[] for _ in range(mesh.n_vertices)]
    axis_vecs = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    for mid, axis, left, right, ln in segment_tables(mesh):
        n = axis_vecs[axis]
        mid = np.array(mid)
        faces_of[left].append(CVFace(mid, n.copy(), ln, right, None))
        faces_of[right].append(CVFace(mid, -n, ln, left, None))

    def boundary_pieces(i, j, vid):
        """Pieces of the CV boundary lying on the domain boundary."""
        x, y = mesh.vertices[vid]
        pieces = []
        if j == 0 or j == ny:
            side = "bottom" if j == 0 else "top"
            ny_vec = np.array([0.0, -1.0]) if j == 0 else np.array([0.0, 1.0])
            if i > 0:
                pieces.append(CVFace(np.array([x - hx / 4, y]), ny_vec, hx / 2,
                                     -1, mesh.edge_tags[side][i - 1]))
            if i < nx:
                pieces.append(CVFace(np.array([x + hx / 4, y]), ny_vec, hx / 2,
                                     -1, mesh.edge_tags[side][i]))
        if i == 0 or i == nx:
            side = "left" if i == 0 else "right"
            nx_vec = np.array([-1.0, 0.0]) if i == 0 else np.array([1.0, 0.0])
            if j > 0:
                pieces.append(CVFace(np.array([x, y - hy / 4]), nx_vec, hy / 2,
                                     -1, mesh.edge_tags[side][j - 1]))
            if j < ny:
                pieces.append(CVFace(np.array([x, y + hy / 4]), nx_vec, hy / 2,
                                     -1, mesh.edge_tags[side][j]))
        return pieces

    out = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            vid = vertex_id(mesh, i, j)
            faces = faces_of[vid] + boundary_pieces(i, j, vid)
            out.append(ControlVolume(vid, mesh.vertices[vid], cv_bounds(mesh, vid),
                                     areas[vid], faces))
    return out


def locate(mesh, points):
    """Element ids containing the given points.

    Points on an inter-element line are assigned to the lower element id,
    points outside the domain raise.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    if np.any(x < 0) or np.any(x > mesh.Lx) or np.any(y < 0) or np.any(y > mesh.Ly):
        raise ValueError("point outside the mesh domain")
    ix = np.clip(np.ceil(x / mesh.hx).astype(int) - 1, 0, mesh.nx - 1)
    iy = np.clip(np.ceil(y / mesh.hy).astype(int) - 1, 0, mesh.ny - 1)
    return iy * mesh.nx + ix


def _at_points(field, points):
    """Local coordinates (xi, eta) of points (n, 2) in their elements, and
    the corner values (n, 4) of a NodalField or DGField there."""
    mesh = field.mesh
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    elems = locate(mesh, pts)
    ox, oy = element_origin(mesh, elems)
    xi = (pts[:, 0] - ox) / mesh.hx
    eta = (pts[:, 1] - oy) / mesh.hy
    values = field.values
    corners = (values[element_table(mesh)[elems]] if values.ndim == 1
               else values[elems])
    return xi, eta, corners


def field_value(field, points):
    """A NodalField or DGField at arbitrary points (n, 2)."""
    xi, eta, corners = _at_points(field, points)
    return sum(corners[:, c] * hat(c, xi, eta) for c in range(4))


def field_gradient(field, points):
    """Gradient (n, 2) of a NodalField or DGField at arbitrary points (n, 2)."""
    mesh = field.mesh
    xi, eta, corners = _at_points(field, points)
    return sum(corners[:, c, None]
               * np.stack(hat_grad(c, xi, eta, mesh.hx, mesh.hy), axis=-1)
               for c in range(4))


def full_stiffness(stiffness):
    """The whole element blocks (ne, 4, 4) of an `ElementKernel`'s
    stiffness, kept by its 10 distinct entries (ne, 10)."""
    from porousda.pressure import BLOCK_ENTRIES

    return stiffness[:, BLOCK_ENTRIES]


def recovery_kappa(problem, theta):
    """kappa (ne, 12) at the flux recovery's points, the 8 edge quarter
    points and then the 4 sub-segment midpoints, as the recovery evaluates
    it block by block (`pressure.kappa_blocks`)."""
    from porousda.pressure import RECOVERY_POINTS, kappa_blocks

    return np.concatenate([k for _, _, k in kappa_blocks(
        problem, theta, RECOVERY_POINTS)])


def raw_pressure_residuals(problem, pressure, theta):
    """CV balance residuals of the unprocessed FEM pressure flux, for
    contrast with the recovered one (typically O(h), not zero)."""
    from porousda.flux_postprocess import cv_balance_residuals

    mesh = problem.mesh
    kappa_seg = recovery_kappa(problem, theta)[:, 8:]
    outflux = segment_outflux_from(mesh, kappa_seg, pressure.corner_values())
    return cv_balance_residuals(mesh, outflux, problem.cv_source)


def interp_const(dg, elem):
    """Subquadrant constants of a DG field on one element.

    The piecewise-constant interpolant takes the corner value on each corner's
    quadrant, so the constants are exactly the four corner values, ordered SW,
    SE, NW, NE like the quadrants.
    """
    return dg.values[elem].copy()


def face_velocity(flux, segment):
    """Normal velocity (outflux per unit length) across one dual-mesh segment,
    signed along the segment's +axis normal (from its left vertex toward its
    right one)."""
    mesh = flux.mesh
    length = mesh.hy / 2.0 if _SEGMENTS[segment % 4][1] == 0 else mesh.hx / 2.0
    return float(flux.segment_outflux[segment] / length)


# -- forms the package replaced, kept as bitwise references ------------------

def raster_bilinear(raster, x, y):
    """`PermeabilityRaster.lookup` as the formula of four weighted corner
    values per point, (1 - fx)(1 - fy) v00 + fx (1 - fy) v01 + (1 - fx) fy
    v10 + fx fy v11, evaluated at the full shape of the points: the form
    the raster kept in a memo at the kernel points."""
    Lx, Ly = raster.lengths
    gx = np.clip(np.asarray(x, dtype=float) / (Lx / raster.nx) - 0.5,
                 0.0, raster.nx - 1.0)
    gy = np.clip(np.asarray(y, dtype=float) / (Ly / raster.ny) - 0.5,
                 0.0, raster.ny - 1.0)
    ix = (np.minimum(gx.astype(int), raster.nx - 2) if raster.nx > 1
          else np.zeros_like(gx, dtype=int))
    iy = (np.minimum(gy.astype(int), raster.ny - 2) if raster.ny > 1
          else np.zeros_like(gy, dtype=int))
    fx = gx - ix if raster.nx > 1 else np.zeros_like(gx)
    fy = gy - iy if raster.ny > 1 else np.zeros_like(gy)
    v = raster.values
    jx = np.minimum(ix + 1, raster.nx - 1)
    jy = np.minimum(iy + 1, raster.ny - 1)
    return ((1 - fx) * (1 - fy) * v[iy, ix] + fx * (1 - fy) * v[iy, jx]
            + (1 - fx) * fy * v[jy, ix] + fx * fy * v[jy, jx])


def source_vector_add_at(coeffs, t):
    """CV integrals of the transport source f(., t), scattered point by point
    with `np.add.at` over the free control volumes only."""
    if coeffs.source is None:
        return np.zeros(coeffs.mesh.n_vertices)
    return cv_integrals_add_at(coeffs.mesh,
                               lambda x, y: coeffs.source(x, y, t))


def cv_integrals_add_at(mesh, fn):
    """CV integrals of fn(x, y) over the free control volumes, evaluated at
    fresh copies of the quadrature points and scattered point by point with
    `np.add.at`."""
    from porousda.fields import quadrature

    quad = quadrature(mesh)
    out = np.zeros(mesh.n_vertices)
    pts = global_points(quad)
    fv = np.asarray(fn(pts[:, :, 0], pts[:, :, 1]),
                    dtype=float) * np.ones(pts.shape[:2])
    rows = element_table(mesh)[:, quad.owner_corner].ravel()
    keep = ~mesh.is_dirichlet[rows]
    np.add.at(out, rows[keep], (quad.weight * fv).ravel()[keep])
    return out


def pressure_source_integrals(mesh, source):
    """(load, cv_source, flux_source) of a `PressureProblem` with source g,
    built from one (ne, 16) array of weighted values of g at the whole
    quadrature point views: the load by one `np.einsum` with the basis and
    one `np.bincount` in element order, the CV integrals by one
    `np.bincount` point by point, and the flux source as each quadrant's
    sum less the element load.  The form the blocked build replaced."""
    from porousda.fields import quadrature

    quad = quadrature(mesh)
    wg = (quad.weight * np.broadcast_to(
        np.asarray(source(quad.x, quad.y), dtype=float),
        quad.x.shape)).reshape(-1, 16)
    element_load = np.einsum("ek,ka->ea", wg, quad.phi)
    elements = element_table(mesh)
    load = np.bincount(elements.ravel(), weights=element_load.ravel(),
                       minlength=mesh.n_vertices)
    cv_source = np.bincount(elements[:, quad.owner_corner].ravel(),
                            weights=wg.ravel(), minlength=mesh.n_vertices)
    flux_source = wg.reshape(-1, 4, 4).sum(axis=2) - element_load
    return load, cv_source, flux_source


def cv_balance_by_add_at(mesh, segment_outflux, cv_source):
    """The control-volume balance residuals as two `np.add.at` calls, over
    the left and then the right corners of every segment."""
    from porousda.mesh import SEG_LEFT_CORNER, SEG_RIGHT_CORNER

    res = np.zeros(mesh.n_vertices)
    outflux = segment_outflux.reshape(-1, 4)
    elements = element_table(mesh)
    np.add.at(res, elements[:, SEG_LEFT_CORNER], outflux)
    np.add.at(res, elements[:, SEG_RIGHT_CORNER], -outflux)
    res -= cv_source
    res[mesh.is_dirichlet] = np.nan
    return res


def l2_by_quadrature(field, other=None):
    """L2 norm of a nodal field, or of the difference of two, summed over
    the 16 quadrature points of every element."""
    from porousda.fields import quadrature

    quad = quadrature(field.mesh)
    v = quad.phi @ field.corner_values().T
    if other is not None:
        v = v - quad.phi @ other.corner_values().T
    return float(np.sqrt(np.sum(v * v) * quad.weight))


def consistent_mass(mesh):
    """The consistent bilinear mass matrix on the stencil pattern, each
    element's block the 16-point rule's sum of phi_a phi_b, summed by
    `StencilPattern.sum_blocks`: the assembled form of the package's 1-D
    mass factors."""
    from porousda import linalg
    from porousda.fields import quadrature

    quad = quadrature(mesh)
    block = quad.weight * (quad.phi.T @ quad.phi)               # (4, 4)
    stencil = linalg.stencil(mesh)
    return stencil.matrix(stencil.sum_blocks(
        np.broadcast_to(block, (mesh.n_elements, 4, 4))))


def mass_from_factors(mesh):
    """m_y (x) m_x formed from the 1-D factors the mesh keeps for its L2
    norms (`fields._build_mass_factors`), as CSR."""
    from scipy import sparse

    from porousda.fields import _build_mass_factors

    (dy, oy), (dx, ox) = mesh.constant("mass_factors", _build_mass_factors)
    my, mx = (sparse.diags([np.full(d.size - 1, o), d, np.full(d.size - 1, o)],
                           [-1, 0, 1]) for d, o in ((dy, oy), (dx, ox)))
    return sparse.kron(my, mx, format="csr")


def functionals_by_assembly(grid):
    """The functionals F of `grid`, (n_obs, nv): for point values, a 1 at
    each lattice vertex, found from its coordinates; for averages,
    `average_functionals_by_assembly`."""
    from porousda import linalg

    if grid.kind == "average":
        return average_functionals_by_assembly(grid)
    mesh = grid.mesh
    vertex = {tuple(p): v for v, p in enumerate(mesh.vertices)}
    columns = [vertex[tuple(p)] for p in lattice_vertices(grid)]
    return linalg.assemble(np.arange(grid.n_obs), np.array(columns),
                           np.ones(grid.n_obs), (grid.n_obs, mesh.n_vertices))


def example1_closed_form():
    """example1's exact solution and forcing (exact, source), each written
    out in full at every call."""

    def exact(x, y, t):
        return np.exp(-t) * (x - x**2) * (y - y**2)

    def source(x, y, t):
        th = exact(x, y, t)
        dthx = np.exp(-t) * (1.0 - 2.0 * x) * (y - y**2)
        dthy = np.exp(-t) * (x - x**2) * (1.0 - 2.0 * y)
        lap = -2.0 * np.exp(-t) * ((y - y**2) + (x - x**2))
        return -th - lap + (dthx + dthy) / (1.0 + th) ** 2

    return exact, source


def metrics_two_calls(theta, fn, grid):
    """R and Rtilde against an analytic truth fn(x, y), which is evaluated at
    the quadrature points twice: once for the norm, once for the difference."""
    from porousda.fields import NodalField, l2_diff, l2_norm_callable

    denom = l2_norm_callable(theta.mesh, fn)
    r = 100.0 * (l2_diff(theta, fn) / denom)
    coarse = grid.interpolate(NodalField.from_callable(theta.mesh, fn))
    rtilde = 100.0 * (l2_diff(theta, coarse) / denom)
    return r, rtilde


def prolongation_by_assembly(nx, ny, kx, ky):
    """The coarse-to-fine bilinear prolongation as a (row, col, weight) stream
    summed by `linalg.assemble`."""
    from porousda import linalg

    ncx, ncy = nx // kx, ny // ky
    rows, cols, vals = [], [], []
    for j in range(ny + 1):
        cj = min(j // ky, ncy - 1)
        eta = (j - cj * ky) / ky
        for i in range(nx + 1):
            ci = min(i // kx, ncx - 1)
            xi = (i - ci * kx) / kx
            base = cj * (ncx + 1) + ci
            rows += [j * (nx + 1) + i] * 4
            cols += [base, base + 1, base + ncx + 1, base + ncx + 2]
            vals += [hat(c, xi, eta) for c in range(4)]
    return linalg.assemble(np.array(rows), np.array(cols), np.array(vals),
                           ((nx + 1) * (ny + 1), (ncx + 1) * (ncy + 1)))


def jacobi_cg_pressure(problem, theta):
    """Nodal pressure values, and the iteration count, of scipy's CG with a
    Jacobi preconditioner on the free block of the package's system: an
    oracle for the package's multigrid CG that shares its assembly but not
    its solver."""
    from scipy.sparse import diags
    from scipy.sparse.linalg import cg

    from porousda.pressure import assemble_pressure

    mesh = problem.mesh
    A, b = assemble_pressure(problem, theta)
    free = free_vertices(mesh)
    A, b = A[free][:, free], b[free]
    count = [0]

    def counted(_xk):
        count[0] += 1

    x, info = cg(A, b, rtol=1e-12, atol=1e-14, maxiter=10 * b.size,
                 M=diags(1.0 / A.diagonal()), callback=counted)
    assert info == 0, f"Jacobi-CG oracle stopped with info={info}"
    values = np.zeros(mesh.n_vertices)
    values[free] = x
    fixed = np.flatnonzero(mesh.is_dirichlet)
    values[fixed] = problem.dirichlet_values(fixed)
    return values, count[0]


def average_functionals_by_assembly(grid):
    """The normalized coarse-CV average functionals of `grid`, (n_obs, nv),
    assembled from every quadrature point of the mesh by `linalg.assemble`:
    the point's weighted basis values go to the row of the lattice point
    nearest it.  The package builds them as a Kronecker product of 1-D
    averages; the two agree to roundoff, not bitwise."""
    from porousda import linalg
    from porousda.fields import quadrature

    mesh = grid.mesh
    quad = quadrature(mesh)
    ncx, ncy = mesh.nx // grid.kx, mesh.ny // grid.ky
    ox = np.clip(np.round(quad.x.ravel() / grid.spacing).astype(int), 0, ncx)
    oy = np.clip(np.round(quad.y.ravel() / grid.spacing).astype(int), 0, ncy)
    obs = oy * (ncx + 1) + ox
    corners = np.repeat(element_table(mesh), 16, axis=0)     # (ne*16, 4)
    phi = np.tile(quad.phi, (mesh.n_elements, 1))            # (ne*16, 4)
    gamma = linalg.assemble(np.repeat(obs, 4), corners.ravel(),
                            (phi * quad.weight).ravel(),
                            (grid.n_obs, mesh.n_vertices))
    inv = 1.0 / np.asarray(gamma.sum(axis=1)).ravel()
    return linalg.SparseMatrix(gamma.multiply(inv[:, None]))


def transport_operators_by_sums(coeffs):
    """The run-constant transport operators of `coeffs` as separate CSR
    matrices on the mesh's stencil, the form the package kept before one
    operator per run held them as data on one pattern: the mass, reaction
    (None without one), diffusion and Dirichlet diagonal, and the nudging
    operator times mu (None when mu = 0)."""
    from porousda import linalg
    from porousda.fields import cv_flux_blocks, quadrature

    mesh = coeffs.mesh
    quad = quadrature(mesh)
    pattern = linalg.stencil(mesh)
    free = ~mesh.is_dirichlet
    phi_quadrant = quad.weight * quad.phi.reshape(4, 4, 4)
    ops = {"mass": scatter_rows(mesh, np.broadcast_to(
        phi_quadrant.sum(axis=1), (mesh.n_elements, 4, 4)), free)}
    ops["reac"] = None
    if coeffs.reaction is not None:
        qv = np.asarray(coeffs.reaction(quad.x, quad.y), dtype=float) * np.ones_like(quad.x)
        ops["reac"] = scatter_rows(
            mesh, np.einsum("eap,apb->eab", qv.reshape(-1, 4, 4), phi_quadrant),
            free)
    mid = segment_arrays(mesh).mid
    dq = np.asarray(coeffs.diffusion(mid[:, 0], mid[:, 1]),
                    dtype=float) * np.ones(mesh.n_segments)
    ops["diff"] = scatter_rows(mesh, cv_flux_blocks(mesh, dq.reshape(-1, 4)), free)
    dir_data = np.zeros(pattern.nnz)
    dir_data[diagonal_slots(mesh)[mesh.is_dirichlet]] = 1.0
    ops["dir_diag"] = pattern.matrix(dir_data)
    ops["nudge"] = None
    if coeffs.mu > 0.0:

        grid = coeffs.grid
        nudge_cv = ops["mass"] @ bilinear_prolongation(
            mesh.nx, mesh.ny, grid.kx, grid.ky)
        ops["nudge"] = coeffs.mu * (nudge_cv
                                    @ functionals_by_assembly(grid)).tocsr()
    return ops


def advection_by_scatter(mesh, outflux):
    """The upwind advection of a segment outflux, scattered into the stencil
    by element blocks, rows of Dirichlet vertices left out: a positive
    outflux leaves the CV of the segment's left corner and enters its right
    one's in the left corner's column, a negative one in the right's."""
    from porousda import linalg
    from porousda.mesh import SEG_LEFT_CORNER, SEG_RIGHT_CORNER

    t = np.arange(4)
    upwind = np.zeros((2, 4, 4, 4))          # (sign, segment type, row, col)
    for k, corner in enumerate((SEG_LEFT_CORNER, SEG_RIGHT_CORNER)):
        upwind[k, t, SEG_LEFT_CORNER, corner] = 1.0
        upwind[k, t, SEG_RIGHT_CORNER, corner] = -1.0
    U = np.asarray(outflux, dtype=float).reshape(-1, 4)
    local = (np.maximum(U, 0.0) @ upwind[0].reshape(4, 16)
             + np.minimum(U, 0.0) @ upwind[1].reshape(4, 16))
    return scatter_rows(mesh, local.reshape(-1, 4, 4), ~mesh.is_dirichlet)


def run_operator_by_bincount(coeffs, outflux):
    """The mass, K0 and the upwind advection of `outflux` of the run
    `coeffs`, as data on the mesh's stencil, each scattered from whole-mesh
    element arrays by one `np.bincount` in element order: the form the
    blocked scatter replaced.  The coefficients are evaluated at the whole
    point views, and the entries of Dirichlet rows are set to zero after
    the sum.  The element mass block is the run's, the outer product of the
    1-D CV blocks."""
    from porousda import linalg
    from porousda.fields import cv_flux_blocks, quadrature
    from porousda.transport import _UPWIND_ENTRIES, _cv_block

    mesh = coeffs.mesh
    quad = quadrature(mesh)
    pattern = linalg.stencil(mesh)
    where = pattern.matrix(np.arange(1.0, pattern.nnz + 1))
    in_dirichlet_row = np.repeat(mesh.is_dirichlet, np.diff(pattern.indptr))

    def slots_of(rows, cols):
        return np.asarray(where[rows, cols]).ravel().astype(np.intp) - 1

    e = element_table(mesh)
    rows = np.repeat(e, 4, axis=1).ravel()        # entry (a, b): row e[a]
    slots = slots_of(rows, np.tile(e, (1, 4)).ravel())

    def scatter(slots, weights):
        out = np.bincount(slots, weights=np.ravel(weights),
                          minlength=pattern.nnz)
        out[in_dirichlet_row] = 0.0
        return out

    phi_quadrant = quad.weight * quad.phi.reshape(4, 4, 4)
    mass = scatter(slots, np.broadcast_to(np.kron(_cv_block(mesh.hy),
                                                  _cv_block(mesh.hx)),
                                          (mesh.n_elements, 4, 4)))
    d = np.asarray(coeffs.diffusion(quad.seg_x, quad.seg_y), dtype=float)
    blocks = cv_flux_blocks(mesh, (d * np.ones(quad.seg_x.shape)).reshape(-1, 4))
    if coeffs.reaction is not None:
        r = np.asarray(coeffs.reaction(quad.x, quad.y), dtype=float)
        blocks = blocks + np.einsum(
            "eap,apb->eab", (r * np.ones(quad.x.shape)).reshape(-1, 4, 4),
            phi_quadrant)
    k0 = scatter(slots, blocks)
    U = np.asarray(outflux, dtype=float)
    weights = np.empty((U.size, 4))
    np.maximum(U, 0.0, out=weights[:, 0])
    np.minimum(U, 0.0, out=weights[:, 2])
    np.negative(weights[:, 0::2], out=weights[:, 1::2])
    advection = scatter(np.take(slots.reshape(-1, 16), _UPWIND_ENTRIES,
                                axis=1).ravel(), weights)
    return mass, k0, advection


def scatter_rows(mesh, local, rows):
    """Element blocks (ne, 4, 4) scattered into the stencil pattern, only
    the rows in the boolean vertex mask `rows`; the others hold explicit
    zeros."""
    from porousda import linalg

    local = np.where(rows[element_table(mesh)][:, :, None], local, 0.0)
    pattern = linalg.stencil(mesh)
    return pattern.matrix(pattern.sum_blocks(local))


def step_matrices_by_sums(coeffs, outflux, dt):
    """(step matrix, explicit operator) of one velocity as sums of sparse
    matrices: K = diffusion + advection + reaction + mu * nudging, the step
    matrix mass + dt/2 K plus the Dirichlet diagonal, and the explicit
    operator mass - dt/2 K."""
    ops = transport_operators_by_sums(coeffs)
    K = ops["diff"].copy()
    if outflux is not None:
        K = K + advection_by_scatter(coeffs.mesh, outflux)
    for name in ("reac", "nudge"):
        if ops[name] is not None:
            K = K + ops[name]
    lhs = (ops["mass"] + 0.5 * dt * K + ops["dir_diag"]).tocsr()
    return lhs, (ops["mass"] - 0.5 * dt * K).tocsr()


def joined(A):
    """A step operator as one CSR matrix: a nudged run's S0 + h C (a
    `linalg.CoupledOperator`) summed on the union of their patterns, the
    form the package kept before it applied C from its factors, and any
    other matrix as it is."""
    from porousda.linalg import CoupledOperator

    if isinstance(A, CoupledOperator):
        return (A.matrix + A.scale * A.coupling.matrix()).tocsr()
    return A


def segment_outflux_from(mesh, kappa_seg, corner_values):
    """Outflux -kappa d(psi)/dn * length across every CV sub-segment of the
    bilinear psi with `corner_values` (ne, 4); flat, in segment order."""
    from porousda.fields import quadrature

    quad = quadrature(mesh)
    dpsi_n = corner_values @ quad.seg_dphi_n.T                      # (ne, 4)
    return (-kappa_seg * dpsi_n * quad.seg_len).ravel()


def bordered_flux_solve(mesh, kappa_seg, rhs, p_c):
    """The flux recovery's local systems solved as the package did before
    its closed form: one batched LAPACK solve of the bordered 5x5 systems
    [[A, 1], [1^T, 0]], A the control-volume flux block of `kappa_seg` and
    the border pinning the sum of psi to that of the pressure corners p_c.
    Returns psi and the segment outfluxes, both (ne, 4)."""
    from porousda.fields import cv_flux_blocks

    B = np.zeros((mesh.n_elements, 5, 5))
    B[:, :4, :4] = cv_flux_blocks(mesh, kappa_seg)
    B[:, :4, 4] = 1.0
    B[:, 4, :4] = 1.0
    rhs5 = np.concatenate([rhs, p_c.sum(axis=1, keepdims=True)], axis=1)
    psi = np.linalg.solve(B, rhs5[:, :, None])[:, :4, 0]
    return psi, segment_outflux_from(mesh, kappa_seg, psi).reshape(-1, 4)


def _solve_fractions(matrix, rhs):
    """Gauss-Jordan elimination in exact rational arithmetic."""
    n = len(rhs)
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[r][n] / rows[r][r] for r in range(n)]


def exact_bordered_flux_solve(mesh, kappa_seg, rhs, p_c):
    """The systems of `bordered_flux_solve`, built from the same float
    inputs and solved exactly in rationals, then rounded to floats.

    This is the oracle where kappa spans many decades.  In floats an entry
    of A adds the kappa of two segments, and a kappa 1e-12 times the other
    drops out of the sum: with kappa log-uniform over 1e-8..1e4, LAPACK's
    psi then misses the exact one by up to a relative 1e-5.
    """
    hx, hy = Fraction(mesh.hx), Fraction(mesh.hy)
    grads = [[Fraction(hat_grad(b, mx, my, 1.0, 1.0)[axis])
              / (hx if axis == 0 else hy) for b in range(4)]
             for (mx, my), axis, _, _ in _SEGMENTS]
    lengths = [hy / 2 if axis == 0 else hx / 2 for _, axis, _, _ in _SEGMENTS]
    psi = np.zeros((mesh.n_elements, 4))
    outflux = np.zeros((mesh.n_elements, 4))
    for e in range(mesh.n_elements):
        kappa = [Fraction(k) for k in kappa_seg[e]]
        # flow[s][b]: outflux across segment s of the basis function b
        flow = [[-kappa[s] * lengths[s] * grads[s][b] for b in range(4)]
                for s in range(4)]
        matrix = [[Fraction(0)] * 4 + [Fraction(1)] for _ in range(4)]
        for s, (_, _, left, right) in enumerate(_SEGMENTS):
            for b in range(4):
                matrix[left][b] += flow[s][b]
                matrix[right][b] -= flow[s][b]
        matrix.append([Fraction(1)] * 4 + [Fraction(0)])
        sol = _solve_fractions(matrix, [Fraction(v) for v in rhs[e]]
                               + [sum(Fraction(v) for v in p_c[e])])[:4]
        psi[e] = [float(v) for v in sol]
        outflux[e] = [float(sum(f * v for f, v in zip(flow[s], sol)))
                      for s in range(4)]
    return psi, outflux


# -- checks on the scenarios and fields -----------------------------------

def integrate(mesh, source, t=None):
    """Integral of a field or callable over the domain, by the package's
    16-point rule; a callable f(x, y, t) when t is given, else f(x, y)."""
    from porousda.fields import _values_at_quadrature, quadrature

    quad = quadrature(mesh)
    fn = source if t is None else (lambda x, y: source(x, y, t))
    return float(np.sum(_values_at_quadrature(mesh, fn)) * quad.weight)


def manufactured_forcing(theta, velocity=None, diffusion=1.0, reaction=0.0):
    """Numerical forcing builder f = dtheta/dt - div(D grad theta - v theta) + q theta.

    Derivatives are Richardson-extrapolated central differences of the given
    closed forms.  This is the independent check for hand-derived forcings,
    accurate to roughly 1e-9 on smooth inputs; the scenarios carry analytic
    forcings.
    """
    dfun = diffusion if callable(diffusion) else (lambda x, y: diffusion * np.ones_like(np.asarray(x, dtype=float)))
    qfun = reaction if callable(reaction) else (lambda x, y: reaction * np.ones_like(np.asarray(x, dtype=float)))

    def ddt(x, y, t, e=1e-5):
        d1 = (theta(x, y, t + e) - theta(x, y, t - e)) / (2 * e)
        d2 = (theta(x, y, t + 2 * e) - theta(x, y, t - 2 * e)) / (4 * e)
        return (4 * d1 - d2) / 3.0

    def diffusive(x, y, t, e=1e-4):
        def flux_x(xx, yy):
            return dfun(xx, yy) * (theta(xx + e, yy, t) - theta(xx - e, yy, t)) / (2 * e)

        def flux_y(xx, yy):
            return dfun(xx, yy) * (theta(xx, yy + e, t) - theta(xx, yy - e, t)) / (2 * e)

        div = ((flux_x(x + e, y) - flux_x(x - e, y)) / (2 * e)
               + (flux_y(x, y + e) - flux_y(x, y - e)) / (2 * e))
        return div

    def advective(x, y, t, e=1e-5):
        def mom(xx, yy):
            th = theta(xx, yy, t)
            vx, vy = velocity(xx, yy, th)
            return vx * th, vy * th

        def div(step):
            ax_p, _ = mom(x + step, y)
            ax_m, _ = mom(x - step, y)
            _, ay_p = mom(x, y + step)
            _, ay_m = mom(x, y - step)
            return (ax_p - ax_m + ay_p - ay_m) / (2 * step)

        return (4 * div(e) - div(2 * e)) / 3.0

    def f(x, y, t):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = ddt(x, y, t) - diffusive(x, y, t) + qfun(x, y) * theta(x, y, t)
        if velocity is not None:
            out = out + advective(x, y, t)
        return out

    return f
