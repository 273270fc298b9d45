"""Locally conservative velocity recovery from the FEM pressure.

The Galerkin pressure does not balance mass over control volumes.  This
module recovers a discontinuous bilinear potential psi, element by element,
whose flux does: in each element the outfluxes F_s of psi across the four
control-volume sub-segments must balance, per corner control volume, a
right-hand side r built from the pressure's edge-average fluxes, the source
and the element stiffness action.  The right-hand side sums to zero
identically, and the local mean of psi is pinned to that of the pressure.

The local system is solved in closed form.  The four corner control volumes
and the four sub-segments of an element form one loop (segment types of
`mesh`: 0 is corner 0 -> 1, 1 is 2 -> 3, 2 is 0 -> 2, 3 is 1 -> 3), so the
balances fix the flows up to one circulation c:

    F = (r0 - c, r2 + c, c, r0 + r1 - c).

With rho_s = 2 hx / (hy kappa_s) on the vertical segments (s = 0, 1) and
2 hy / (hx kappa_s) on the horizontal ones (s = 2, 3), g_s = -rho_s F_s is
the difference of psi that the flux F_s asks for: with u = psi_1 - psi_0,
v = psi_3 - psi_2, p = psi_2 - psi_0 and q = psi_3 - psi_1, the midpoint
rule gives g_0 = (3u + v) / 4, g_1 = (u + 3v) / 4, g_2 = (3p + q) / 4 and
g_3 = (p + 3q) / 4.  The differences close around the loop, u + q = p + v,
only when

    c = (r0 rho0 - r2 rho1 + (r0 + r1) rho3) / (rho0 + rho1 + rho2 + rho3).

Then u = (3 g0 - g1) / 2, v = (3 g1 - g0) / 2 and p = (3 g2 - g3) / 2, and
the mean fixes psi_0.  Each F_s is evaluated as its own sum of products
r_i rho_j over the sum of rho, not as r - c: where one kappa_s is orders of
magnitude below the others, r - c cancels to a small F_s whose rounding
error rho_s would magnify into psi.

Every area integral here uses the same 16-point rule as the FEM assembly and
every edge integral uses the midpoint rule per half-edge.  That shared point
set is what makes the control-volume balance hold to roundoff: the telescoped
identity cancels term by term instead of up to quadrature error.  Boundary
handling: zero normal flux is imposed on Neumann edges, the one-sided trace
is used on Dirichlet edges.

The recovery builds no global matrix.  The element stiffness comes from
`pressure.element_kernel`, which the pressure assembly has just filled for
the same concentration; the source term of r is the problem's run constant
`flux_source`.  kappa at the 8 edge quarter points and 4 sub-segment
midpoints is evaluated here a block of element rows at a time
(`pressure.kappa_blocks`); the edge values scale the edge fluxes in place
and only the (ne, 4) midpoint values are kept.  The stiffness action adds
each row's products in the fixed order (b0 + b2) + (b1 + b3), the whole
`np.einsum`'s with numpy 2.4 on x86-64.  r and the flows are computed in
place, in preallocated (ne, 4) arrays filled column by column, and each
temporary is dropped once read.  The control-volume balances add the
segment outfluxes per vertex in segment order, one block of element rows
at a time (`fields.kernel_point_blocks`).
"""

from dataclasses import dataclass

import numpy as np

from .fields import DGField, basis_gradients, kernel_point_blocks
from .mesh import (EDGE_QP_AXIS, EDGE_QP_LOCAL, NEUMANN, SEG_LEFT_CORNER,
                   SEG_RIGHT_CORNER)
from .pressure import (BLOCK_ENTRIES, RECOVERY_POINTS, element_kernel,
                       kappa_blocks)


class LocalSolveError(RuntimeError):
    """A local flux system has no finite solution (a kappa so small that
    1 / kappa overflows, say); carries the first offending element id."""

    def __init__(self, element):
        super().__init__(f"singular local flux system on element {element}")
        self.element = int(element)


@dataclass
class ConservativeFlux:
    """Postprocessed potential and its per-segment outflux."""

    mesh: object
    potential: DGField
    segment_outflux: np.ndarray   # outflux across each segment from its "left" CV
    residuals: np.ndarray         # CV balance residual, NaN at Dirichlet vertices
    max_residual: float


def _edge_averaged_flux(mesh, w_one):
    """Average one-sided edge fluxes across elements; returns (avg_y, avg_x).

    w_one is (ne, 8): kappa * (grad p . +axis) at the edge quarter points.
    Neumann boundary edges prescribe zero flux; Dirichlet edges keep the
    one-sided value.
    """
    nx, ny = mesh.nx, mesh.ny
    W = w_one.reshape(ny, nx, 8)

    avg_y = np.zeros((ny + 1, nx, 2))
    avg_y[1:ny] = 0.5 * (W[:-1, :, 2:4] + W[1:, :, 0:2])
    bottom_tags = np.asarray(mesh.edge_tags["bottom"]) != NEUMANN
    top_tags = np.asarray(mesh.edge_tags["top"]) != NEUMANN
    avg_y[0] = W[0, :, 0:2] * bottom_tags[:, None]
    avg_y[ny] = W[ny - 1, :, 2:4] * top_tags[:, None]

    avg_x = np.zeros((ny, nx + 1, 2))
    avg_x[:, 1:nx] = 0.5 * (W[:, :-1, 6:8] + W[:, 1:, 4:6])
    left_tags = np.asarray(mesh.edge_tags["left"]) != NEUMANN
    right_tags = np.asarray(mesh.edge_tags["right"]) != NEUMANN
    avg_x[:, 0] = W[:, 0, 4:6] * left_tags[:, None]
    avg_x[:, nx] = W[:, nx - 1, 6:8] * right_tags[:, None]
    return avg_y, avg_x


def _loop_flows(mesh, kappa_seg, r, p_sum):
    """Closed-form solution of every element's local flux system.

    r (ne, 4) is the right-hand side per corner control volume and p_sum
    (ne,) the sum of the pressure's corner values.  Returns the outfluxes
    F (ne, 4) per segment type and the potential psi (ne, 4), each written
    column by column; the (ne,) temporaries are reused in place or dropped
    once read.
    """
    vertical, horizontal = 2.0 * mesh.hx / mesh.hy, 2.0 * mesh.hy / mesh.hx
    rho = (vertical / kappa_seg[:, 0], vertical / kappa_seg[:, 1],
           horizontal / kappa_seg[:, 2], horizontal / kappa_seg[:, 3])
    rho0, rho1, rho2, rho3 = rho
    r0, r1, r2 = r[:, 0], r[:, 1], r[:, 2]
    # F_s times the sum of rho, each a sum of products r_i rho_j.
    r01, rho12 = r0 + r1, rho1 + rho2
    r0rho0, r2rho1, r01rho3 = r0 * rho0, r2 * rho1, r01 * rho3
    num = (r0 * rho12 + r2rho1 - r1 * rho3,
           r2 * (rho0 + rho2 + rho3) + r0rho0 + r01rho3,
           r0rho0 - r2rho1 + r01rho3,
           r1 * rho0 + r01 * rho12 + r2rho1)
    del r01, r0rho0, r2rho1, r01rho3
    inv_total = np.add(rho0, rho12, out=rho12)
    inv_total += rho3
    np.divide(1.0, inv_total, out=inv_total)
    # F_s into flows, and g_s = -rho_s F_s over rho_s.
    flows = np.empty(r.shape)
    for s, (rho_s, num_s) in enumerate(zip(rho, num)):
        np.multiply(num_s, inv_total, out=flows[:, s])
        np.negative(rho_s, out=rho_s)
        rho_s *= inv_total
        rho_s *= num_s
    del num, num_s, inv_total
    g0, g1, g2, g3 = rho
    u = 3.0 * g0
    u -= g1
    u *= 0.5
    v = np.multiply(3.0, g1, out=g1)
    v -= g0
    v *= 0.5
    p = np.multiply(3.0, g2, out=g2)
    p -= g3
    p *= 0.5
    psi = np.empty(r.shape)
    psi0 = np.multiply(2.0, p, out=psi[:, 0])
    psi0 += u
    psi0 += v
    np.subtract(p_sum, psi0, out=psi0)
    psi0 *= 0.25
    np.add(psi0, u, out=psi[:, 1])
    np.add(psi0, p, out=psi[:, 2])
    np.add(psi[:, 2], v, out=psi[:, 3])
    return flows, psi


def cv_balance_residuals(mesh, segment_outflux, cv_source):
    """Outflux sum minus source integral per CV; NaN at Dirichlet vertices.

    Each segment's outflux is added to its left CV, over every block of
    element rows in turn, and then subtracted from its right CV the same
    way, by `np.add.at` and `np.subtract.at`: in segment order, as one
    `np.add.at` over all left corners and one over all right corners would.
    """
    outflux = segment_outflux.reshape(-1, 4)
    res = np.zeros(mesh.n_vertices)
    for scatter, corners in ((np.add.at, SEG_LEFT_CORNER),
                             (np.subtract.at, SEG_RIGHT_CORNER)):
        for lo, hi, _, _ in kernel_point_blocks(mesh):
            scatter(res, mesh.element_corners(lo, hi)[:, corners].ravel(),
                    outflux[lo:hi].ravel())
    res -= cv_source
    res[mesh.is_dirichlet] = np.nan
    return res


def _local_rhs(problem, kernel, pressure, theta):
    """The right-hand side r (ne, 4) of every element's local system, built
    in place one corner column at a time, the sum (ne,) of the pressure's
    corner values and kappa (ne, 4) at the sub-segment midpoints."""
    mesh = problem.mesh
    p_c = pressure.corner_values()                                  # (ne, 4)

    # One-sided kappa grad(p) . (+axis) at the edge quarter points.
    dphi_edge = basis_gradients(EDGE_QP_LOCAL[:, 0], EDGE_QP_LOCAL[:, 1],
                                mesh.hx, mesh.hy)                   # (8, 4, 2)
    dphi_axis = np.take_along_axis(
        dphi_edge, EDGE_QP_AXIS[:, None, None], axis=2)[:, :, 0]    # (8, 4)
    w_one = p_c @ dphi_axis.T
    kappa_seg = np.empty((mesh.n_elements, 4))
    for lo, hi, k in kappa_blocks(problem, theta, RECOVERY_POINTS):
        w_one[lo:hi] *= k[:, :8]
        kappa_seg[lo:hi] = k[:, 8:]
    avg_y, avg_x = _edge_averaged_flux(mesh, w_one)
    del w_one

    # Each corner's balance takes the difference of the two half-edge fluxes
    # on its horizontal edge (half i first) and on its vertical edge (half j
    # first).  The outward normals of the bottom and left edges are -y and
    # -x, which reverses their differences.
    nx, ny = mesh.nx, mesh.ny
    bottom, top = avg_y[:-1], avg_y[1:]         # (ny, nx, 2)
    left, right = avg_x[:, :-1], avg_x[:, 1:]
    halves = ((bottom, 1, left, 1), (bottom, 0, right, 0),
              (top, 0, left, 0), (top, 1, right, 1))
    cx, cy = mesh.hx / 8.0, mesh.hy / 8.0
    r = np.empty((mesh.n_elements, 4))
    r_grid = r.reshape(ny, nx, 4)
    dx, dy = np.empty((ny, nx)), np.empty((ny, nx))
    for corner, (horizontal, i, vertical, j) in enumerate(halves):
        np.subtract(horizontal[..., i], horizontal[..., 1 - i], out=dx)
        dx *= cx
        np.subtract(vertical[..., j], vertical[..., 1 - j], out=dy)
        dy *= cy
        np.add(dx, dy, out=r_grid[..., corner])

    # The source term is a run constant.  The stiffness action goes by
    # blocks, column b of S times p_b, each row's terms (b0 + b2) + (b1 + b3).
    r += problem.flux_source
    for lo, hi, _, _ in kernel_point_blocks(mesh):
        s, p = kernel.stiffness[lo:hi], p_c[lo:hi]
        t0, t1, t2, t3 = (s[:, BLOCK_ENTRIES[:, b]] * p[:, b:b + 1]
                          for b in range(4))
        t0 += t2
        t1 += t3
        t0 += t1
        r[lo:hi] += t0
    return r, p_c.sum(axis=1), kappa_seg


def postprocess_flux(problem, pressure, theta):
    """Recover the locally conservative flux from a pressure solution.

    The element stiffness comes from `pressure.element_kernel`, so a
    recovery that follows the solve at the same concentration does not
    build it again.  Returns a ConservativeFlux whose per-CV balance
    residual is at roundoff level for every non-Dirichlet vertex.
    """
    mesh = problem.mesh
    kernel = element_kernel(problem, theta)
    r, p_sum, kappa_seg = _local_rhs(problem, kernel, pressure, theta)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        flows, psi = _loop_flows(mesh, kappa_seg, r, p_sum)
    del r, p_sum, kappa_seg
    if not np.isfinite(psi).all():
        raise LocalSolveError(np.argmin(np.isfinite(psi).all(axis=1)))

    outflux = flows.ravel()
    residuals = cv_balance_residuals(mesh, outflux, problem.cv_source)
    free = mesh.dirichlet_vertices.size < mesh.n_vertices
    max_res = float(np.nanmax(np.abs(residuals))) if free else 0.0
    return ConservativeFlux(mesh, DGField(mesh, psi), outflux, residuals, max_res)
