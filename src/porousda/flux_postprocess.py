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

The recovery builds no global matrix.  kappa at every point it needs and the
element stiffness come from `pressure.element_kernel`, which the pressure
assembly has just filled for the same concentration; the source term of r
is the problem's run constant `flux_source`.  The control-volume balances
add the segment outfluxes per vertex in segment order.
"""

from dataclasses import dataclass

import numpy as np

from .fields import DGField, basis_gradients
from .mesh import (EDGE_QP_AXIS, EDGE_QP_LOCAL, NEUMANN, SEG_LEFT_CORNER,
                   SEG_RIGHT_CORNER)
from .pressure import element_kernel


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


def _edge_averaged_flux(mesh, w_one, tags_zero=NEUMANN):
    """Average one-sided edge fluxes across elements; returns (avg_y, avg_x).

    w_one is (ne, 8): kappa * (grad p . +axis) at the edge quarter points.
    Neumann boundary edges prescribe zero flux; Dirichlet edges keep the
    one-sided value.
    """
    nx, ny = mesh.nx, mesh.ny
    W = w_one.reshape(ny, nx, 8)

    avg_y = np.zeros((ny + 1, nx, 2))
    avg_y[1:ny] = 0.5 * (W[:-1, :, 2:4] + W[1:, :, 0:2])
    bottom_tags = np.asarray(mesh.edge_tags["bottom"]) != tags_zero
    top_tags = np.asarray(mesh.edge_tags["top"]) != tags_zero
    avg_y[0] = W[0, :, 0:2] * bottom_tags[:, None]
    avg_y[ny] = W[ny - 1, :, 2:4] * top_tags[:, None]

    avg_x = np.zeros((ny, nx + 1, 2))
    avg_x[:, 1:nx] = 0.5 * (W[:, :-1, 6:8] + W[:, 1:, 4:6])
    left_tags = np.asarray(mesh.edge_tags["left"]) != tags_zero
    right_tags = np.asarray(mesh.edge_tags["right"]) != tags_zero
    avg_x[:, 0] = W[:, 0, 4:6] * left_tags[:, None]
    avg_x[:, nx] = W[:, nx - 1, 6:8] * right_tags[:, None]
    return avg_y, avg_x


def _loop_flows(mesh, kappa_seg, r, p_sum):
    """Closed-form solution of every element's local flux system.

    r (ne, 4) is the right-hand side per corner control volume and p_sum
    (ne,) the sum of the pressure's corner values.  Returns the outfluxes
    F (ne, 4) per segment type and the potential psi (ne, 4).
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
    inv_total = 1.0 / (rho0 + rho12 + rho3)
    g0, g1, g2, g3 = (-rho_s * inv_total * n for rho_s, n in zip(rho, num))
    u = 0.5 * (3.0 * g0 - g1)
    v = 0.5 * (3.0 * g1 - g0)
    p = 0.5 * (3.0 * g2 - g3)
    psi0 = 0.25 * (p_sum - (u + 2.0 * p + v))
    psi2 = psi0 + p
    return (np.column_stack([n * inv_total for n in num]),
            np.column_stack([psi0, psi0 + u, psi2, psi2 + v]))


def cv_balance_residuals(mesh, segment_outflux, cv_source):
    """Outflux sum minus source integral per CV; NaN at Dirichlet vertices."""
    res = np.zeros(mesh.n_vertices)
    outflux = segment_outflux.reshape(-1, 4)
    np.add.at(res, mesh.elements[:, SEG_LEFT_CORNER], outflux)
    np.add.at(res, mesh.elements[:, SEG_RIGHT_CORNER], -outflux)
    res -= cv_source
    res[mesh.is_dirichlet] = np.nan
    return res


def postprocess_flux(problem, pressure, theta):
    """Recover the locally conservative flux from a pressure solution.

    kappa and the element stiffness come from `pressure.element_kernel`, so a
    recovery that follows the solve at the same concentration evaluates
    neither again.  Returns a ConservativeFlux whose per-CV balance residual
    is at roundoff level for every non-Dirichlet vertex.
    """
    mesh = problem.mesh
    kernel = element_kernel(problem, theta)
    p_c = pressure.corner_values()                                  # (ne, 4)

    # One-sided kappa grad(p) . (+axis) at the edge quarter points.
    dphi_edge = basis_gradients(EDGE_QP_LOCAL[:, 0], EDGE_QP_LOCAL[:, 1],
                                mesh.hx, mesh.hy)                   # (8, 4, 2)
    dphi_axis = np.take_along_axis(
        dphi_edge, EDGE_QP_AXIS[:, None, None], axis=2)[:, :, 0]    # (8, 4)
    w_one = kernel.kappa_edge * (p_c @ dphi_axis.T)
    avg_y, avg_x = _edge_averaged_flux(mesh, w_one)

    nx, ny = mesh.nx, mesh.ny
    qS = -avg_y[:-1]            # (ny, nx, 2), outward normal -y
    qN = avg_y[1:]
    qW = -avg_x[:, :-1]
    qE = avg_x[:, 1:]
    cx, cy = mesh.hx / 8.0, mesh.hy / 8.0
    r1 = np.empty((ny, nx, 4))
    r1[..., 0] = cx * (qS[..., 0] - qS[..., 1]) + cy * (qW[..., 0] - qW[..., 1])
    r1[..., 1] = cx * (qS[..., 1] - qS[..., 0]) + cy * (qE[..., 0] - qE[..., 1])
    r1[..., 2] = cx * (qN[..., 0] - qN[..., 1]) + cy * (qW[..., 1] - qW[..., 0])
    r1[..., 3] = cx * (qN[..., 1] - qN[..., 0]) + cy * (qE[..., 1] - qE[..., 0])
    r1 = r1.reshape(mesh.n_elements, 4)

    # The source term is a run constant; the stiffness action is one einsum.
    rhs = r1 + problem.flux_source + np.einsum("eab,eb->ea", kernel.stiffness, p_c)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        flows, psi = _loop_flows(mesh, kernel.kappa_seg, rhs, p_c.sum(axis=1))
    if not np.isfinite(psi).all():
        raise LocalSolveError(np.argmin(np.isfinite(psi).all(axis=1)))

    outflux = flows.ravel()
    residuals = cv_balance_residuals(mesh, outflux, problem.cv_source)
    max_res = float(np.nanmax(np.abs(residuals))) if mesh.free_vertices.size else 0.0
    return ConservativeFlux(mesh, DGField(mesh, psi), outflux, residuals, max_res)
