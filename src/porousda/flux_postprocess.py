"""Locally conservative velocity recovery from the FEM pressure.

The Galerkin pressure does not balance mass over control volumes.  This
module recovers a discontinuous bilinear potential, element by element, whose
flux does: on each element a 4x4 system equates the control-volume flux of
the potential with a right-hand side built from the pressure's edge-average
fluxes, the source, and the element stiffness action.  The system has the
constants in its kernel and a right-hand side that sums to zero identically,
so it is solved as a bordered 5x5 system pinning the local mean of the
potential to the local mean of the pressure.

Every area integral here uses the same 16-point rule as the FEM assembly and
every edge integral uses the midpoint rule per half-edge.  That shared point
set is what makes the control-volume balance hold to roundoff: the telescoped
identity cancels term by term instead of up to quadrature error.  Boundary
handling: zero normal flux is imposed on Neumann edges, the one-sided trace
is used on Dirichlet edges.

The recovery builds no global matrix.  kappa at every point it needs and the
element stiffness come from `pressure.element_kernel`, which the pressure
assembly has just filled for the same concentration, so the stiffness action
is `k_local @ p_c`.  The control-volume balances add the segment outfluxes
per vertex in segment order.
"""

from dataclasses import dataclass

import numpy as np

from .fields import DGField, basis_gradients, cv_flux_blocks, quadrature
from .mesh import EDGE_QP_AXIS, EDGE_QP_LOCAL, NEUMANN
from .pressure import element_kernel


class LocalSolveError(RuntimeError):
    """A local flux system is singular; carries the offending element id."""

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


def _segment_outflux_from(mesh, kappa_seg, corner_values):
    """Outflux -kappa d(psi)/dn * length across every CV sub-segment."""
    quad = quadrature(mesh)
    dpsi_n = corner_values @ quad.seg_dphi_n.T                      # (ne, 4)
    return (-kappa_seg * dpsi_n * quad.seg_len).ravel()


def cv_balance_residuals(mesh, segment_outflux, cv_source):
    """Outflux sum minus source integral per CV; NaN at Dirichlet vertices."""
    res = np.zeros(mesh.n_vertices)
    np.add.at(res, mesh.seg_left, segment_outflux)
    np.add.at(res, mesh.seg_right, -segment_outflux)
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
    quad = quadrature(mesh)
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

    # Source terms: quadrant integral minus weighted element integral, same rule.
    gq = problem.source_q
    quadrant_sums = (quad.weight * gq).reshape(mesh.n_elements, 4, 4).sum(axis=2)
    r2 = quadrant_sums - quad.weight * gq @ quad.phi

    # Element stiffness action on the pressure.
    r3 = (kernel.stiffness @ p_c[:, :, None])[:, :, 0]

    rhs = r1 + r2 + r3

    # Local flux matrices from the CV sub-segment midpoint rule.
    a_loc = cv_flux_blocks(mesh, kernel.kappa_seg)

    # Bordered solve: pin the local mean of psi to the local mean of p.
    n_e = mesh.n_elements
    B = np.zeros((n_e, 5, 5))
    B[:, :4, :4] = a_loc
    B[:, :4, 4] = 1.0
    B[:, 4, :4] = 1.0
    rhs5 = np.concatenate([rhs, p_c.sum(axis=1, keepdims=True)], axis=1)
    try:
        psi = np.linalg.solve(B, rhs5[:, :, None])[:, :4, 0]
    except np.linalg.LinAlgError:
        ranks = np.linalg.matrix_rank(B)
        raise LocalSolveError(int(np.argmax(ranks < 5))) from None

    outflux = _segment_outflux_from(mesh, kernel.kappa_seg, psi)
    residuals = cv_balance_residuals(mesh, outflux, problem.cv_source)
    max_res = float(np.nanmax(np.abs(residuals))) if mesh.free_vertices.size else 0.0
    return ConservativeFlux(mesh, DGField(mesh, psi), outflux, residuals, max_res)
