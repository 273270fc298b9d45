"""Bilinear FEM for the elliptic pressure equation.

The pressure solve -div(kappa(theta) grad p) = g uses continuous bilinears on
the primal mesh.  The mobility-weighted permeability kappa is evaluated at the
package quadrature points with the concentration clamped to [0, 1] first, so
transient over/undershoots cannot push the coefficient out of its physical
range.  Dirichlet values are imposed by row/column elimination with the
symmetric right-hand-side correction, which keeps the free block SPD.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .fields import NodalField, quadrature


class CoefficientRangeError(ValueError):
    """Permeability evaluated to a non-positive value."""


@dataclass
class PressureProblem:
    """Pressure equation data; g is time-independent and is evaluated once,
    at the package quadrature points, into `source_q` (ne, 16)."""

    mesh: object
    kappa: object                  # callable(theta, x, y) -> permeability
    source: object                 # callable(x, y) -> g
    dirichlet: object = 0.0        # callable(x, y) -> p on Gamma_D, or a constant
    solver: linalg.SolverConfig = dc_field(
        default_factory=lambda: linalg.SolverConfig(method="cg"))
    source_q: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self):
        pts = quadrature(self.mesh).global_points()
        self.source_q = np.asarray(self.source(pts[:, :, 0], pts[:, :, 1]),
                                   dtype=float) * np.ones(pts.shape[:2])

    def dirichlet_values(self, vids):
        x, y = self.mesh.vertices[vids, 0], self.mesh.vertices[vids, 1]
        if callable(self.dirichlet):
            return np.asarray(self.dirichlet(x, y), dtype=float) * np.ones(len(vids))
        return np.full(len(vids), float(self.dirichlet))


def _kappa_at_quadrature(problem, theta):
    mesh = problem.mesh
    quad = quadrature(mesh)
    pts = quad.global_points()
    theta_q = np.clip(theta.corner_values() @ quad.phi.T, 0.0, 1.0)  # (ne, 16)
    kq = problem.kappa(theta_q, pts[:, :, 0], pts[:, :, 1]) * np.ones_like(theta_q)
    if np.any(~np.isfinite(kq)) or np.any(kq <= 0.0):
        bad = float(np.nanmin(kq))
        raise CoefficientRangeError(f"kappa must be positive, found {bad}")
    return kq


def assemble_pressure(problem, theta):
    """Assemble the free-vertex system; returns (matrix, rhs).

    Nonhomogeneous Dirichlet data is lifted into the right-hand side, so the
    returned matrix is the SPD free block and the rhs already carries the
    boundary contribution.
    """
    mesh = problem.mesh
    quad = quadrature(mesh)
    kq = _kappa_at_quadrature(problem, theta)

    grad_dot = np.einsum("pad,pbd->pab", quad.dphi, quad.dphi)       # (16, 4, 4)
    k_local = np.einsum("ep,pab->eab", kq, grad_dot) * quad.weight   # (ne, 4, 4)

    e = mesh.elements
    rows = np.repeat(e, 4, axis=1).ravel()
    cols = np.tile(e, (1, 4)).ravel()
    A = linalg.assemble(rows, cols, k_local.ravel(),
                        (mesh.n_vertices, mesh.n_vertices))

    b = np.zeros(mesh.n_vertices)
    np.add.at(b, e.ravel(), (quad.weight * problem.source_q @ quad.phi).ravel())

    free = mesh.free_vertices
    fixed = np.flatnonzero(mesh.is_dirichlet)
    A_ff = A[free][:, free].tocsr()
    rhs = b[free]
    if fixed.size:
        p_d = problem.dirichlet_values(fixed)
        rhs = rhs - A[free][:, fixed] @ p_d
    return A_ff, rhs


def solve_pressure(problem, theta, x0=None):
    """Solve for the pressure field; returns (NodalField, SolveReport).

    Dirichlet vertices carry exactly the prescribed values.
    """
    mesh = problem.mesh
    A, b = assemble_pressure(problem, theta)
    free = mesh.free_vertices
    guess = None if x0 is None else np.asarray(x0, dtype=float)[free]
    x, report = linalg.solve(A, b, problem.solver, x0=guess)
    values = np.zeros(mesh.n_vertices)
    values[free] = x
    fixed = np.flatnonzero(mesh.is_dirichlet)
    if fixed.size:
        values[fixed] = problem.dirichlet_values(fixed)
    return NodalField(mesh, values), report
