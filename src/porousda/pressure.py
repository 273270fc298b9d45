"""Bilinear FEM for the elliptic pressure equation.

The pressure solve -div(kappa(theta) grad p) = g uses continuous bilinears on
the primal mesh.  The mobility-weighted permeability kappa is evaluated at the
package quadrature points with the concentration clamped to [0, 1] first, so
transient over/undershoots cannot push the coefficient out of its physical
range.  Dirichlet values are imposed by row/column elimination with the
symmetric right-hand-side correction, which keeps the free block SPD.

The default solve is CG preconditioned by a geometric multigrid V-cycle.  The
levels follow from the mesh: it is halved while nx and ny are both even and
the coarse mesh keeps at least `MIN_COARSE_CELLS` cells per direction, and
the coarsest level is solved directly.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import sparse

from . import linalg
from .fields import NodalField, quadrature
from .observation import bilinear_prolongation

MIN_COARSE_CELLS = 8


class CoefficientRangeError(ValueError):
    """Permeability evaluated to a non-positive value."""


def default_solver():
    """The pressure solve unless a caller passes its own: multigrid CG."""
    return linalg.SolverConfig(method="cg", rel_tol=1e-12,
                               preconditioner="multigrid")


def multigrid_transfers(mesh):
    """2:1 bilinear prolongations between nested lattices, finest first.

    Each is restricted to the free vertices of both levels (a coarse vertex
    is free when the fine vertex under it is), with explicit zeros dropped;
    returns a list of (P, P^T) pairs in CSR.  Every level keeps a Dirichlet
    vertex when the mesh has one, because each Dirichlet boundary edge has an
    endpoint on the next coarser lattice.
    """
    nx, ny = mesh.nx, mesh.ny
    free = ~mesh.is_dirichlet
    transfers = []
    while nx % 2 == 0 and ny % 2 == 0 and min(nx, ny) // 2 >= MIN_COARSE_CELLS:
        coarse_free = free.reshape(ny + 1, nx + 1)[::2, ::2].ravel()
        P = bilinear_prolongation(nx, ny, 2, 2)[free][:, coarse_free].tocsr()
        P.eliminate_zeros()
        transfers.append((P, P.T.tocsr()))
        free, nx, ny = coarse_free, nx // 2, ny // 2
    if not mesh.is_dirichlet.any():
        # All-Neumann: p, and every Galerkin level, is fixed only up to a
        # constant.  A last level without the first coarsest vertex keeps
        # the direct solve nonsingular.
        n = int(free.sum())
        pin = sparse.eye(n, n - 1, k=-1, format="csr")
        transfers.append((pin, pin.T.tocsr()))
    return transfers


@dataclass
class PressureProblem:
    """Pressure equation data.  Run constants are built once: g, which is
    time-independent, at the package quadrature points into `source_q`
    (ne, 16), and the multigrid prolongations into `transfers`."""

    mesh: object
    kappa: object                  # callable(theta, x, y) -> permeability
    source: object                 # callable(x, y) -> g
    dirichlet: object = 0.0        # callable(x, y) -> p on Gamma_D, or a constant
    solver: linalg.SolverConfig = dc_field(default_factory=default_solver)
    source_q: np.ndarray = dc_field(init=False, repr=False)
    transfers: list = dc_field(init=False, repr=False)

    def __post_init__(self):
        pts = quadrature(self.mesh).global_points()
        self.source_q = np.asarray(self.source(pts[:, :, 0], pts[:, :, 1]),
                                   dtype=float) * np.ones(pts.shape[:2])
        self.transfers = multigrid_transfers(self.mesh)

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
    x, report = linalg.solve(A, b, problem.solver, x0=guess,
                             transfers=problem.transfers)
    values = np.zeros(mesh.n_vertices)
    values[free] = x
    fixed = np.flatnonzero(mesh.is_dirichlet)
    if fixed.size:
        values[fixed] = problem.dirichlet_values(fixed)
    return NodalField(mesh, values), report
