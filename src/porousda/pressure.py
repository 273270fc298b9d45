"""Bilinear FEM for the elliptic pressure equation.

The pressure solve -div(kappa(theta) grad p) = g uses continuous bilinears on
the primal mesh.  The mobility-weighted permeability kappa is evaluated once
per concentration, at all 28 points per element of the mesh's one point set
(`fields.POINT_LOCAL`): the quadrature points and the edge and sub-segment
points the flux recovery needs, with the concentration clamped to [0, 1]
first, so transient over/undershoots cannot push the coefficient out of its
physical range.  It is evaluated one block of whole element rows at a
time, and the concentration's `ElementKernel` holds the element stiffness
and kappa at the 12 recovery points only, one (ne, 12) array.  The system
lies on the mesh's stencil pattern (`linalg.stencil`): the Dirichlet values
are lifted into the right-hand side, and then the Dirichlet rows become
unit rows and the Dirichlet columns zero.  The system stays symmetric, its
free block SPD, and its solution is zero on the Dirichlet vertices, where
the values are written after the solve.

The system is solved by CG preconditioned by a geometric multigrid V-cycle
(`linalg.solve` with the mesh's transfers).  The levels follow from the
mesh: it is halved while nx and ny are both even and the coarse mesh keeps
at least `MIN_COARSE_CELLS` cells per direction, and the coarsest level is
solved directly.

What depends on the mesh alone is built once per mesh, on first use, and
shared by every problem on it (the reference and the assimilated run of a
twin experiment): the stencil and the multigrid transfers
(`multigrid_transfers`).  kappa is evaluated at the blocks of element rows of
the point set that `fields.kernel_point_blocks` owns, read-only broadcast
views of the per-column and per-row tables behind
`fields.quadrature(mesh).points`; a raster lookup blends the raster at
those compact tables on every solve and keeps nothing.  What depends on the
problem's time-independent data is built once per problem, over the same
blocks: the source's load vector, its control-volume integrals and the
source term of the flux recovery's local systems.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import sparse

from . import linalg
from .fields import (POINT_LOCAL, NodalField, basis_values,
                     kernel_point_blocks, quadrature)
from .observation import bilinear_prolongation

MIN_COARSE_CELLS = 8


class CoefficientRangeError(ValueError):
    """Permeability evaluated to a non-positive value."""


def multigrid_transfers(mesh):
    """2:1 bilinear prolongations between nested lattices, finest first.

    Each is the whole-lattice prolongation without the entries of fixed rows
    and columns (a coarse vertex is fixed when the fine vertex under it is)
    but for the injection of each fixed coarse vertex into the fixed fine
    vertex on it, so a Galerkin level P^T A P keeps A's unit Dirichlet rows
    and zero Dirichlet columns, and its free block is the free blocks'
    Galerkin product.  Returns a list of (P, P^T) pairs in CSR.  Every level
    keeps a Dirichlet vertex when the mesh has one, because each Dirichlet
    boundary edge has an endpoint on the next coarser lattice.  Built once
    per mesh.
    """
    return mesh.constant("multigrid_transfers", _build_transfers)


def _build_transfers(mesh):
    nx, ny = mesh.nx, mesh.ny
    fixed = mesh.is_dirichlet
    transfers = []
    while nx % 2 == 0 and ny % 2 == 0 and min(nx, ny) // 2 >= MIN_COARSE_CELLS:
        coarse_fixed = fixed.reshape(ny + 1, nx + 1)[::2, ::2].ravel()
        P = bilinear_prolongation(nx, ny, 2, 2)
        row = np.repeat(np.arange(P.shape[0]), np.diff(P.indptr))
        # A fine vertex on a coarse one has weight 1 there and 0 elsewhere.
        P.data *= np.where(fixed[row], P.data == 1.0, ~coarse_fixed[P.indices])
        P.eliminate_zeros()
        transfers.append((P, P.T.tocsr()))
        fixed, nx, ny = coarse_fixed, nx // 2, ny // 2
    if not mesh.is_dirichlet.any():
        # All-Neumann: p, and every Galerkin level, is fixed only up to a
        # constant.  A last level without the first coarsest vertex keeps
        # the direct solve nonsingular.
        n = fixed.size
        pin = sparse.eye(n, n - 1, k=-1, format="csr")
        transfers.append((pin, pin.T.tocsr()))
    return transfers


# The basis at the 28 points of the element point set.
_KERNEL_PHI = basis_values(POINT_LOCAL[:, 0], POINT_LOCAL[:, 1])


@dataclass
class ElementKernel:
    """The per-element coefficient data of one pressure solve and its flux
    recovery, for one concentration: the element stiffness matrices (from
    kappa at the 16 quadrature points), and kappa at the 12 recovery points
    only, one (ne, 12) array whose column blocks are the 8 edge quarter
    points (`kappa_edge`) and the 4 sub-segment midpoints (`kappa_seg`).
    kappa at the quadrature points is not kept."""

    theta: np.ndarray             # nodal concentration it was built from
    kappa_recovery: np.ndarray    # (ne, 12), at POINT_LOCAL[16:]
    stiffness: np.ndarray         # (ne, 4, 4)

    @property
    def kappa_edge(self):
        """(ne, 8), at mesh.EDGE_QP_LOCAL."""
        return self.kappa_recovery[:, :8]

    @property
    def kappa_seg(self):
        """(ne, 4), at mesh.SEG_LOCAL_MID."""
        return self.kappa_recovery[:, 8:]


@dataclass
class PressureProblem:
    """Pressure equation data.  Run constants are built once from g, which
    is time-independent, by the package quadrature: its FEM load vector into
    `load`, its control-volume integrals into `cv_source` (nv,), and the
    source term of the flux recovery's local systems into `flux_source`
    (ne, 4), each corner quadrant's integral of g minus the element integral
    of g times that corner's basis function.  g is evaluated one block of
    `kernel_point_blocks` at a time into one (ne, 16) array of weighted
    values, and each block is added into `cv_source` by `np.add.at`, point
    by point in element order; the load is one product of that array with
    the basis and one `np.bincount`.  `transfers` is the mesh's
    multigrid hierarchy, shared with every other problem on the mesh.  The
    element kernel of the latest concentration is kept for the flux recovery
    that follows the solve (`element_kernel`)."""

    mesh: object
    kappa: object                  # callable(theta, x, y) -> permeability
    source: object                 # callable(x, y) -> g
    dirichlet: object = 0.0        # callable(x, y) -> p on Gamma_D, or a constant
    solver: linalg.SolverConfig = dc_field(default_factory=linalg.SolverConfig)
    load: np.ndarray = dc_field(init=False, repr=False)
    cv_source: np.ndarray = dc_field(init=False, repr=False)
    flux_source: np.ndarray = dc_field(init=False, repr=False)
    transfers: list = dc_field(init=False, repr=False)
    kernel: ElementKernel | None = dc_field(default=None, init=False,
                                            repr=False, compare=False)

    def __post_init__(self):
        mesh = self.mesh
        quad = quadrature(mesh)
        wg = np.empty((mesh.n_elements, 16))
        self.cv_source = np.zeros(mesh.n_vertices)
        for lo, hi, x, y in kernel_point_blocks(mesh):
            g = np.asarray(self.source(x[..., :16], y[..., :16]), dtype=float)
            np.multiply(quad.weight, g, out=wg[lo:hi].reshape(x[..., :16].shape))
            np.add.at(self.cv_source,
                      mesh.elements[lo:hi, quad.owner_corner].ravel(),
                      wg[lo:hi].ravel())
        element_load = wg @ quad.phi                              # (ne, 4)
        self.load = np.bincount(mesh.elements.ravel(),
                                weights=element_load.ravel(),
                                minlength=mesh.n_vertices)
        self.flux_source = wg.reshape(mesh.n_elements, 4, 4).sum(axis=2)
        self.flux_source -= element_load
        self.transfers = multigrid_transfers(mesh)

    def dirichlet_values(self, vids):
        x, y = self.mesh.vertices[vids, 0], self.mesh.vertices[vids, 1]
        if callable(self.dirichlet):
            return np.asarray(self.dirichlet(x, y), dtype=float) * np.ones(len(vids))
        return np.full(len(vids), float(self.dirichlet))


def element_kernel(problem, theta):
    """The ElementKernel of `problem` at concentration `theta`.

    kappa is evaluated at the mesh's point set (all 28 points per element),
    one block of `kernel_point_blocks` at a time, with the concentration
    clamped to [0, 1] first and shaped like the block's points, and kappa
    reshaped to one row per element.  Each block must be positive and
    finite at every point before its quadrature columns enter the block's
    stiffness rows; its recovery columns are kept, the rest is dropped with
    the block.  The kernel is kept on the problem, so the flux recovery at
    the same concentration reuses it.
    """
    kernel = problem.kernel
    if kernel is not None and np.array_equal(kernel.theta, theta.values):
        return kernel
    mesh = problem.mesh
    quad = quadrature(mesh)
    corners = theta.corner_values()
    grad_dot = np.einsum("pad,pbd->pab", quad.dphi, quad.dphi).reshape(16, 16)
    stiffness = np.empty((mesh.n_elements, 16))
    kappa_recovery = np.empty((mesh.n_elements, 12))
    for lo, hi, x, y in kernel_point_blocks(mesh):
        th = (corners[lo:hi] @ _KERNEL_PHI.T).reshape(x.shape)
        np.clip(th, 0.0, 1.0, out=th)
        # An overflow or a NaN in kappa is reported by the range check
        # below, not as a floating-point warning.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            k = np.asarray(problem.kappa(th, x, y), dtype=float)
        # A kappa that broadcasts, a constant say, is made whole, so the
        # stiffness product reads every block in one layout.
        if k.shape != th.shape or not k.flags.c_contiguous:
            k = np.broadcast_to(k, th.shape).copy()
        k = k.reshape(-1, len(POINT_LOCAL))
        bad = ~(np.isfinite(k) & (k > 0.0))
        if np.any(bad):
            raise CoefficientRangeError(
                f"kappa must be positive and finite, found {float(k[bad][0])}")
        np.matmul(k[:, :16], grad_dot, out=stiffness[lo:hi])
        stiffness[lo:hi] *= quad.weight
        kappa_recovery[lo:hi] = k[:, 16:]
    kernel = ElementKernel(theta.values.copy(), kappa_recovery,
                           stiffness.reshape(-1, 4, 4))
    problem.kernel = kernel
    return kernel


def assemble_pressure(problem, theta):
    """The homogeneous system on the mesh's stencil pattern, (matrix, rhs).

    The element stiffness (`element_kernel`) is summed into the pattern's
    data, which becomes the matrix's.  Dirichlet data g is lifted into the
    rhs by one product, load - A g; then, in place, A's Dirichlet rows
    become unit rows and its Dirichlet columns zero, and the rhs is zero in
    the Dirichlet rows.  On the free vertices this is the SPD free block and
    the lifted load; the solution is zero on the Dirichlet vertices.
    """
    mesh = problem.mesh
    kernel = element_kernel(problem, theta)
    pattern = linalg.stencil(mesh)
    data = pattern.sum_blocks(kernel.stiffness)
    A = pattern.matrix(data)
    rhs = problem.load.copy()
    fixed = mesh.dirichlet_vertices
    if fixed.size:
        lift = np.zeros(mesh.n_vertices)
        lift[fixed] = problem.dirichlet_values(fixed)
        rhs -= A @ lift
        rhs[fixed] = 0.0
        data[pattern.dirichlet_entries] = 0.0
        data[pattern.dirichlet_columns] = 0.0
        data[pattern.diagonal_slots[fixed]] = 1.0
    return A, rhs


def solve_pressure(problem, theta, x0=None):
    """Solve for the pressure field; returns (NodalField, SolveReport).

    CG solves `assemble_pressure`'s homogeneous system from `x0` zeroed on
    the Dirichlet vertices, which then take exactly the prescribed values.
    """
    mesh = problem.mesh
    A, b = assemble_pressure(problem, theta)
    fixed = mesh.dirichlet_vertices
    guess = None if x0 is None else np.where(mesh.is_dirichlet, 0.0, x0)
    x, report = linalg.solve(A, b, problem.solver, x0=guess,
                             transfers=problem.transfers,
                             constant_nullspace=not fixed.size)
    x[fixed] = problem.dirichlet_values(fixed)
    return NodalField(mesh, x), report
