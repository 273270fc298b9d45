"""Bilinear FEM for the elliptic pressure equation.

The pressure solve -div(kappa(theta) grad p) = g uses continuous bilinears on
the primal mesh.  The mobility-weighted permeability kappa is evaluated once
per concentration, at all 28 points per element of the mesh's one point set
(`fields.POINT_LOCAL`): the quadrature points and the edge and sub-segment
points the flux recovery needs, with the concentration clamped to [0, 1]
first, so transient over/undershoots cannot push the coefficient out of its
physical range.  It is evaluated one block of whole element rows at a
time, and the concentration's `ElementKernel` holds the element stiffness
and kappa at the 12 recovery points only, one (ne, 12) array.  Dirichlet
values are imposed by row/column elimination with the symmetric
right-hand-side correction, which keeps the free block SPD.

The free block is solved by CG preconditioned by a geometric multigrid
V-cycle (`linalg.solve` with the mesh's transfers).  The levels follow from
the mesh: it is halved while nx and ny are both even and the coarse mesh
keeps at least `MIN_COARSE_CELLS` cells per direction, and the coarsest
level is solved directly.

What depends on the mesh alone is built once per mesh, on first use, and
shared by every problem on it (the reference and the assimilated run of a
twin experiment): the multigrid transfers (`multigrid_transfers`) and the
gathers that take the free block and the Dirichlet block from the stiffness
(`pressure_blocks`).  kappa is evaluated at the blocks of element rows of
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

    Each is restricted to the free vertices of both levels (a coarse vertex
    is free when the fine vertex under it is), with explicit zeros dropped;
    returns a list of (P, P^T) pairs in CSR.  Every level keeps a Dirichlet
    vertex when the mesh has one, because each Dirichlet boundary edge has an
    endpoint on the next coarser lattice.  Built once per mesh.
    """
    return mesh.constant("multigrid_transfers", _build_transfers)


def _build_transfers(mesh):
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
        for lo, x, y in kernel_point_blocks(mesh):
            hi = lo + x.shape[0] * x.shape[1]
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
    for lo, x, y in kernel_point_blocks(mesh):
        rows = slice(lo, lo + x.shape[0] * x.shape[1])
        th = (corners[rows] @ _KERNEL_PHI.T).reshape(x.shape)
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
        np.matmul(k[:, :16], grad_dot, out=stiffness[rows])
        stiffness[rows] *= quad.weight
        kappa_recovery[rows] = k[:, 16:]
    kernel = ElementKernel(theta.values.copy(), kappa_recovery,
                           stiffness.reshape(-1, 4, 4))
    problem.kernel = kernel
    return kernel


class BlockGather:
    """The block of a stencil-pattern matrix in the free rows and the
    columns `cols` (a boolean mask over vertices), as a gather of the
    matrix's CSR data at fixed positions.

    The block keeps each row's entries in the pattern's column order, so it
    equals the sliced `A[free][:, cols]` entry for entry.  Every block it
    makes shares its read-only int32 `indices` and `indptr`.
    """

    def __init__(self, mesh, cols):
        pattern = linalg.stencil(mesh)
        free = ~mesh.is_dirichlet
        row = np.repeat(np.arange(pattern.n), np.diff(pattern.indptr))
        take = free[row] & cols[pattern.indices]
        self.positions = np.flatnonzero(take).astype(np.int32)
        renumber = np.cumsum(cols) - 1           # vertex -> column in block
        self.indices = renumber[pattern.indices[take]].astype(np.int32)
        counts = np.bincount(row[take], minlength=pattern.n)[free]
        self.indptr = np.zeros(counts.size + 1, dtype=np.int32)
        np.cumsum(counts, out=self.indptr[1:])
        self.shape = (counts.size, int(np.count_nonzero(cols)))
        # scipy raises on an in-place change of a block's pattern, such as
        # eliminate_zeros, instead of corrupting the next block.
        self.indices.flags.writeable = self.indptr.flags.writeable = False

    def matrix(self, data):
        """The block of the stencil matrix with CSR data `data`."""
        return sparse.csr_matrix((data[self.positions], self.indices,
                                  self.indptr), shape=self.shape)


def _build_blocks(mesh):
    return BlockGather(mesh, ~mesh.is_dirichlet), BlockGather(mesh, mesh.is_dirichlet)


def pressure_blocks(mesh):
    """The gathers of the free block and of the free-rows, Dirichlet-columns
    block, built once per mesh."""
    return mesh.constant("pressure_blocks", _build_blocks)


def assemble_pressure(problem, theta):
    """Assemble the free-vertex system; returns (matrix, rhs).

    The element stiffness comes from `element_kernel` and is summed into
    the data of the mesh's stencil pattern, from which the free block and the
    Dirichlet block are gathered (`pressure_blocks`).  Nonhomogeneous
    Dirichlet data is lifted into the right-hand side, so the returned
    matrix is the SPD free block and the rhs already carries the boundary
    contribution.
    """
    mesh = problem.mesh
    kernel = element_kernel(problem, theta)
    data = linalg.stencil(mesh).sum_blocks(kernel.stiffness)
    free_block, dirichlet_block = pressure_blocks(mesh)

    fixed = np.flatnonzero(mesh.is_dirichlet)
    rhs = problem.load[mesh.free_vertices]
    if fixed.size:
        p_d = problem.dirichlet_values(fixed)
        rhs = rhs - dirichlet_block.matrix(data) @ p_d
    return free_block.matrix(data), rhs


def solve_pressure(problem, theta, x0=None):
    """Solve for the pressure field; returns (NodalField, SolveReport).

    Dirichlet vertices carry exactly the prescribed values.
    """
    mesh = problem.mesh
    A, b = assemble_pressure(problem, theta)
    free = mesh.free_vertices
    guess = None if x0 is None else np.asarray(x0, dtype=float)[free]
    x, report = linalg.solve(A, b, problem.solver, x0=guess,
                             transfers=problem.transfers,
                             constant_nullspace=not mesh.is_dirichlet.any())
    values = np.zeros(mesh.n_vertices)
    values[free] = x
    fixed = np.flatnonzero(mesh.is_dirichlet)
    if fixed.size:
        values[fixed] = problem.dirichlet_values(fixed)
    return NodalField(mesh, values), report
