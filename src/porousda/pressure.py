"""Bilinear FEM for the elliptic pressure equation.

The pressure solve -div(kappa(theta) grad p) = g uses continuous bilinears on
the primal mesh.  The mobility-weighted permeability kappa is evaluated by
`kappa_blocks`, one block of whole element rows at a time, with the
concentration clamped to [0, 1] first, so transient over/undershoots cannot
push the coefficient out of its physical range: here at the 16 quadrature
points, and by the flux recovery at its other 12 points.  The
concentration's `ElementKernel` holds only the element stiffness, each
symmetric block by its 10 distinct entries, one (ne, 10) array.  The system
lies on the mesh's stencil pattern (`linalg.stencil`): the Dirichlet values
are lifted into the right-hand side, and then the Dirichlet rows become
unit rows and the Dirichlet columns zero.  The system stays symmetric, its
free block SPD, and its solution is zero on the Dirichlet vertices, where
the values are written after the solve.

The system is solved by CG preconditioned by a geometric multigrid V-cycle
(`linalg.solve` with the problem's `hierarchy`).  The levels follow from
the mesh: its lattice is halved while nx and ny are both even and the
coarse lattice keeps at least `MIN_COARSE_CELLS` cells per direction, and
the coarsest level is solved directly.  The hierarchy holds only the
lattices' sizes and their fixed vertices, strided views of the mesh's
Dirichlet mask (`multigrid_hierarchy`), with the index lists of those
vertices and of their entries once a solve has read them: the transfers
are applied by slices of the value grids and the coarse operators summed
in stencil form on every solve (`linalg.multigrid_cycle`), so nothing
mesh-sized is kept.

What depends on the mesh alone is built once per mesh, on first use, and
shared by every problem on it (the reference and the assimilated run of a
twin experiment): the stencil.  kappa is evaluated at the blocks of
element rows of the point set that `fields.kernel_point_blocks` owns,
read-only broadcast views of the per-column and per-row tables behind
`fields.quadrature(mesh).points`; a raster lookup blends the raster at
those compact tables on every solve and keeps nothing.  What depends on the
problem's time-independent data is built once per problem, over the same
blocks: the source's load vector, its control-volume integrals and the
source term of the flux recovery's local systems.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .fields import (POINT_LOCAL, NodalField, basis_values,
                     kernel_point_blocks, quadrature)

MIN_COARSE_CELLS = 8


class CoefficientRangeError(ValueError):
    """Permeability evaluated to a non-positive value."""


def multigrid_hierarchy(mesh):
    """The lattices of the pressure V-cycle (`linalg.Lattice`), the mesh's
    first: halved while nx and ny are both even and the coarse lattice
    keeps at least `MIN_COARSE_CELLS` cells per direction, and empty when
    the mesh does not halve.  A coarse vertex is fixed when the fine vertex
    under it is, so each level's `fixed` is a strided view of
    `mesh.is_dirichlet`, and the only arrays a level makes are the index
    lists of its fixed vertices and of their entries
    (`Lattice.fixed_vertices` and `.fixed_slots`).  Every
    level keeps a Dirichlet vertex when the mesh has one, because each
    Dirichlet boundary edge has an endpoint on the next coarser lattice."""
    nx, ny = mesh.nx, mesh.ny
    fixed = mesh.is_dirichlet.reshape(ny + 1, nx + 1)
    levels = [linalg.Lattice(nx, ny, fixed)]
    while nx % 2 == 0 and ny % 2 == 0 and min(nx, ny) // 2 >= MIN_COARSE_CELLS:
        nx, ny, fixed = nx // 2, ny // 2, fixed[::2, ::2]
        levels.append(linalg.Lattice(nx, ny, fixed))
    return levels if len(levels) > 1 else []


# The basis at the 28 points of the element point set (`POINT_LOCAL`), and
# the columns where the stiffness and the flux recovery read kappa.
_KERNEL_PHI = basis_values(POINT_LOCAL[:, 0], POINT_LOCAL[:, 1])
QUADRATURE_POINTS, RECOVERY_POINTS = slice(0, 16), slice(16, 28)

# A symmetric element block is kept by its 10 upper-triangle entries, row by
# row; BLOCK_ENTRIES[a, b] is the column that holds entry (a, b).
_UPPER = np.triu_indices(4)
BLOCK_ENTRIES = np.empty((4, 4), dtype=np.intp)
BLOCK_ENTRIES[_UPPER] = BLOCK_ENTRIES[_UPPER[::-1]] = np.arange(10)


def kappa_blocks(problem, theta, points):
    """Yields (lo, hi, kappa) for each block of `kernel_point_blocks`:
    kappa (hi - lo, k) at the columns `points` of the point set, at the
    block's own corner values of theta, interpolated and clamped to [0, 1].
    A value that is not positive and finite raises CoefficientRangeError."""
    mesh = problem.mesh
    phi = _KERNEL_PHI[points].T
    for lo, hi, x, y in kernel_point_blocks(mesh):
        x, y = x[..., points], y[..., points]
        th = (theta.corner_values(lo, hi) @ phi).reshape(x.shape)
        np.clip(th, 0.0, 1.0, out=th)
        # An overflow or a NaN in kappa is reported by the range check
        # below, not as a floating-point warning.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            k = np.asarray(problem.kappa(th, x, y), dtype=float)
        # A kappa that broadcasts, a constant say, is made whole, so every
        # block is read in one layout.
        if k.shape != th.shape or not k.flags.c_contiguous:
            k = np.broadcast_to(k, th.shape).copy()
        k = k.reshape(hi - lo, -1)
        bad = ~(np.isfinite(k) & (k > 0.0))
        if np.any(bad):
            raise CoefficientRangeError(
                f"kappa must be positive and finite, found {float(k[bad][0])}")
        yield lo, hi, k


@dataclass
class ElementKernel:
    """The element stiffness matrices of one concentration, each kept by
    its 10 distinct entries (`BLOCK_ENTRIES`).  No kappa is kept; the flux
    recovery evaluates its own (`kappa_blocks`)."""

    theta: np.ndarray             # nodal concentration it was built from
    stiffness: np.ndarray         # (ne, 10)


@dataclass
class PressureProblem:
    """Pressure equation data.  Run constants are built once from g, which
    is time-independent, by the package quadrature: its FEM load vector into
    `load`, its control-volume integrals into `cv_source` (nv,), and the
    source term of the flux recovery's local systems into `flux_source`
    (ne, 4), each corner quadrant's integral of g minus the element integral
    of g times that corner's basis function.  All three are built one block
    of `kernel_point_blocks` at a time, from that block's (rows * nx, 16)
    weighted values of g: added into `cv_source` by `np.add.at`, point by
    point in element order; multiplied with the basis by `np.einsum`, which
    calls no BLAS, into the block's element loads, added into `load` by
    `np.add.at` in element order as one `np.bincount` over the mesh would;
    and summed per quadrant into `flux_source[lo:hi]`.  So no (ne, 16)
    array is made; the blocks' products equal the whole array's einsum
    bitwise in the tests (numpy does not promise its summation order).
    `hierarchy` lists the lattices of the multigrid V-cycle
    (`multigrid_hierarchy`), which hold no mesh-sized array.  The
    stiffness of the latest concentration is kept for the flux recovery
    that follows the solve (`element_kernel`)."""

    mesh: object
    kappa: object                  # callable(theta, x, y) -> permeability
    source: object                 # callable(x, y) -> g
    dirichlet: object = 0.0        # callable(x, y) -> p on Gamma_D, or a constant
    solver: linalg.SolverConfig = dc_field(default_factory=linalg.SolverConfig)
    load: np.ndarray = dc_field(init=False, repr=False)
    cv_source: np.ndarray = dc_field(init=False, repr=False)
    flux_source: np.ndarray = dc_field(init=False, repr=False)
    hierarchy: list = dc_field(init=False, repr=False)
    kernel: ElementKernel | None = dc_field(default=None, init=False,
                                            repr=False, compare=False)

    def __post_init__(self):
        mesh = self.mesh
        quad = quadrature(mesh)
        self.load = np.zeros(mesh.n_vertices)
        self.cv_source = np.zeros(mesh.n_vertices)
        self.flux_source = np.empty((mesh.n_elements, 4))
        for lo, hi, x, y in kernel_point_blocks(mesh):
            g = np.asarray(self.source(x[..., :16], y[..., :16]), dtype=float)
            wg = np.empty((hi - lo, 16))
            np.multiply(quad.weight, g, out=wg.reshape(x[..., :16].shape))
            corners = mesh.element_corners(lo, hi)
            np.add.at(self.cv_source, corners[:, quad.owner_corner].ravel(),
                      wg.ravel())
            element_load = np.einsum("ek,ka->ea", wg, quad.phi)
            np.add.at(self.load, corners.ravel(), element_load.ravel())
            flux = self.flux_source[lo:hi]
            np.sum(wg.reshape(-1, 4, 4), axis=2, out=flux)
            flux -= element_load
        self.hierarchy = multigrid_hierarchy(mesh)

    def dirichlet_values(self, vids):
        x, y = self.mesh.vertices[vids, 0], self.mesh.vertices[vids, 1]
        if callable(self.dirichlet):
            return np.asarray(self.dirichlet(x, y), dtype=float) * np.ones(len(vids))
        return np.full(len(vids), float(self.dirichlet))


def element_kernel(problem, theta):
    """The ElementKernel of `problem` at concentration `theta`.

    Each block's whole stiffness is one product of kappa at its quadrature
    points with the basis gradients, of which the upper triangle is kept;
    the blocks are symmetric bitwise.  The kernel is kept on the problem,
    so the flux recovery at the same concentration reuses it.
    """
    kernel = problem.kernel
    if kernel is not None and np.array_equal(kernel.theta, theta.values):
        return kernel
    mesh = problem.mesh
    quad = quadrature(mesh)
    grad_dot = np.einsum("pad,pbd->pab", quad.dphi, quad.dphi).reshape(16, 16)
    upper = np.ravel_multi_index(_UPPER, (4, 4))
    stiffness = np.empty((mesh.n_elements, 10))
    for lo, hi, k in kappa_blocks(problem, theta, QUADRATURE_POINTS):
        np.take(k @ grad_dot, upper, axis=1, out=stiffness[lo:hi])
        stiffness[lo:hi] *= quad.weight
    kernel = ElementKernel(theta.values.copy(), stiffness)
    problem.kernel = kernel
    return kernel


def assemble_pressure(problem, theta):
    """The homogeneous system on the mesh's stencil pattern, (matrix, rhs).

    The element stiffness (`element_kernel`) is summed into the pattern's
    data, expanded to whole blocks a block of rows at a time, and becomes
    the matrix's.  Dirichlet data g is lifted into the rhs by one product,
    load - A g; then, in place, A's Dirichlet rows become unit rows and its
    Dirichlet columns zero, and the rhs is zero in the Dirichlet rows.  On
    the free vertices this is the SPD free block and the lifted load; the
    solution is zero on the Dirichlet vertices.
    """
    mesh = problem.mesh
    kernel = element_kernel(problem, theta)
    pattern = linalg.stencil(mesh)
    data = pattern.sum_blocks(kernel.stiffness, BLOCK_ENTRIES)
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
        data[pattern.dirichlet_diagonal] = 1.0
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
                             hierarchy=problem.hierarchy,
                             constant_nullspace=not fixed.size)
    x[fixed] = problem.dirichlet_values(fixed)
    return NodalField(mesh, x), report
