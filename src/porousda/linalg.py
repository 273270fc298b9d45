"""Sparse assembly and iterative solvers.

Storage is scipy CSR.  Square operators on a mesh's vertices live on one
fixed sparsity pattern, the 9-point vertex graph, owned by `stencil(mesh)`:
each operator is reduced to an element-local 4x4 block first and scattered
into the pattern one block of element rows at a time by `np.add.at`, which
sums each entry's contributions (one per element sharing it) in element
order, as one `np.bincount` over the whole mesh would.  That order is
fixed, so assembly is deterministic; it is not value-sorted.  The pattern
keeps its slots in int32.  `assemble` turns an unordered
contribution stream into a canonical matrix of any shape, summing duplicate
(row, col) entries in value-sorted order, so its result is bitwise
independent of the stream order; it serves the tests as the reference.

Both linear systems of a coarse interval lie on that pattern, with unit
Dirichlet rows, and go through `solve`, which wraps scipy's Krylov methods.
The symmetric pressure system, which comes with a multigrid hierarchy and
whose Dirichlet columns are zero too, is solved by CG preconditioned by a
symmetric V-cycle over that hierarchy; the nonsymmetric transport step,
which comes without one, by Jacobi-BiCGStab.  Both stop when
||b - A x|| < max(rel_tol * ||b||, ABS_TOL), with rel_tol from the one
`SolverConfig` of a run and the module constant ABS_TOL = 1e-14.  The transport step may instead solve by
a sparse LU factor that it keeps for a coarse interval
(`transport.StepFactor`), chosen for its cost or made after a BiCGStab
breakdown; it checks each such solve against the same tolerances and marks
its report `factored`.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, bicgstab, cg, splu

from . import fields

# V-cycle smoother: z += _SMOOTH_SCALE * (r - A z) / l1, where l1 holds the
# absolute row sums of A, with this many sweeps both before and after the
# coarse correction, so the cycle stays symmetric.  On rows with nonpositive
# off-diagonal entries that sum to minus the diagonal (square elements) this
# is damped Jacobi with weight 0.8.  Any scale below 2 keeps the smoother
# convergent, and so the cycle positive definite, for every SPD matrix; plain
# weighted Jacobi diverges on stretched elements, where entries turn positive.
_SMOOTH_SCALE = 1.6
_SMOOTH_SWEEPS = 2
# The absolute floor of every solve's tolerance, whatever ||b||.
ABS_TOL = 1e-14

SparseMatrix = sparse.csr_matrix


class NoConvergenceError(RuntimeError):
    """Solver could not reach its tolerance (iteration cap, a BiCGStab
    breakdown, or a singular multigrid coarsest level); carries the best
    iterate seen, and whether the method broke down before its cap."""

    def __init__(self, message, best, report, breakdown=False):
        super().__init__(message)
        self.best = best
        self.report = report
        self.breakdown = breakdown


@dataclass
class SolverConfig:
    """Tolerances of both systems of a run; the absolute floor is ABS_TOL."""

    rel_tol: float = 1e-12
    max_iter: int | None = None   # default 10 * n

    def __post_init__(self):
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 0.0):
            raise ValueError(f"solver rel_tol must be finite and "
                             f"nonnegative, got {self.rel_tol!r}")
        if self.max_iter is not None and not (isinstance(
                self.max_iter, (int, np.integer)) and self.max_iter >= 1):
            raise ValueError(f"solver max_iter must be an integer of at "
                             f"least 1, got {self.max_iter!r}")


@dataclass
class SolveReport:
    """What one linear solve did.

    `iterations` is the number of Krylov iterations, counted by callback.
    scipy's `bicgstab` can stop at the half step of an iteration, when the
    intermediate residual s already meets the tolerance, without calling
    its callback; that iteration is not counted, so the count is then half
    an iteration short.  A solve by a sparse LU factor counts 0.
    """

    iterations: int
    residual: float
    converged: bool
    recovery: str | None = None   # "lu": a breakdown solved by a sparse LU factor
    factored: bool = False        # solved by a sparse LU factor


def assemble(rows, cols, values, shape):
    """Assemble a CSR matrix from a contribution stream, summing duplicates.

    The stream is sorted by (row, col, value) before reduction, so assembly is
    deterministic and independent of the order contributions arrive in.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    if not (rows.shape == cols.shape == values.shape):
        raise ValueError("rows, cols, values must have matching shapes")
    if rows.size == 0:
        return sparse.csr_matrix(shape)
    if rows.min() < 0 or rows.max() >= shape[0] or cols.min() < 0 or cols.max() >= shape[1]:
        raise IndexError("contribution index out of bounds")
    order = np.lexsort((values, cols, rows))
    r, c, v = rows[order], cols[order], values[order]
    first = np.empty(r.size, dtype=bool)
    first[0] = True
    first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    starts = np.flatnonzero(first)
    summed = np.add.reduceat(v, starts)
    return sparse.csr_matrix((summed, (r[starts], c[starts])), shape=shape)


class StencilPattern:
    """CSR pattern of a structured mesh's 9-point vertex graph.

    Row v holds v and its up to eight lattice neighbours in column order,
    which are exactly the vertices sharing an element with v.  `slots`
    (int32) maps every element-local entry (ne, 4, 4), rows and columns in
    element corner order, to its position in the CSR data,
    `diagonal_slots` (int32) each row's diagonal entry,
    `dirichlet_entries` (int32) every entry of a Dirichlet row and
    `dirichlet_columns` (int32) every entry of a Dirichlet column; all are
    built from index arithmetic on the lattice, without sorting.  `ranges`
    are the element ranges of the mesh's `fields.kernel_point_blocks`.
    """

    def __init__(self, mesh):
        nvx, nvy = mesh.nx + 1, mesh.ny + 1
        self.n = nvx * nvy
        i = np.tile(np.arange(nvx), nvy)
        j = np.repeat(np.arange(nvy), nvx)
        # Neighbour offsets in increasing column order: row below, same row,
        # row above, each from left to right.
        di = np.tile([-1, 0, 1], 3)
        dj = np.repeat([-1, 0, 1], 3)
        ii, jj = i[:, None] + di, j[:, None] + dj
        present = (ii >= 0) & (ii < nvx) & (jj >= 0) & (jj < nvy)
        self.indptr = np.zeros(self.n + 1, dtype=np.int32)
        np.cumsum(present.sum(axis=1), out=self.indptr[1:])
        self.indices = (jj * nvx + ii)[present].astype(np.int32)
        self.nnz = self.indices.size
        position = (self.indptr[:-1, None]
                    + np.cumsum(present, axis=1, dtype=np.int32))
        position -= 1
        # A copy, so that `position` goes once the slots are built.
        self.diagonal_slots = position[:, 4].copy()
        # Corners SW, SE, NW, NE sit at lattice offsets (0|1, 0|1); the entry
        # (a, b) is the neighbour of corner a at offset b - a.
        cx = np.array([0, 1, 0, 1])
        cy = np.array([0, 0, 1, 1])
        offset = (cy - cy[:, None] + 1) * 3 + (cx - cx[:, None] + 1)
        self.slots = position[mesh.elements[:, :, None], offset].ravel()
        self.dirichlet_entries = np.flatnonzero(np.repeat(
            mesh.is_dirichlet, np.diff(self.indptr))).astype(np.int32)
        self.dirichlet_columns = np.flatnonzero(
            mesh.is_dirichlet[self.indices]).astype(np.int32)
        self.ranges = [b[:2] for b in fields.kernel_point_blocks(mesh)]
        self.indices.flags.writeable = self.indptr.flags.writeable = False

    def matrix(self, data):
        """The CSR matrix with these values on the pattern.  It shares the
        pattern's read-only index arrays, so scipy raises on an in-place
        change of its structure, such as eliminate_zeros."""
        return sparse.csr_matrix((data, self.indices, self.indptr),
                                 shape=(self.n, self.n))

    def sum_blocks(self, local):
        """Element-local blocks (ne, 4, 4) summed into the pattern's data,
        each entry's contributions added in element order: one block of
        element rows at a time by `np.add.at`, which adds as one
        `np.bincount` over the whole mesh would, without casting all the
        int32 slots to intp at once."""
        local = np.reshape(local, (-1, 16))
        data = np.zeros(self.nnz)
        for lo, hi in self.ranges:
            np.add.at(data, self.slots[16 * lo:16 * hi], local[lo:hi].ravel())
        return data


def stencil(mesh):
    """The stencil pattern of a mesh, built once per mesh."""
    return mesh.constant("stencil", StencilPattern)


class CoupledOperator:
    """matrix @ x + coupling(x, scale), a CSR matrix plus a term applied from
    its factors: a nudged transport step's S.  scipy reads its `matvec`."""

    def __init__(self, matrix, scale, coupling):
        self.matrix, self.scale, self.coupling = matrix, scale, coupling
        self.shape, self.dtype = matrix.shape, matrix.dtype

    def __matmul__(self, x):
        return self.matrix @ x + self.coupling(x, self.scale)

    matvec = __matmul__

    def diagonal(self):
        return self.matrix.diagonal() + self.scale * self.coupling.diagonal


def _jacobi_inverse(A):
    d = A.diagonal().copy()
    d[d == 0.0] = 1.0
    return 1.0 / d


def _abs_row_sums(A):
    """The absolute row sums of a CSR matrix, each row's abs(A.data) added
    in storage order as `abs(A).sum(axis=1)` adds them, without copying
    the matrix."""
    rows = np.flatnonzero(np.diff(A.indptr))
    l1 = np.zeros(A.shape[0])
    l1[rows] = np.add.reduceat(np.abs(A.data), A.indptr[rows])
    return l1


def _v_cycle(levels, coarse_solve, r, k=0):
    """One symmetric V-cycle from a zero guess: z ~ A_k^-1 r.

    levels[k] is (A_k, smoother scale over the l1 row sums of A_k, P_k,
    P_k^T); below the last level the system is solved directly.  Equal pre-
    and post-sweeps make the cycle symmetric positive definite.
    """
    if k == len(levels):
        return coarse_solve(r)
    A, smooth, P, R = levels[k]
    z = smooth * r
    for _ in range(_SMOOTH_SWEEPS - 1):
        z += smooth * (r - A @ z)
    z += P @ _v_cycle(levels, coarse_solve, R @ (r - A @ z), k + 1)
    for _ in range(_SMOOTH_SWEEPS):
        z += smooth * (r - A @ z)
    return z


def _project_constants_out(cycle, r):
    """z = P M P r, with M the cycle and P removing the mean of a vector."""
    z = cycle(r - r.mean())
    return z - z.mean()


def multigrid_cycle(A, transfers, constant_nullspace=False):
    """The V-cycle r -> z ~ A^-1 r for SPD A over nested prolongations.

    `transfers` lists (P, P^T) pairs from the finest level down; the coarse
    operators are the Galerkin products P^T A P, and the coarsest one is
    factored with SuperLU.  An empty list makes the cycle an exact solve.
    A singular coarsest operator raises `RuntimeError` from SuperLU.  Row
    sums that underflow (a subnormal kappa, say) make the smoother scale
    infinite without a warning; the coarsest operator is then singular.
    When A is only semidefinite with the constants as its null space
    (`constant_nullspace`), constants are projected out of the cycle's input
    and output; otherwise the cycle feeds constant components into the
    search directions, and CG stalls once the residual reaches them.
    """
    levels = []
    for P, R in transfers:
        l1 = _abs_row_sums(A)
        with np.errstate(divide="ignore", over="ignore"):
            levels.append((A, _SMOOTH_SCALE / l1, P, R))
        A = (R @ A @ P).tocsr()
    cycle = partial(_v_cycle, levels, splu(A.tocsc()).solve)
    if constant_nullspace:
        return partial(_project_constants_out, cycle)
    return cycle


def _krylov(method, A, b, x0, config, M):
    """Run a scipy Krylov `method`; returns (x, SolveReport).

    Iterations are counted by callback, so the last half iteration of a
    BiCGStab solve that stops at a half step is not counted (see
    `SolveReport`); the report carries the true residual.  scipy's info > 0 is the iteration cap and info < 0 a
    breakdown (a vanishing inner product), which the transport step gets
    past by a direct solve; either raises `NoConvergenceError`.
    """
    count = [0]

    def counted(_xk):
        count[0] += 1

    maxiter = config.max_iter if config.max_iter is not None else 10 * b.size
    x, info = method(A, b, x0=x0, rtol=config.rel_tol, atol=ABS_TOL,
                     maxiter=maxiter, M=M, callback=counted)
    residual = float(np.linalg.norm(b - A @ x))
    report = SolveReport(count[0], residual, info == 0)
    if info != 0:
        raise NoConvergenceError(
            f"{method.__name__} failed after {count[0]} iterations "
            f"(residual {residual:.3e}, info={info})", x, report,
            breakdown=info < 0)
    return x, report


def solve(A, b, config=None, x0=None, transfers=None, constant_nullspace=False):
    """Solve A x = b to the config's tolerances; returns (x, SolveReport).

    With `transfers`, the prolongation hierarchy of `multigrid_cycle`
    (which also takes `constant_nullspace`), A is SPD and is solved by CG
    preconditioned by the V-cycle; an empty hierarchy makes the cycle an
    exact solve.  Without one, A (CSR or a `CoupledOperator`) is solved by
    Jacobi-BiCGStab.  A system with a non-finite entry comes back at once
    as a NaN solution with `converged` False: no iteration can fix it, and
    iterating to the cap would only take time.
    """
    config = config or SolverConfig()
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"matrix shape {A.shape} does not match rhs length {n}")
    if n == 0:
        return np.zeros(0), SolveReport(0, 0.0, True)
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(getattr(A, "matrix", A).data))):
        return np.full(n, np.nan), SolveReport(0, float("nan"), False)
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if transfers is None:
        return _krylov(bicgstab, A, b, x0, config,
                       sparse.diags(_jacobi_inverse(A)))
    try:
        cycle = multigrid_cycle(A, transfers, constant_nullspace)
    except RuntimeError as exc:   # SuperLU: singular coarsest operator
        residual = float(np.linalg.norm(b - A @ x0))
        raise NoConvergenceError(
            f"cg multigrid coarsest level is singular ({exc})", x0,
            SolveReport(0, residual, False)) from exc
    return _krylov(cg, A, b, x0, config,
                   LinearOperator(A.shape, matvec=cycle, dtype=float))
