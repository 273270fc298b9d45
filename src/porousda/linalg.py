"""Sparse assembly and iterative solvers.

Storage is scipy CSR.  Square operators on a mesh's vertices live on one
fixed sparsity pattern, the 9-point vertex graph, owned by `stencil(mesh)`:
each operator is reduced to an element-local 4x4 block first and scattered
into the pattern one block of element rows at a time by `np.add.at`, which
sums each entry's contributions (one per element sharing it) in element
order, as one `np.bincount` over the whole mesh would.  That order is
fixed, so assembly is deterministic; it is not value-sorted.  The pattern
keeps its CSR index arrays in int32, built from its first, an inner and
its last lattice row (`lattice_pattern`), and no whole-mesh slot table:
the slots of a block of element rows are derived from those of three rows
it keeps (`RowSlots`).  `assemble` turns an unordered
contribution stream into a canonical matrix of any shape, summing duplicate
(row, col) entries in value-sorted order, so its result is bitwise
independent of the stream order; it serves the tests as the reference.

Both linear systems of a coarse interval lie on that pattern, with unit
Dirichlet rows, and go through `solve`, which wraps scipy's Krylov methods.
The symmetric pressure system, which comes with a multigrid hierarchy and
whose Dirichlet columns are zero too, is solved by CG preconditioned by a
symmetric V-cycle over that hierarchy; the nonsymmetric transport step,
which comes without one, by Jacobi-BiCGStab.  The hierarchy is a list of
nested lattices (`Lattice`), and every level is data on its lattice's
9-point pattern: each coarse operator P^T A P is summed from the finer
one's CSR rows by two 1-D Galerkin passes, products of pairs of fine
points by small matrices (`_galerkin_level`), and the 2:1 transfers are
applied by strided slices of the value grids, so no transfer matrix is
stored.  Both stop when
||b - A x|| < max(rel_tol * ||b||, ABS_TOL), with rel_tol from the one
`SolverConfig` of a run and the module constant ABS_TOL = 1e-14.  The transport step may instead solve by
a sparse LU factor that it keeps for a coarse interval
(`transport.StepFactor`), chosen for its cost or made after a BiCGStab
breakdown; it checks each such solve against the same tolerances and marks
its report `factored`.
"""

import math
from dataclasses import dataclass
from functools import cached_property, partial

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


def lattice_pattern(nx, ny):
    """The CSR index arrays (indptr, indices), both int32, of the 9-point
    vertex graph of a lattice of nx-by-ny cells, vertices numbered row by
    row: row v holds v and its up to eight lattice neighbours in column
    order.  A lattice row's columns, less its first vertex, depend only on
    whether it is the first, an inner or the last row, so those three rows
    are built once, each from its first, inner and last vertex, and the
    inner row is shifted into every inner lattice row; nothing of the
    whole lattice is made but the two arrays and one (nv,) int32 count."""
    nvx = nx + 1
    rows = [_lattice_row(nx, dys) for dys in ((0, 1), (-1, 0, 1), (-1, 0))]
    (first, first_counts), (inner, inner_counts), (last, last_counts) = rows
    indices = np.empty(first.size + (ny - 1) * inner.size + last.size,
                       dtype=np.int32)
    indices[:first.size] = first
    np.add(inner, (nvx * np.arange(1, ny, dtype=np.int32))[:, None],
           out=indices[first.size:indices.size - last.size].reshape(
               ny - 1, inner.size))
    np.add(last, ny * nvx, out=indices[indices.size - last.size:])
    counts = np.empty((ny + 1, nvx), dtype=np.int32)
    counts[:] = inner_counts
    counts[0], counts[-1] = first_counts, last_counts
    indptr = np.zeros(counts.size + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return indptr, indices


def _lattice_row(nx, dys):
    """The columns of a lattice row whose vertices have the row offsets
    `dys`, relative to its first vertex, in column order (int32), and each
    vertex's count of them."""
    nvx = nx + 1
    first, inner, last = ([dy * nvx + dx for dy in dys for dx in dxs]
                          for dxs in ((0, 1), (-1, 0, 1), (-1, 0)))
    columns = np.concatenate([first, (np.arange(1, nx)[:, None]
                                      + inner).ravel(), np.add(last, nx)])
    counts = np.full(nvx, len(inner))
    counts[0], counts[-1] = len(first), len(last)
    return columns.astype(np.int32), counts


def lattice_slots(indptr, nx, v, dy, dx):
    """The CSR slot in a `lattice_pattern` of row v's entry at lattice
    offset (dy, dx), which must be present: the row's first slot plus the
    entries before it, in the rows below and then to its left."""
    j, i = np.divmod(v, nx + 1)
    first = i == 0
    width = 3 - first - (i == nx)
    return indptr[v] + (dy + (j > 0)) * width + dx + 1 - first


class StencilPattern:
    """CSR pattern of a structured mesh's 9-point vertex graph.

    Row v holds v and its up to eight lattice neighbours in column order,
    which are exactly the vertices sharing an element with v
    (`lattice_pattern`).  The slot of an element-local entry (e, a, b),
    rows and columns in element corner order, is its position in the CSR
    data; `row_slots` (`RowSlots`) gives the slots of any block of whole
    element rows from those of three rows.  `dirichlet_diagonal` (int32)
    holds the diagonal slot of each row of `mesh.dirichlet_vertices`,
    `dirichlet_entries` (int32) every entry of a Dirichlet row and
    `dirichlet_columns` (int32) every entry of a Dirichlet column; all are
    built from index arithmetic on the lattice (`lattice_slots`), without
    sorting and without a table over the whole mesh.  `ranges` are the
    element ranges of the mesh's `fields.kernel_point_blocks`.
    """

    def __init__(self, mesh):
        self.n = mesh.n_vertices
        self.n_elements = mesh.n_elements
        self.indptr, self.indices = lattice_pattern(mesh.nx, mesh.ny)
        self.nnz = self.indices.size
        self.dirichlet_diagonal = lattice_slots(
            self.indptr, mesh.nx, mesh.dirichlet_vertices, 0, 0).astype(np.int32)
        # Corners SW, SE, NW, NE sit at lattice offsets (0|1, 0|1); the entry
        # (a, b) is the neighbour of corner a at offset b - a.
        cx = np.array([0, 1, 0, 1])
        cy = np.array([0, 0, 1, 1])
        # The first, second and last element rows; every inner lattice row
        # holds as many entries as lattice row 1.
        kept = [0, min(1, mesh.ny - 1), mesh.ny - 1]
        corners = np.stack([mesh.element_corners(r * mesh.nx, (r + 1) * mesh.nx)
                            for r in kept])
        tables = lattice_slots(self.indptr, mesh.nx, corners[..., None],
                               cy - cy[:, None], cx - cx[:, None])
        nvx = mesh.nx + 1
        stride = self.indptr[2 * nvx] - self.indptr[nvx] if mesh.ny > 1 else 0
        self.row_slots = RowSlots(tables.reshape(3, -1).astype(np.intp),
                                  int(stride), mesh.nx, mesh.ny)
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

    def sum_blocks(self, local, entries=None):
        """Element-local blocks (ne, 4, 4) summed into the pattern's data,
        each entry's contributions added in element order: one block of
        element rows at a time by `np.add.at` at that block's slots
        (`row_slots.block`), which adds as one `np.bincount` over the whole
        mesh would.  With `entries` (4, 4), `local` is (ne, k) and its column
        entries[a, b] holds entry (a, b)."""
        local = np.reshape(local, (self.n_elements, -1))
        entries = np.arange(16) if entries is None else np.ravel(entries)
        data = np.zeros(self.nnz)
        for lo, hi in self.ranges:
            np.add.at(data, self.row_slots.block(lo, hi),
                      local[lo:hi, entries].ravel())
        return data


class RowSlots:
    """The slots of every element's entries, k per element in a fixed
    order, kept for three element rows: `tables` (3, k nx), the first row,
    the second and the last.  Lattice rows 1 to ny - 1 each hold `stride`
    entries, so an inner element row j (0 < j < ny - 1) has the second
    row's slots shifted by (j - 1) stride; `block` builds a block's slots
    from them."""

    def __init__(self, tables, stride, nx, ny):
        self.tables, self.stride, self.nx, self.ny = tables, stride, nx, ny

    def select(self, entries):
        """The same rows with each element's entries `entries` of these, in
        that order."""
        k = self.tables.shape[1] // self.nx
        return RowSlots(np.ascontiguousarray(self.tables.reshape(
            3, self.nx, k)[:, :, entries].reshape(3, -1)),
            self.stride, self.nx, self.ny)

    def block(self, lo, hi):
        """The slots (intp) of elements lo:hi, whole element rows, element
        by element.  The inner rows are the second row's shifted to the
        block's first inner row, then doubled: each pass adds a scalar
        shift to the rows made so far.  numpy adds a column of shifts to
        rows of under about 2,900 slots at half that speed (nx = 60 and
        120), and about a fifth faster at nx = 240."""
        first, inner, last = self.tables
        r0, r1 = lo // self.nx, hi // self.nx
        a, b = max(r0, 1) - r0, max(min(r1, self.ny - 1), 1) - r0
        out = np.empty((r1 - r0, first.size), dtype=np.intp)
        if b > a:
            np.add(inner, (a + r0 - 1) * self.stride, out=out[a])
        done = 1
        while a + done < b:
            n = min(done, b - a - done)
            np.add(out[a:a + n], done * self.stride,
                   out=out[a + done:a + done + n])
            done += n
        if r0 == 0:
            out[0] = first
        if r1 == self.ny:
            out[-1] = last
        return out.ravel()


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
    in storage order as `abs(A).sum(axis=1)` adds them, `fields.KERNEL_BLOCK`
    rows at a time, so only one chunk's abs(A.data) is copied at once."""
    l1 = np.zeros(A.shape[0])
    for lo in range(0, A.shape[0], fields.KERNEL_BLOCK):
        ptr = A.indptr[lo:lo + fields.KERNEL_BLOCK + 1]
        rows = np.flatnonzero(np.diff(ptr))
        if rows.size:
            l1[lo + rows] = np.add.reduceat(
                np.abs(A.data[ptr[0]:ptr[-1]]), ptr[rows] - ptr[0])
    return l1


@dataclass(frozen=True, eq=False)
class Lattice:
    """A level of a multigrid hierarchy: a vertex lattice of nx-by-ny cells,
    numbered row by row, and `fixed` (ny + 1, nx + 1) bool, its vertices
    with unit rows and zero columns.  `fixed_vertices` lists them and
    `fixed_slots` finds their entries in the lattice's pattern, each once
    per lattice: a boundary's worth of indices, kept by the problem."""

    nx: int
    ny: int
    fixed: np.ndarray

    @cached_property
    def fixed_vertices(self):
        return np.flatnonzero(self.fixed)

    @cached_property
    def fixed_slots(self):
        """(in_rows, in_columns, diagonal): the CSR slots, in the lattice's
        `lattice_pattern`, of the entries in the rows of its fixed vertices,
        of those in their columns (each row entry seen from its neighbour)
        and of their diagonals, from index arithmetic on the fixed vertices
        alone (`lattice_slots`)."""
        nx, ny = self.nx, self.ny
        indptr = lattice_pattern(nx, ny)[0]
        v = self.fixed_vertices[:, None]
        dy, dx = np.divmod(np.arange(9), 3)
        dy, dx = dy - 1, dx - 1
        j, i = np.divmod(v, nx + 1)
        inside = (j + dy >= 0) & (j + dy <= ny) & (i + dx >= 0) & (i + dx <= nx)
        v, dy, dx = (np.broadcast_to(a, inside.shape)[inside] for a in (v, dy, dx))
        return (lattice_slots(indptr, nx, v, dy, dx),
                lattice_slots(indptr, nx, v + dy * (nx + 1) + dx, -dy, -dx),
                lattice_slots(indptr, nx, self.fixed_vertices, 0, 0))


# The value at a midpoint of the hat of either end of a 2:1 lattice cell:
# the weight of the transfers' slices, held by the tests to the 2:1
# product of `observation._linear_interpolation`.
_MID = 0.5


class _Transfer:
    """The 2:1 bilinear prolongation P from the lattice `coarse` to `fine`
    and its transpose, applied by strided slices of the (ny + 1, nx + 1)
    value grids.  P is masked at the fixed vertices: each fixed fine vertex
    takes the value of the coarse vertex on it (fixed too) and nothing
    else, and no weight runs between a free vertex and a fixed one.  P's
    slices sum the products of a CSR row of P in its (column) order; P^T
    is applied as the two 1-D transposes, in another order."""

    def __init__(self, fine, coarse):
        self.fine = (fine.ny + 1, fine.nx + 1)
        self.coarse = (coarse.ny + 1, coarse.nx + 1)
        self.fine_fixed = fine.fixed_vertices
        self.coarse_fixed = coarse.fixed_vertices
        j, i = np.divmod(self.coarse_fixed, self.coarse[1])
        self.under = 2 * j * self.fine[1] + 2 * i   # the fine vertex under each

    def prolong(self, values):
        """P @ values, (nv_fine,).  The result is allocated before the
        coarse temporaries: allocated after them, at nx = 240, it left the
        allocator handing pages back to the system and faulting them in
        again, about 200 times a call."""
        out = np.empty(self.fine)
        z = values.reshape(self.coarse)
        if self.coarse_fixed.size:
            z = z.copy()
            z.flat[self.coarse_fixed] = 0.0
        out[::2, ::2] = z
        part = _MID * z
        np.add(part[:, :-1], part[:, 1:], out=out[::2, 1::2])
        np.add(part[:-1], part[1:], out=out[1::2, ::2])
        part *= _MID
        centre = out[1::2, 1::2]
        np.add(part[:-1, :-1], part[:-1, 1:], out=centre)
        centre += part[1:, :-1]
        centre += part[1:, 1:]
        out = out.ravel()
        out[self.fine_fixed] = 0.0
        out[self.under] = values[self.coarse_fixed]
        return out

    def restrict(self, values):
        """P^T @ values, (nv_coarse,), the tensor product's two 1-D
        transposes applied along x and then along y.  The fixed fine
        vertices are zeroed in a copy, which the V-cycle, whose residuals
        vanish there, never needs."""
        fine = values.reshape(self.fine)
        if values[self.fine_fixed].any():
            fine = fine.copy()
            fine.flat[self.fine_fixed] = 0.0
        rows = fine[:, ::2].copy()
        half = _MID * fine[:, 1::2]
        rows[:, :-1] += half
        rows[:, 1:] += half
        out = rows[::2].copy()
        half = _MID * rows[1::2]
        out[:-1] += half
        out[1:] += half
        out = out.ravel()
        out[self.coarse_fixed] = values[self.under]
        return out


def _row_kinds(indptr, nx, ny, r0, r1):
    """Lattice rows r0:r1 of a `lattice_pattern`, by kind: (a, b, dy, lo,
    hi, width) for rows a:b that have the row offsets dy (a slice of
    -1, 0, 1, shifted by one) and hold the CSR data lo:hi, `width`
    entries a row: 2 len(dy) of their first vertex, 3 len(dy) of each
    inner vertex and 2 len(dy) of their last vertex."""
    for a, b, dy in ((0, 1, slice(1, 3)), (1, ny, slice(0, 3)),
                     (ny, ny + 1, slice(0, 2))):
        a, b = max(a, r0), min(b, r1)
        if a < b:
            yield (a, b, dy, int(indptr[a * (nx + 1)]),
                   int(indptr[b * (nx + 1)]),
                   (dy.stop - dy.start) * (3 * nx + 1))


def _pair_weights():
    """The 1-D Galerkin product P^T B P of a tridiagonal B, P the 2:1
    interpolation (1 at fine point 2 C, `_MID` at 2 C -+ 1), by pairs of
    fine points: (6, 6), row (a, d) the entry of B's row at point 2 C + a
    that couples it to point 2 C + a + d - 1, column (s, o) the entry of the
    product's row C + s at offset o - 1.  Entry P[f, C + s] P[f + d - 1,
    C + s + o - 1] with f = 2 C + a."""
    w = {0: 1.0, 1: _MID, -1: _MID}
    out = np.zeros((2, 3, 2, 3))
    for a, d, s, o in np.ndindex(out.shape):
        out[a, d, s, o] = (w.get(a - 2 * s, 0.0)
                           * w.get(a + d - 1 - 2 * s - 2 * (o - 1), 0.0))
    return out.reshape(6, 6)


# The pair weights along x, for a CSR row's (vertex, dy, dx) entries of a
# pair of fine vertices to the (side, dy, dx) entries of two coarse
# columns, and along y, for the (dy, dx) entries of one fine row to those
# of one coarse row: from an even row to its own, from an odd row to the
# one below it and to the one above it.
_PAIR = _pair_weights()
_PAIR_X = np.einsum("adso,yz->aydszo", _PAIR.reshape(2, 3, 2, 3),
                    np.eye(3)).reshape(18, 18)
_PAIR_Y = (np.kron(_PAIR[:3, :3], np.eye(3)), np.kron(_PAIR[3:, :3], np.eye(3)),
           np.kron(_PAIR[3:, 3:], np.eye(3)))


def _x_weights(dys):
    """`_PAIR_X`'s rows for a pair of vertices of a lattice row kind whose
    rows have the row offsets `dys` (0: -1, 1: 0, 2: +1), split by coarse
    side, each contiguous, so numpy's matmul runs them through BLAS."""
    rows = [9 * v + 3 * y + x for v in (0, 1) for y in dys for x in range(3)]
    return _PAIR_X[rows, :9].copy(), _PAIR_X[rows, 9:].copy()


# `_x_weights` of the first, an inner and the last lattice row.
_X_WEIGHTS = {(dys[0], dys[-1] + 1): _x_weights(dys)
              for dys in ((1, 2), (0, 1, 2), (0, 1))}


def _galerkin_level(A, fine, coarse):
    """P^T A P on the coarse lattice's `lattice_pattern`, as CSR, for A on
    the fine lattice's pattern with unit rows and zero columns at its fixed
    vertices, and P the masked prolongation of `_Transfer`.

    That product is the plain bilinear one of A with its fixed rows zeroed,
    with the fixed coarse rows and columns zeroed and then unit diagonals
    there.  P is the tensor product of 1-D interpolations, so it is two
    1-D passes (`_pair_weights`), each a product by a small matrix of the
    entries of pairs of fine points: along x, a pair of vertices of a
    fine row is 18 consecutive CSR entries, to the (dy, dx) entries of two
    coarse columns of that row (T, fine row by coarse column); along y,
    three products of T's even and odd rows give the coarse rows (G,
    coarse row by coarse column), whose entries are then the coarse CSR
    rows' own order.  A band of coarse rows at a time, each from the fine
    rows under it, so no offset form of the whole fine operator is made."""
    nx, mx = fine.nx, coarse.nx
    band = max(1, fields.KERNEL_BLOCK // (nx + 1))
    indptr, indices = lattice_pattern(mx, coarse.ny)
    data = np.empty(indices.size)
    fixed = fine.fixed_vertices
    pairs_buffer = np.empty((2 * band + 1) * (mx + 1) * 18)
    T, S = np.empty((2, 2 * band + 1, mx + 1, 9))
    G = np.empty((band, mx + 1, 9))
    for c0 in range(0, coarse.ny + 1, band):
        c1 = min(c0 + band, coarse.ny + 1)
        n, r0 = c1 - c0, 2 * c0 - 1
        lo, hi = max(r0, 0), min(r0 + 2 * n + 1, fine.ny + 1)
        t = T[:2 * n + 1]
        t[:lo - r0] = 0.0
        t[hi - r0:] = 0.0
        for a, b, dy, first, last, width in _row_kinds(A.indptr, nx, fine.ny,
                                                      lo, hi):
            k, m = dy.stop - dy.start, b - a
            kind = A.data[first:last].reshape(m, width)
            # Pairs (vertex 2 C, vertex 2 C + 1) for C = 0..mx, the first
            # vertex padded with dx = -1 and the last with dx = +1 and a
            # vertex nx + 1, all zero, and the fixed rows' unit diagonals
            # zeroed.
            pairs = pairs_buffer[:m * (mx + 1) * 6 * k].reshape(m, mx + 1, 2, k, 3)
            pairs[:, 0, 0, :, 0] = 0.0
            pairs[:, 0, 0, :, 1:] = kind[:, :2 * k].reshape(m, k, 2)
            pairs[:, 0, 1] = kind[:, 2 * k:5 * k].reshape(m, k, 3)
            pairs[:, 1:mx] = kind[:, 5 * k:width - 2 * k].reshape(m, mx - 1, 2, k, 3)
            pairs[:, mx, 0, :, :2] = kind[:, width - 2 * k:].reshape(m, k, 2)
            pairs[:, mx, 0, :, 2] = 0.0
            pairs[:, mx, 1] = 0.0
            j, i = np.divmod(fixed[slice(*np.searchsorted(
                fixed, (a * (nx + 1), b * (nx + 1))))], nx + 1)
            pairs[j - a, i // 2, i % 2, 1 - dy.start, 1] = 0.0
            pairs = pairs.reshape(-1, 6 * k)
            own, next_side = _X_WEIGHTS[dy.start, dy.stop]
            tk = t[a - r0:b - r0]
            np.matmul(pairs, own, out=tk.reshape(-1, 9))
            side = np.matmul(pairs, next_side, out=S[:m].reshape(-1, 9))
            tk[:, 1:] += side.reshape(m, mx + 1, 9)[:, :-1]
        g = G[:n]
        np.matmul(t[1::2], _PAIR_Y[0], out=g)
        g += np.matmul(t[2::2], _PAIR_Y[1], out=S[:n])
        g += np.matmul(t[:-1:2], _PAIR_Y[2], out=S[:n])
        g = g.reshape(n, mx + 1, 3, 3)
        for a, b, dy, first, last, span in _row_kinds(indptr, mx, coarse.ny,
                                                      c0, c1):
            k, gk = dy.stop - dy.start, g[a - c0:b - c0, :, dy]
            out = data[first:last].reshape(b - a, span)
            out[:, :2 * k].reshape(-1, k, 2)[:] = gk[:, 0, :, 1:]
            out[:, 2 * k:span - 2 * k].reshape(b - a, mx - 1, k, 3)[:] = gk[:, 1:mx]
            out[:, span - 2 * k:].reshape(-1, k, 2)[:] = gk[:, mx, :, :2]
    if coarse.fixed_vertices.size:
        in_rows, in_columns, diagonal = coarse.fixed_slots
        data[in_rows] = data[in_columns] = 0.0
        data[diagonal] = 1.0
    n = indptr.size - 1
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def _v_cycle(levels, coarse_solve, r, k=0):
    """One symmetric V-cycle from a zero guess: z ~ A_k^-1 r.

    levels[k] is (A_k, smoother scale over the l1 row sums of A_k, the
    `_Transfer` to the next level); below the last level the system is
    solved directly.  Equal pre- and post-sweeps make the cycle symmetric
    positive definite.
    """
    if k == len(levels):
        return coarse_solve(r)
    A, smooth, transfer = levels[k]
    z = smooth * r
    for _ in range(_SMOOTH_SWEEPS - 1):
        z += smooth * (r - A @ z)
    z += transfer.prolong(_v_cycle(levels, coarse_solve,
                                   transfer.restrict(r - A @ z), k + 1))
    for _ in range(_SMOOTH_SWEEPS):
        z += smooth * (r - A @ z)
    return z


def _project_constants_out(cycle, r):
    """z = P M P r, with M the cycle and P removing the mean of a vector."""
    z = cycle(r - r.mean())
    return z - z.mean()


def _pinned_solve(solve, r):
    """The solution that is 0 at vertex 0 of a singular system whose null
    space is the constants, from `solve` of its other rows and columns."""
    z = np.zeros(r.size)
    z[1:] = solve(r[1:])
    return z


def multigrid_cycle(A, hierarchy, constant_nullspace=False):
    """The V-cycle r -> z ~ A^-1 r for SPD A over a hierarchy of lattices.

    `hierarchy` lists the `Lattice` of A and then each 2:1 coarser one;
    A lies on the first one's `lattice_pattern`.  Each coarse operator is
    the Galerkin product P^T A P on its lattice's pattern, summed in
    stencil form (`_galerkin_level`), and the transfers are applied by
    slices (`_Transfer`); the coarsest operator is factored with SuperLU.
    Each level's smoother reads its l1 row sums, summed a chunk of rows at
    a time (`_abs_row_sums`).  An empty hierarchy makes the cycle an exact
    solve.  A singular coarsest operator raises `RuntimeError` from
    SuperLU.  Row sums that underflow (a subnormal kappa, say) make the
    smoother scale infinite without a warning; the coarsest operator is
    then singular.
    When A is only semidefinite with the constants as its null space
    (`constant_nullspace`), the coarsest solve pins its first vertex to 0
    and constants are projected out of the cycle's input and output;
    otherwise the cycle feeds constant components into the search
    directions, and CG stalls once the residual reaches them.
    """
    levels = []
    for fine, coarse in zip(hierarchy, hierarchy[1:]):
        l1 = _abs_row_sums(A)
        with np.errstate(divide="ignore", over="ignore"):
            levels.append((A, _SMOOTH_SCALE / l1, _Transfer(fine, coarse)))
        A = _galerkin_level(A, fine, coarse)
    if constant_nullspace:
        coarse_solve = partial(_pinned_solve, splu(A[1:, 1:].tocsc()).solve)
        return partial(_project_constants_out,
                       partial(_v_cycle, levels, coarse_solve))
    return partial(_v_cycle, levels, splu(A.tocsc()).solve)


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


def solve(A, b, config=None, x0=None, hierarchy=None,
          constant_nullspace=False):
    """Solve A x = b to the config's tolerances; returns (x, SolveReport).

    With a `hierarchy`, the lattices of `multigrid_cycle` (which also takes
    `constant_nullspace`), A is SPD and is solved by CG preconditioned by
    the V-cycle; an empty hierarchy makes the cycle an exact solve.
    Without one, A (CSR or a `CoupledOperator`) is solved by
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
    if hierarchy is None:
        return _krylov(bicgstab, A, b, x0, config,
                       sparse.diags(_jacobi_inverse(A)))
    try:
        cycle = multigrid_cycle(A, hierarchy, constant_nullspace)
    except RuntimeError as exc:   # SuperLU: singular coarsest operator
        residual = float(np.linalg.norm(b - A @ x0))
        raise NoConvergenceError(
            f"cg multigrid coarsest level is singular ({exc})", x0,
            SolveReport(0, residual, False)) from exc
    return _krylov(cg, A, b, x0, config,
                   LinearOperator(A.shape, matvec=cycle, dtype=float))
