"""Sparse measurement lattices and observation streams.

A SparseGrid is a coarse tensor lattice whose points coincide with fine-mesh
vertices (the spacing must be an integer multiple of the mesh spacing in both
directions).  The grid turns a field into raw functional values (point values
by default, coarse-cell averages as an alternative) and reconstructs a
continuous field from such values with coarse bilinear interpolation.  An
ObservationStream is a time-ordered sequence of functional-value vectors with
linear interpolation between records.

`bilinear_prolongation` P is the one owner of the coarse bilinear basis.  It
is the Kronecker product of two 1-D linear interpolations, and column c holds
the coarse hat of lattice point c at the fine vertices.  The lattice is
aligned with the mesh, so that hat is exactly the fine bilinear field with
those vertex values.  The grid's reconstruction, the transport nudging
operator (mass @ P) and the pressure multigrid transfers are all built from
it.  The grid builds its operators once, at construction.
"""

import csv
import math

import numpy as np
from scipy import sparse

from . import linalg
from .fields import QUAD_LOCAL, NodalField


class AlignmentError(ValueError):
    """Lattice does not align with the mesh."""


class ObservationGapError(ValueError):
    """Requested time lies outside the stream's span."""


def check_lattice(mesh, spacing, kind="point"):
    """The ratios (kx, ky) of lattice spacing to mesh spacing, after the
    checks every SparseGrid applies: ValueError for a kind other than
    "point" or "average", then AlignmentError unless the spacing is finite,
    positive, a whole multiple of the mesh spacing in both directions, and
    tiles the domain."""
    if kind not in ("point", "average"):
        raise ValueError(f"unknown functional kind {kind!r} "
                         f"(known: point, average)")
    spacing = float(spacing)
    if not (math.isfinite(spacing) and spacing > 0.0):
        raise AlignmentError(
            f"lattice spacing must be finite and positive, got {spacing!r}")
    return (_axis_ratio(spacing, mesh.hx, mesh.nx, "x"),
            _axis_ratio(spacing, mesh.hy, mesh.ny, "y"))


def _axis_ratio(spacing, h, n, axis):
    k = int(round(spacing / h))
    if k < 1 or abs(spacing - k * h) > 1e-9 * max(spacing, h):
        raise AlignmentError(
            f"lattice spacing {spacing} is not an integer multiple of mesh spacing {h} ({axis})")
    if n % k != 0:
        raise AlignmentError(
            f"lattice spacing {spacing} does not tile the domain: {n} cells / {k} per coarse cell")
    return k


def _linear_interpolation(n, k):
    """1-D linear interpolation from every k-th of n + 1 points to all of
    them, as CSR ((n+1), (n/k+1)).  Row i holds the two hats of coarse cell
    min(i // k, n/k - 1), in column order, explicit zeros included."""
    nc = n // k
    i = np.arange(n + 1)
    c = np.minimum(i // k, nc - 1)
    # Integer offsets keep the weights, and so the reconstruction, exact at
    # the coarse points.
    t = (i - c * k) / k
    return linalg.SparseMatrix(
        (np.stack([1.0 - t, t], axis=1).ravel(),
         np.stack([c, c + 1], axis=1).ravel().astype(np.int32),
         np.arange(0, 2 * (n + 1) + 1, 2, dtype=np.int32)),
        shape=(n + 1, nc + 1))


def _cv_averages(n, k):
    """The averages over the coarse control volumes of every k-th of n + 1
    points, as CSR ((n/k+1), (n+1)) on the linear field with those values.
    Coarse CV c is [c - 1/2, c + 1/2] coarse cells, clipped to the domain;
    the rule is the 1-D factor of the shared quadrature, two Gauss points on
    each half of a cell, and a point belongs to the coarse CV it lies in."""
    xi = np.unique(QUAD_LOCAL[:, 0])                # a cell's four points
    cell = np.repeat(np.arange(n), xi.size)
    xi = np.tile(xi, n)
    owner = np.round((cell + xi) / k).astype(np.int32)
    gamma = linalg.SparseMatrix(
        (np.concatenate([1.0 - xi, xi]),
         (np.tile(owner, 2), np.concatenate([cell, cell + 1]))),
        shape=(n // k + 1, n + 1))
    return sparse.diags(1.0 / np.asarray(gamma.sum(axis=1)).ravel()) @ gamma


def bilinear_prolongation(nx, ny, kx, ky):
    """Bilinear interpolation from a coarse lattice to a fine one, as CSR.

    The fine lattice has nx-by-ny cells; the coarse one keeps every kx-th
    vertical and every ky-th horizontal line, so it has (nx/kx)-by-(ny/ky)
    cells.  Row v holds the coarse basis at fine vertex v, so the matrix is
    ((nx+1)(ny+1), (nx/kx+1)(ny/ky+1)).  Both lattices number their points
    row by row, so the matrix is the Kronecker product of the 1-D
    interpolations in y and in x: every row holds the four corners of one
    coarse cell in column order, explicit zeros included.
    """
    return sparse.kron(_linear_interpolation(ny, ky), _linear_interpolation(nx, kx),
                       format="csr")


class SparseGrid:
    """Coarse measurement lattice aligned with a fine mesh."""

    def __init__(self, mesh, spacing, kind="point"):
        self.kx, self.ky = check_lattice(mesh, spacing, kind)
        self.mesh = mesh
        self.spacing = float(spacing)
        self.kind = kind
        self.ncx = mesh.nx // self.kx
        self.ncy = mesh.ny // self.ky
        self.n_obs = (self.ncx + 1) * (self.ncy + 1)

        ii, jj = np.meshgrid(np.arange(self.ncx + 1), np.arange(self.ncy + 1))
        ii, jj = ii.ravel(), jj.ravel()
        self.point_vertex = (jj * self.ky) * (mesh.nx + 1) + ii * self.kx
        self.points = mesh.vertices[self.point_vertex]
        self.prolong_matrix = bilinear_prolongation(mesh.nx, mesh.ny, self.kx, self.ky)
        self._average = self._build_average() if kind == "average" else None

    # -- operators ---------------------------------------------------------

    def _build_average(self):
        """Normalized coarse-CV average functionals as a (n_obs, nv) matrix:
        the Kronecker product of the 1-D averages in y and in x, as
        `bilinear_prolongation` is of the interpolations."""
        return sparse.kron(_cv_averages(self.mesh.ny, self.ky),
                           _cv_averages(self.mesh.nx, self.kx), format="csr")

    # -- functionals and reconstruction -------------------------------------

    def sample(self, source, t=None):
        """Raw functional values of a field or callable, shape (n_obs,)."""
        if isinstance(source, NodalField):
            if self.kind == "point":
                return source.values[self.point_vertex].copy()
            return self._average @ source.values
        if callable(source):
            if self.kind == "point":
                x, y = self.points[:, 0], self.points[:, 1]
                vals = source(x, y) if t is None else source(x, y, t)
                return np.asarray(vals, dtype=float) * np.ones(self.n_obs)
            field = _field_from_callable(self.mesh, source, t)
            return self._average @ field.values
        values = np.asarray(source, dtype=float)
        if values.shape == (self.mesh.n_vertices,):
            return self.sample(NodalField(self.mesh, values), t)
        raise ValueError("source must be a NodalField, callable, or nodal value array")

    def reconstruct(self, functional_values):
        """Coarse bilinear field from raw functional values."""
        d = np.asarray(functional_values, dtype=float)
        if d.shape != (self.n_obs,):
            raise ValueError(f"expected {self.n_obs} functional values, got {d.shape}")
        return NodalField(self.mesh, self.prolong_matrix @ d)

    def interpolate(self, source, t=None):
        """Sparse interpolant of a field: reconstruct(sample(source))."""
        return self.reconstruct(self.sample(source, t=t))

    def functional_matrix(self):
        """The functionals as a sparse (n_obs, nv) matrix acting on nodal values."""
        if self.kind == "point":
            return linalg.SparseMatrix(
                (np.ones(self.n_obs), self.point_vertex.astype(np.int32),
                 np.arange(self.n_obs + 1, dtype=np.int32)),
                shape=(self.n_obs, self.mesh.n_vertices))
        return self._average


def _field_from_callable(mesh, fn, t=None):
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    vals = fn(x, y) if t is None else fn(x, y, t)
    return NodalField(mesh, np.asarray(vals, dtype=float) * np.ones(mesh.n_vertices))


class ObservationStream:
    """Strictly time-ordered records of raw functional values."""

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.times.ndim != 1 or self.values.ndim != 2 \
                or self.values.shape[0] != self.times.shape[0]:
            raise ValueError("times (N,) and values (N, n_obs) must align")
        if self.times.size and np.any(np.diff(self.times) <= 0):
            raise ValueError("observation times must be strictly increasing")

    @property
    def n_obs(self):
        return self.values.shape[1]

    def interpolate(self, t):
        """Linear interpolation of the functional values at time t."""
        if self.times.size == 0:
            raise ObservationGapError("empty observation stream")
        t0, t1 = self.times[0], self.times[-1]
        if t < t0 or t > t1:
            raise ObservationGapError(
                f"time {t} outside observation span [{t0}, {t1}]")
        idx = np.searchsorted(self.times, t)
        if idx < self.times.size and self.times[idx] == t:
            return self.values[idx].copy()
        lo, hi = idx - 1, idx
        w = (t - self.times[lo]) / (self.times[hi] - self.times[lo])
        return (1.0 - w) * self.values[lo] + w * self.values[hi]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"gamma_{k}" for k in range(self.n_obs)])
            for t, row in zip(self.times, self.values):
                writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])

    @classmethod
    def from_csv(cls, path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if not header or header[0].strip() != "t" \
                    or any(not h.strip().startswith("gamma_") for h in header[1:]):
                raise ValueError(f"not an observation CSV: header {header!r}")
            times, rows = [], []
            for rec in reader:
                if not rec:
                    continue
                times.append(float(rec[0]))
                rows.append([float(v) for v in rec[1:]])
        return cls(np.array(times), np.array(rows))
