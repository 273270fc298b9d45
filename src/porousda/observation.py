"""Sparse measurement lattices and observation streams.

A SparseGrid is a coarse tensor lattice whose points coincide with fine-mesh
vertices (the spacing must be an integer multiple of the mesh spacing in both
directions).  The functionals F, shape (n_obs, nv), turn nodal values into
raw functional values: point values at the lattice vertices by default,
coarse control-volume averages as the alternative.  The prolongation P,
shape (nv, n_obs), reconstructs a continuous field from such values by
coarse bilinear interpolation.  F = f_y (x) f_x and P = p_y (x) p_x, and
the grid keeps only these 1-D factors, built at construction, and applies
each product by `kron_apply`.  An ObservationStream is a time-ordered
sequence of functional-value vectors with linear interpolation between
records.

`_linear_interpolation` p is the one owner of the coarse bilinear basis:
the hat of lattice point (cy, cx) is column cy of p_y times column cx of
p_x at the fine vertices.  The lattice is aligned with the mesh, so that
hat is exactly the fine bilinear field with those vertex values.  The
grid's reconstruction and the transport nudging operator (p's CV
integrals) are built from it; the nudging coupling also reads f_y, f_x and
F's product.  The pressure multigrid applies the 2:1 case by slices of the
value grid (`linalg._MID`), whose weights the tests hold to the Kronecker
product of p at k = 2.
"""

import math

import numpy as np
from scipy import sparse

from . import linalg
from .fields import CELL_HATS, NodalField


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
    xi = CELL_HATS[1]                               # a cell's four points
    cell = np.repeat(np.arange(n), xi.size)
    xi = np.tile(xi, n)
    owner = np.round((cell + xi) / k).astype(np.int32)
    gamma = linalg.SparseMatrix(
        (np.concatenate([1.0 - xi, xi]),
         (np.tile(owner, 2), np.concatenate([cell, cell + 1]))),
        shape=(n // k + 1, n + 1))
    return sparse.diags(1.0 / np.asarray(gamma.sum(axis=1)).ravel()) @ gamma


def kron_apply(a, b, values):
    """(a (x) b) @ values, never formed: a X b^T raveled, X the values row
    by row (Van Loan, J. Comput. Appl. Math. 123, 2000); a reducing `a`
    goes first, else `b`, so a large result needs no transposed copy."""
    X = np.reshape(values, (a.shape[1], b.shape[1]))
    if a.shape[0] < a.shape[1]:
        return (b @ (a @ X).T).T.ravel()
    return (a @ (b @ X.T).T).ravel()


class SparseGrid:
    """Coarse measurement lattice aligned with a fine mesh, kept as the 1-D
    factors of its functionals, `fy` and `fx`, and of its prolongation,
    `py` and `px`, all built at construction."""

    def __init__(self, mesh, spacing, kind="point"):
        self.kx, self.ky = check_lattice(mesh, spacing, kind)
        self.mesh = mesh
        self.spacing = float(spacing)
        self.kind = kind
        axes = ((mesh.ny, self.ky), (mesh.nx, self.kx))
        if kind == "point":
            self.fy, self.fx = (sparse.eye(n + 1, format="csr")[::k] for n, k in axes)
        else:
            self.fy, self.fx = (_cv_averages(n, k) for n, k in axes)
        self.py, self.px = (_linear_interpolation(n, k) for n, k in axes)
        self.n_obs = self.fy.shape[0] * self.fx.shape[0]

    def sample(self, field):
        """Raw functional values F @ field.values of a NodalField, (n_obs,)."""
        if not isinstance(field, NodalField):
            raise TypeError(f"expected a NodalField, got {type(field).__name__}")
        return self.functional_values(field.values)

    def functional_values(self, values):
        """F @ values; point values slice the lattice's rows and columns."""
        if self.kind == "point":
            return values.reshape(self.mesh.ny + 1, -1)[::self.ky, ::self.kx].flatten()
        return kron_apply(self.fy, self.fx, values)

    def reconstruct(self, functional_values):
        """Coarse bilinear field from raw functional values, P @ values."""
        d = np.asarray(functional_values, dtype=float)
        if d.shape != (self.n_obs,):
            raise ValueError(f"expected {self.n_obs} functional values, got {d.shape}")
        return NodalField(self.mesh, kron_apply(self.py, self.px, d))

    def interpolate(self, field):
        """Sparse interpolant of a NodalField: reconstruct(sample(field))."""
        return self.reconstruct(self.sample(field))


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
