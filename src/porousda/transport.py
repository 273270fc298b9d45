"""Finite-volume transport step with upwinding and nudging.

One implicit trapezoidal step of the concentration equation on the dual mesh:
accumulation over each control volume, diffusive flux from bilinear gradients
at face midpoints, advective flux upwinded by the sign of the frozen normal
velocity (a zero velocity contributes nothing), reaction and sources by the
shared 16-point rule, and the relaxation term mu * (interpolated mismatch),
implicit in the unknown and explicit in the data.  All but accumulation carry
the trapezoidal weight 1/2 at both ends.  Dirichlet vertices are constrained
rows; Neumann faces of clipped control volumes carry zero total flux.

One object per run (`TransportCoefficients`) holds its operator, built once:
every matrix of a run's steps lies on the mesh's stencil (`linalg.stencil`),
zero in a Dirichlet row but for S0's unit diagonal.  Mass, reaction,
diffusion and advection are 4x4 blocks per element (a quadrant's Gauss
points lie in its corner's CV; a dual-mesh segment, its two CVs and its
upwind vertex lie in one element), made and summed into the pattern one
block of element rows at a time (`fields.kernel_point_blocks`), each block
by `np.add.at`, in element order as one `np.bincount` would.  The CV mass is
M = m_y (x) m_x, m the 1-D CV masses, each summed over its cells from the
1-D CV integrals of the hats (`_cv_block` per cell, the owner of the CV
mass) and kept per mesh (`cv_mass_factors`).  A coarse hat is the fine
bilinear field of its column of P = p_y (x) p_x, so the CV integrals of the
coarse basis, M P, are A_y (x) A_x with A = m p; the run keeps A_y and A_x.
The run keeps one data vector, K0 = diffusion + reaction; with h = dt/2,
advection a gives S0 = M + h (K0 + a) plus the Dirichlet diagonal and
E0 = M - h (K0 + a), and M, a mesh's sum of one constant block (`cv_mass`,
copied into place from the products of the 1-D CV masses), is written anew
into S0's array for each step size, not kept.  A nudged run's S is S0 + h C, C
its rank-n_obs coupling applied from its factors (`NudgingCoupling`), and
its E = E0 - h C applies C with the data.

A run steps with one frozen velocity at a time, and every step takes the
run's nominal size, so the run holds one slot: the segment outflux, the step
size, S, E and its factor.  `set_velocity` replaces the slot; the driver
empties it before each pressure solve, so no S, E or factor of the last
velocity is alive during the next one.  One cached source vector outlives the
velocities: a step reads the source at its start, where the step before
read it.  Every factor takes one ordering q of the mesh's vertex lattice, a
nested dissection whose split lines, when the run nudges, follow the
observation lattice (`dissection`, built once per mesh and lattice).  The
run's first factor fixes where the CSC data of S[q][:, q] sit in S0's and
C's, so each factor gathers (and only it joins) its data in natural order.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu as _superlu

from . import linalg
from .fields import (CELL_HATS, NodalField, QuadratureField, cell_sum,
                     cv_flux_blocks, kernel_point_blocks, quadrature)
from .mesh import SEG_LEFT_CORNER, SEG_NORMAL_AXIS, SEG_RIGHT_CORNER
from .observation import kron_apply
from .scenarios import Separable, time_parts

_log = logging.getLogger("porousda")

# Per segment type, the entries of its element's flattened 4x4 block that its
# outflux enters: (left, left), (right, left), (left, right), (right, right).
_L, _R = SEG_LEFT_CORNER, SEG_RIGHT_CORNER
_UPWIND_ENTRIES = np.stack([4 * _L + _L, 4 * _R + _L, 4 * _L + _R, 4 * _R + _R],
                           axis=-1).ravel()

# The entries of S0 and E0 formed at a time from M and h (K0 + a).
_CHUNK = 1 << 16

# Boxes of the dissection at most this many vertices wide and tall are
# numbered row by row.
_LEAF = 3


def check_mu(mu):
    """The relaxation strength as a float; raises ValueError unless it is
    finite and nonnegative."""
    value = float(mu)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"relaxation strength mu must be finite and "
                         f"nonnegative, got {mu!r}")
    return value


@dataclass
class TransportStep:
    """One fine step from t_start to t_end, of size dt (t_end - t_start by
    default).  The driver passes the run's nominal step: its fine times are
    a linspace, whose differences vary in the last bit, and a run keeps the
    matrices and factor of one step size only."""

    t_start: float
    t_end: float
    dt: float | None = None

    def __post_init__(self):
        if self.dt is None:
            self.dt = self.t_end - self.t_start


def dissection(mesh, lattice=None):
    """The nested-dissection ordering q of the mesh's vertex lattice (George,
    SIAM J. Numer. Anal. 10, 1973): q[k] is the vertex factored k-th.  With
    `lattice`, the ratios (kx, ky) of a nudged run's observation lattice,
    the split lines follow it.  Built once per mesh and lattice."""
    return mesh.constant(("dissection", lattice),
                         lambda m: _dissection(m.nx, m.ny, lattice))


def _dissection(nx, ny, lattice):
    """Nested dissection of the (nx+1) x (ny+1) vertex lattice, one level of
    boxes at a time.  A box [x0, x1) x [y0, y1) wider or taller than `_LEAF`
    vertices is split across its longer side (across x when square) by one
    line of vertices, which parts the 9-point stencil's two halves; the
    first half, the second and then that separator take the box's range of
    positions.  With a lattice the split is the observation line (every
    kx-th column or ky-th row) nearest the box's middle that lies strictly
    inside it, if any: the observation vertices, the hub columns of the
    nudging coupling, then sit in separators and are eliminated late."""
    nvx = nx + 1
    q = np.empty(nvx * (ny + 1), dtype=np.intp)
    x0, x1, y0, y1, first = (np.array([v]) for v in (0, nvx, 0, ny + 1, 0))
    while x0.size:
        width, height = x1 - x0, y1 - y0
        leaf = np.maximum(width, height) <= _LEAF
        _number(q, nvx, x0[leaf], y0[leaf], width[leaf], height[leaf],
                first[leaf])
        x0, x1, y0, y1, first, width, height = (
            a[~leaf] for a in (x0, x1, y0, y1, first, width, height))
        across_x = width >= height
        lo = np.where(across_x, x0, y0)
        hi = np.where(across_x, x1, y1) - 1
        split = (lo + hi) // 2
        if lattice is not None:
            k = np.where(across_x, *lattice)
            below = split // k * k
            above = below + k
            split = np.where(
                (above < hi) & ((below <= lo) | (above - split < split - below)),
                above, np.where(below > lo, below, split))
        sep_x0 = np.where(across_x, split, x0)
        sep_y0 = np.where(across_x, y0, split)
        sep_width = np.where(across_x, 1, width)
        sep_height = np.where(across_x, height, 1)
        _number(q, nvx, sep_x0, sep_y0, sep_width, sep_height,
                first + width * height - sep_width * sep_height)
        end_x = np.where(across_x, split, x1)        # of the first half
        end_y = np.where(across_x, y1, split)
        x0, x1, y0, y1, first = (np.concatenate(pair) for pair in (
            (x0, np.where(across_x, split + 1, x0)), (end_x, x1),
            (y0, np.where(across_x, y0, split + 1)), (end_y, y1),
            (first, first + (end_x - x0) * (end_y - y0))))
    q.flags.writeable = False       # every factor of the mesh shares it
    return q


def _number(q, nvx, x0, y0, width, height, first):
    """Give rectangle r of vertices, from (x0[r], y0[r]), width[r] by
    height[r], the positions of q from first[r] on, row by row."""
    size = width * height
    r = np.repeat(np.arange(size.size), size)
    k = np.arange(r.size) - np.repeat(np.cumsum(size) - size, size)
    row, col = np.divmod(k, width[r])
    q[first[r] + k] = (y0[r] + row) * nvx + x0[r] + col


class TransportCoefficients:
    """The transport step of one run: its coefficients, its operator, built
    once (`_build_static`), and the slot of the one velocity it steps with.

    The operator is data on `linalg.stencil(mesh)`, whose read-only index
    arrays every matrix of the run shares; the run holds no index array of
    its own: the stencil's `dirichlet_entries`, zero in M, K0 and every
    advection, its `dirichlet_diagonal` and the block slots of its kept
    rows (`row_slots`, and `upwind_slots` for the advection), and the
    mesh's `dirichlet_vertices` serve every run on the mesh.  `k0` holds
    K0, summed from its element blocks one block of element rows at a
    time, the coefficients evaluated at that block's points; M is not kept
    (see `matrices`).  `coupling`, None unless mu > 0, is C and holds M P's
    1-D factors (A_y, A_x) as `coupling.factors`.  The source's parts,
    `source_parts`, come from `scenarios.time_parts`, which looks through
    `functools.wraps` wrappers.  A `Separable` source (`separable`) keeps
    only `profile_cv`, the CV integrals of its profile, integrated once,
    block by block, and scales it by rate(t).  Any other source keeps
    `source_spatial`, its spatial part at the quadrature points (of a plain
    callable, the read-only point views themselves), and `source_cv`, the
    CV integrals of values at those points as an (nv, 16 ne) matrix; a step
    combines the kept part with t and applies the matrix.  The factor state:
    `factor_at_once`, set while the run factors by cost (see `step`), and
    `order`, the ordering q of its factors, from its first factor on.

    The slot, empty until `set_velocity` fills it: the segment outflux
    `velocity_outflux` (None for none), the step size `dt`, S (`lhs`), E
    (`explicit`, E0) and `factor`, a `StepFactor`, False where BiCGStab keeps S,
    or None while undecided.  A step of another size replaces S, E and the
    factor; `set_velocity` replaces the slot.  The one-entry source cache,
    (t, vector), outlives the velocities.
    """

    velocity_outflux = dt = lhs = explicit = factor = None

    def __init__(self, mesh, diffusion, reaction=None, source=None, mu=0.0,
                 grid=None, dirichlet=None):
        mu = check_mu(mu)
        if mu > 0 and grid is None:
            raise ValueError("nudging (mu > 0) requires an observation grid")
        self.mesh = mesh
        self.diffusion = diffusion
        self.reaction = reaction
        self.source = source
        self.source_parts = None if source is None else time_parts(source)
        self.separable = (self.source_parts if isinstance(
            self.source_parts, Separable) else None)
        self.mu = mu
        self.grid = grid
        self.dirichlet = dirichlet
        self._build_static()
        self.lattice = None if mu == 0.0 else (grid.kx, grid.ky)
        self.factor_at_once = False
        self.order = None
        self._source = [None, None]

    def set_velocity(self, outflux):
        """Step with this segment outflux (None for none) from now on; the
        slot's S, E and factor go."""
        self.velocity_outflux = outflux
        self.dt = self.lhs = self.explicit = self.factor = None

    def _build_static(self):
        mesh = self.mesh
        quad = quadrature(mesh)
        blocks = kernel_point_blocks(mesh)
        # The four Gauss points of quadrant a all sit in the CV of corner a.
        phi_quadrant = quad.weight * quad.phi.reshape(4, 4, 4)   # (a, point, b)
        # A separable source keeps its profile's CV integrals, the CSR
        # product of the general path done once, block by block; any other
        # keeps its spatial part at the quadrature points.
        self.source_cv = self.profile_cv = self.source_spatial = None
        if self.separable is not None:
            self.profile_cv = np.zeros(mesh.n_vertices)
            for lo, hi, x, y in blocks:
                profile = np.asarray(self.separable.profile(x[..., :16],
                                                            y[..., :16]),
                                     dtype=float)
                np.add.at(self.profile_cv,
                          mesh.element_corners(lo, hi)[:, quad.owner_corner]
                          .ravel(),
                          np.multiply(quad.weight, np.broadcast_to(
                              profile, x[..., :16].shape)).ravel())
            self.profile_cv[mesh.is_dirichlet] = 0.0
        elif self.source is not None:
            self.source_cv = _cv_integration(mesh, ~mesh.is_dirichlet)
            self.source_spatial = self.source_parts.spatial(quad.x, quad.y)

        stencil = linalg.stencil(mesh)
        self.coupling = None
        if self.mu > 0.0:
            my, mx = cv_mass_factors(mesh)
            self.coupling = NudgingCoupling(self.mu, (
                my @ self.grid.py, mx @ self.grid.px), self.grid)
        # K0: the diffusive flux, -sum over CV faces of D grad(theta) . n,
        # plus the reaction.
        k0 = self.k0 = np.zeros(stencil.nnz)
        for lo, hi, x, y in blocks:
            d = np.asarray(self.diffusion(x[..., 24:], y[..., 24:]),
                           dtype=float)
            k0_blocks = cv_flux_blocks(mesh, np.broadcast_to(
                d, x[..., 24:].shape).reshape(-1, 4))
            if self.reaction is not None:
                r = np.asarray(self.reaction(x[..., :16], y[..., :16]),
                               dtype=float)
                k0_blocks += np.einsum(
                    "eap,apb->eab",
                    np.broadcast_to(r, x[..., :16].shape).reshape(-1, 4, 4),
                    phi_quadrant)
            np.add.at(k0, stencil.row_slots.block(lo, hi), k0_blocks.ravel())
        k0[stencil.dirichlet_entries] = 0.0

    def advection(self, outflux):
        """The upwind advection of a segment outflux, as data on the pattern:
        a positive outflux leaves the left CV and enters the right one in the
        left vertex's column, a negative one in the right vertex's; made and
        scattered one block of element rows at a time, at that block's
        upwind slots (`upwind_slots`), one shift of the kept rows' slots
        per element row."""
        U = np.asarray(outflux, dtype=float)
        if U.shape != (self.mesh.n_segments,):
            raise ValueError(f"expected {self.mesh.n_segments} "
                             f"segment outflux values")
        stencil = linalg.stencil(self.mesh)
        upwind = upwind_slots(self.mesh)
        out = np.zeros(stencil.nnz)
        blocks = kernel_point_blocks(self.mesh)
        buffer = np.empty((4 * blocks[0][1], 4))   # the first, largest block
        for lo, hi, _, _ in blocks:
            u = U[4 * lo:4 * hi]
            weights = buffer[:u.size]
            np.maximum(u, 0.0, out=weights[:, 0])
            np.minimum(u, 0.0, out=weights[:, 2])
            np.negative(weights[:, 0::2], out=weights[:, 1::2])
            np.add.at(out, upwind.block(lo, hi), weights.ravel())
        out[stencil.dirichlet_entries] = 0.0
        return out

    def matrices(self, dt):
        """(S, E0) of a step of size dt with the slot's velocity, built once
        per step size: with h = dt/2, S0 = M + h (K0 + a) plus the Dirichlet
        diagonal, S = S0 + h C if nudged, else S0, and E0 = M - h (K0 + a).
        M is written anew (`cv_mass`) into the array that becomes S0's data,
        and S0 and E0 are formed from it and h (K0 + a) one chunk at a
        time, in place, through one chunk-sized copy of M, so no third
        pattern-sized array is made."""
        if dt != self.dt:
            U = self.velocity_outflux
            if U is None:
                hk = np.multiply(0.5 * dt, self.k0)
            else:
                hk = self.advection(U)
                hk += self.k0
                hk *= 0.5 * dt
            pattern = linalg.stencil(self.mesh)
            lhs = cv_mass(self.mesh)
            buffer = np.empty(min(_CHUNK, lhs.size))   # one chunk of M
            for lo in range(0, lhs.size, _CHUNK):
                s0, e0 = lhs[lo:lo + _CHUNK], hk[lo:lo + _CHUNK]
                mass = buffer[:s0.size]
                mass[:] = s0
                s0 += e0                           # M + h (K0 + a)
                np.subtract(mass, e0, out=e0)      # M - h (K0 + a)
            lhs[pattern.dirichlet_diagonal] = 1.0
            self.lhs = pattern.matrix(lhs)
            self.explicit = pattern.matrix(hk)
            if self.coupling is not None:
                self.lhs = linalg.CoupledOperator(self.lhs, 0.5 * dt, self.coupling)
            self.dt, self.factor = dt, None
        return self.lhs, self.explicit

    def factorize(self, A):
        """A `StepFactor` of the step matrix A, or False (BiCGStab keeps A)
        when SuperLU finds A singular.  Each factor takes A[q][:, q], q the
        run's `dissection`: h times C's data, put in that order by the run's
        first factor, plus S0's, added at the int32 positions it fixes; the
        zeros of S0's Dirichlet rows go to a dump entry past the end."""
        if self.order is None:
            self._csc = self._first_factor_order()
        to_s, coupled, indices, indptr = self._csc
        data = np.zeros(indices.size + 1) if coupled is None else A.scale * coupled
        np.add.at(data, to_s, getattr(A, "matrix", A).data)
        permuted = sparse.csc_matrix((data[:-1], indices, indptr), shape=A.shape)
        try:
            return StepFactor(splu(permuted), self.order)
        except RuntimeError:
            return False

    def _first_factor_order(self):
        """`factorize`'s (to_s, coupled, indices, indptr); temporaries die here."""
        q = self.order = dissection(self.mesh, self.lattice)
        pattern = linalg.stencil(self.mesh)
        nnz = pattern.nnz
        # Slot numbers, permuted once: S0's slot + 1 (0 for the zeros of a
        # Dirichlet row) plus (nnz + 1) (C's + 1).
        where = pattern.matrix(np.arange(1, nnz + 1))
        diagonal = pattern.dirichlet_diagonal
        where.data[pattern.dirichlet_entries] = 0
        where.data[diagonal] = diagonal + 1
        if self.coupling is not None:
            C = self.coupling.matrix()
            where = where + sparse.csr_matrix(((nnz + 1) * np.arange(
                1, C.nnz + 1), C.indices, C.indptr), shape=C.shape)
        where = where[q][:, q].tocsc()
        where.eliminate_zeros()
        coupled = None if self.coupling is None else np.append(np.append(
            C.data, 0.0)[where.data // (nnz + 1) - 1], 0.0)   # then the dump
        where.data %= nnz + 1                      # S0's slot + 1, 0 for none
        # Each S0 slot's position; the trimmed zeros keep the dump past the end.
        to_s = np.full(nnz + 1, where.nnz, dtype=np.int32)
        to_s[where.data] = np.arange(where.nnz, dtype=np.int32)
        return to_s[1:], coupled, where.indices, where.indptr

    def source_vector(self, t):
        """CV integrals of the source f(., t) over free control volumes: the
        kept spatial part combined with t, then integrated; of a separable
        source, rate(t) times its profile's."""
        if self._source[0] == t:
            return self._source[1]
        if self.separable is not None:
            out = self.separable.rate(t) * self.profile_cv
        elif self.source is None:
            out = np.zeros(self.mesh.n_vertices)
        else:
            fv = QuadratureField(self.mesh, self.source_parts.combine(
                self.source_spatial, t))
            out = self.source_cv @ fv.values.ravel()
        self._source[:] = (t, out)
        return out

    def data_vector(self, functional_values):
        """Nudging data term mu * integral of the reconstructed measurements
        over each CV, mu (A_y (x) A_x) d, Dirichlet rows included."""
        return self.mu * kron_apply(*self.coupling.factors, functional_values)

    def dirichlet_values(self, t):
        rows = self.mesh.dirichlet_vertices
        if self.dirichlet is None:
            return rows, np.zeros(rows.size)
        x, y = self.mesh.vertices[rows, 0], self.mesh.vertices[rows, 1]
        return rows, np.asarray(self.dirichlet(x, y, t), dtype=float) * np.ones(rows.size)


class NudgingCoupling:
    """C = mu (A_y f_y) (x) (A_x f_x), Dirichlet rows zero: coupling(x, h) is h C x,
    h mu (A_y (x) A_x) F x; `diagonal` is diag(C); `matrix()` is C as canonical CSR."""

    def __init__(self, mu, factors, grid):
        self.mu, self.factors, self.grid = mu, factors, grid
        self.products = tuple(a @ f for a, f in zip(factors, (grid.fy, grid.fx)))
        self.diagonal = mu * np.outer(*(p.diagonal() for p in self.products)).ravel()
        self.diagonal[grid.mesh.dirichlet_vertices] = 0.0

    def __call__(self, x, scale):
        out = kron_apply(*self.factors, scale * self.mu * self.grid.functional_values(x))
        out[self.grid.mesh.dirichlet_vertices] = 0.0
        return out

    def matrix(self):
        C = sparse.kron(*self.products, format="csr")
        C.data *= np.repeat(self.mu * ~self.grid.mesh.is_dirichlet, np.diff(C.indptr))
        C.eliminate_zeros()
        return C


def upwind_slots(mesh):
    """The stencil's `RowSlots` of each element's `_UPWIND_ENTRIES`, in
    that order, built once per mesh."""
    return mesh.constant("upwind_slots", lambda m: linalg.stencil(
        m).row_slots.select(_UPWIND_ENTRIES))


def cv_mass_factors(mesh):
    """(m_y, m_x), the 1-D CV masses `cell_sum` of the blocks `_cv_block`
    over the ny and the nx cells, tridiagonal CSR: M = m_y (x) m_x, and the
    CV integrals of the coarse basis are m_y p_y (x) m_x p_x.  Built once
    per mesh."""
    return mesh.constant("cv_mass_factors", lambda m: (
        cell_sum(_cv_block(m.hy), m.ny), cell_sum(_cv_block(m.hx), m.nx)))


def cv_mass(mesh):
    """The CV mass M on `linalg.stencil(mesh)`, Dirichlet rows zero: entry
    (v, w), w at lattice offset (dy, dx) from v = (j, i), is
    m_y[j, j + dy] m_x[i, i + dx] (`cv_mass_factors`), which equals
    `sum_blocks` of the constant block c_y (x) c_x bitwise on every mesh
    tested.  A row of m depends only on whether its point is first, inner
    or last, so a lattice row's data is its first vertex's, nx - 1 copies
    of an inner vertex's and its last vertex's, and every inner lattice
    row's data is the same; they are copied into place."""
    pattern = linalg.stencil(mesh)
    # The first, an inner and the last row of each 1-D mass.
    ys, xs = ([m.data[m.indptr[r]:m.indptr[r + 1]]
               for r in (0, 1, m.shape[0] - 1)] for m in cv_mass_factors(mesh))

    def lattice_row(y):
        first, inner, last = (np.outer(y, x).ravel() for x in xs)
        return np.concatenate([first, np.tile(inner, mesh.nx - 1), last])

    first, inner, last = (lattice_row(y) for y in ys)
    mass = np.empty(pattern.nnz)
    mass[:first.size] = first
    mass[first.size:-last.size].reshape(-1, inner.size)[:] = inner
    mass[-last.size:] = last
    mass[pattern.dirichlet_entries] = 0.0
    return mass


def _cv_block(h):
    """(2, 2): entry (a, b) is the integral of hat b of a cell of length h
    over the cell's half at end a, by the rule's 1-D factor."""
    return 0.25 * h * CELL_HATS.reshape(2, 2, 2).sum(axis=2).T


def _cv_integration(mesh, free):
    """The CV integrals of a function known at the quadrature points, as a
    CSR matrix (nv, ne * 16) on the flattened (ne, 16) values.  Row v holds
    the weight at every point of v's CV in point order, so a product sums as
    `np.bincount` over the points would; Dirichlet rows are empty."""
    quad = quadrature(mesh)
    rows = mesh.element_corners()[:, quad.owner_corner].ravel()   # CV of each point
    points = np.flatnonzero(free[rows])
    return linalg.SparseMatrix(
        (np.full(points.size, quad.weight), (rows[points], points)),
        shape=(mesh.n_vertices, quad.x.size))


def assemble_step(theta_old, coeffs, step, observations=None):
    """Assemble the trapezoidal system for one fine step of the run `coeffs`
    with its current velocity; returns (A, rhs)."""
    dt = step.dt
    if dt <= 0:
        raise ValueError(f"nonpositive step from {step.t_start} to {step.t_end}")
    A, explicit = coeffs.matrices(dt)
    rhs = explicit @ theta_old.values
    rhs += 0.5 * dt * (coeffs.source_vector(step.t_start)
                       + coeffs.source_vector(step.t_end))
    if coeffs.mu > 0.0:
        if observations is None:
            raise ValueError("nudging requires an observation stream")
        d = observations.interpolate(step.t_start) + observations.interpolate(step.t_end)
        # E's -h C theta joins the data term: h mu (A_y (x) A_x)(d - F theta).
        d -= coeffs.grid.functional_values(theta_old.values)
        rhs += 0.5 * dt * coeffs.data_vector(d)
    dir_rows, dir_vals = coeffs.dirichlet_values(step.t_end)
    rhs[dir_rows] = dir_vals
    return A, rhs


def step(theta_old, coeffs, step_spec, observations=None, solver=None,
         later_steps=0):
    """Advance one fine step of the run `coeffs` with its current velocity;
    returns (NodalField, SolveReport).

    The step solves by the velocity's factor when it has one; the first step
    of a velocity makes it at once when the run factors by cost and
    `later_steps`, the steps after this one with the same velocity, is
    positive.  Otherwise it solves by Jacobi-BiCGStab to the tolerances of
    `solver` (`SolverConfig()` if None), and when that took k iterations
    with k * later_steps > sqrt(n), n vertices, it factors for the later
    steps: with a fill-reducing ordering a factor of a 2-D stencil matrix
    costs about sqrt(n) iterations (within 15 % on examples 1 and 4).  A
    factor solve that misses the tolerance is redone by BiCGStab, which
    keeps the velocity, and the next velocity probes.  A BiCGStab breakdown
    is logged and solved by a factor that the later steps reuse (`recovery`
    "lu"; it meets the cost rule by its own k); when that factor is singular
    or misses the tolerance, the breakdown's `NoConvergenceError` is raised,
    as is an iteration cap.
    """
    solver = solver or linalg.SolverConfig()
    A, rhs = assemble_step(theta_old, coeffs, step_spec, observations)
    if coeffs.factor is None and later_steps > 0 and coeffs.factor_at_once:
        coeffs.factor = coeffs.factorize(A)
    if coeffs.factor:
        solved = coeffs.factor.solve(A, rhs, solver)
        if solved is not None:
            return NodalField(coeffs.mesh, solved[0]), solved[1]
        _log.warning("%s: the sparse LU solve missed the tolerance; "
                     "back to BiCGStab", _where(step_spec))
        coeffs.factor = False
        coeffs.factor_at_once = False
    try:
        x, report = linalg.solve(A, rhs, solver, x0=theta_old.values)
    except linalg.NoConvergenceError as exc:
        if not exc.breakdown:
            raise
        _log.warning("%s: %s; solving by sparse LU", _where(step_spec), exc)
        factor = coeffs.factorize(A)
        solved = factor and factor.solve(A, rhs, solver)
        if not solved:
            raise
        coeffs.factor = factor
        if exc.report.iterations * later_steps > math.sqrt(A.shape[0]):
            coeffs.factor_at_once = True
        x, report = solved
        report.recovery = "lu"
    if (coeffs.factor is None
            and report.iterations * later_steps > math.sqrt(A.shape[0])):
        coeffs.factor = coeffs.factorize(A)
        coeffs.factor_at_once = bool(coeffs.factor)
    return NodalField(coeffs.mesh, x), report


def _where(step_spec):
    return (f"transport step {float(step_spec.t_start)!r} -> "
            f"{float(step_spec.t_end)!r}")


def splu(A):
    """SuperLU factor of a step matrix in CSC form, already in its factor
    ordering (`dissection`), so its columns stay in natural order; symmetric
    mode, pivot threshold 0.1.  Raises RuntimeError if A is singular.  On
    example4's nudged step matrix at nx = 240 the dissection gives 4.75 M
    L + U entries, where minimum degree on A^T + A gives 4.96 M."""
    return _superlu(A, permc_spec="NATURAL", diag_pivot_thresh=0.1,
                    options={"SymmetricMode": True})


class StepFactor:
    """The sparse LU factor `lu` of A[order][:, order], for one step matrix
    A."""

    def __init__(self, lu, order):
        self.lu = lu
        self.order = order

    def solve(self, A, rhs, solver):
        """(x, SolveReport), or None when the residual against A misses the
        solver's tolerance, max(rel_tol * ||rhs||, `linalg.ABS_TOL`), as
        BiCGStab's does.  Both norms are `np.einsum` reductions, which call
        no BLAS: OpenBLAS's dot product wakes a second thread above 10,000
        entries, and in some processes a call then takes milliseconds."""
        x = np.empty_like(rhs)
        x[self.order] = self.lu.solve(rhs[self.order])
        residual = _norm(rhs - A @ x)
        if not residual <= max(solver.rel_tol * _norm(rhs), linalg.ABS_TOL):
            return None
        return x, linalg.SolveReport(0, residual, True, factored=True)


def _norm(v):
    """The Euclidean norm of a vector by one `np.einsum` reduction."""
    return float(np.sqrt(np.einsum("i,i->", v, v)))


def prescribed_outflux(mesh, velocity, theta_frozen):
    """Segment outflux for an analytic velocity closure v(x, y, theta).

    Used by scenarios that bypass the pressure solve; the frozen concentration
    is clamped to [0, 1] before entering the closure, mirroring the treatment
    of the permeability.
    """
    quad = quadrature(mesh)
    corners = theta_frozen.corner_values()[:, None, :]          # (ne, 1, 4)
    th = np.clip(np.sum(quad.seg_phi * corners, axis=2), 0.0, 1.0)   # (ne, 4)
    th = th.reshape(quad.seg_x.shape)                           # (ny, nx, 4)
    vx, vy = velocity(quad.seg_x, quad.seg_y, th)
    vn = np.where(np.broadcast_to(SEG_NORMAL_AXIS == 0, th.shape), vx, vy)
    return (vn * quad.seg_len).ravel()
