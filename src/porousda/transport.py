"""Finite-volume transport step with upwinding and nudging.

One implicit trapezoidal step of the concentration equation on the dual mesh:
accumulation over each control volume, diffusive flux from bilinear gradients
at face midpoints, advective flux upwinded by the sign of the frozen normal
velocity (a zero velocity contributes nothing, so the tie-break is moot),
reaction and sources integrated with the shared 16-point rule, and the
relaxation term mu * (interpolated mismatch) treated implicitly in the
unknown and explicitly in the data.  All non-accumulation terms carry the
trapezoidal weight 1/2 at both endpoint times.  Dirichlet vertices are
constrained rows; Neumann faces of clipped control volumes carry zero total
flux, matching the no-flow closure of the model.

Mass, reaction, diffusion, advection and the Dirichlet diagonal live on the
mesh's fixed stencil pattern (`linalg.stencil`).  Each is reduced to one 4x4
block per element first: the four Gauss points of a quadrant share the
control volume of that quadrant's corner, and every dual-mesh segment lies in
one element, with both of its control volumes and its upwind vertex at that
element's corners.  The blocks are summed into the pattern in element order,
which is deterministic but not value-sorted.  The nudging operator couples
vertices to coarse lattice columns, off the pattern.  Each coarse hat is
exactly the fine bilinear field of its column of the grid's prolongation P,
so the CV integrals of the coarse basis are `mass @ P`.  The source is
evaluated at the mesh's quadrature points and summed into the free control
volumes by one CSR product, with an integration matrix built with the static
operators when the problem has a source.

Each step solves its step matrix, mass + dt/2 * K plus the Dirichlet rows.
A coefficient bundle lives exactly as long as its velocity: the driver makes
one per computed velocity (`with_velocity`), and every step of a run takes
the run's nominal size, so a bundle holds one slot: step size, step matrix
and factor decision.  `step` chooses the solver by cost.  A step solves by
Jacobi-BiCGStab, and if that took k iterations and k times the number of
steps the bundle still has to solve exceeds sqrt(n), n vertices, the matrix
is factored once (`splu`) and the later steps reuse the factor: with a
fill-reducing ordering, a factor of a 2-D stencil matrix costs about sqrt(n)
BiCGStab iterations (within 15 % on examples 1 and 4), and a solve by it
costs a few, which the rule leaves out.  A run that factors decides once:
after a bundle has factored by this rule, every later bundle of the run with
steps after its first factors its matrix at its first step, without that
BiCGStab probe, since its matrix differs only by the advection of a new
velocity.  The run's first factor orders its columns by minimum degree; the
step matrices of a run lie on one sparsity pattern, so every later factor of
the run reuses that ordering instead of computing its own.  A BiCGStab
breakdown is treated as a solve that costs more than the factor: the step is
solved by a factor of its matrix, which the later steps reuse, and its
report's `recovery` is "lu".  The breakdown's own k iterations decide, by the
same rule, whether the next bundle skips its probe: a breakdown that would
have factored by cost anyway makes the run factor at once.  The factor is freed with its bundle; it has 50-80 entries per
vertex on the built-in scenarios (12 MiB at n = 14,641).  Every solve by a
factor has its residual checked against the BiCGStab tolerance; a solve that
misses it is redone by BiCGStab, which then solves the bundle's later steps,
and the run's next bundle probes again.  Sibling bundles share the run's
factor state and one cached source vector: a step reads the source at its
start, where the step before read it.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu as _superlu

from . import linalg
from .fields import NodalField, cv_flux_blocks, quadrature
from .mesh import SEG_LEFT_CORNER, SEG_RIGHT_CORNER

_log = logging.getLogger("porousda")


def _upwind_blocks(upwind_corner):
    """Per segment type, the element block of a unit outflux upwinded at the
    given corner: it leaves the CV of the segment's left corner (+1) and
    enters that of its right corner (-1), both in the upwind corner's
    column."""
    blocks = np.zeros((4, 4, 4))
    t = np.arange(4)
    blocks[t, SEG_LEFT_CORNER, upwind_corner] += 1.0
    blocks[t, SEG_RIGHT_CORNER, upwind_corner] -= 1.0
    return blocks


# Positive outflux is upwinded at the left corner, negative at the right one.
_UPWIND_LEFT = _upwind_blocks(SEG_LEFT_CORNER)
_UPWIND_RIGHT = _upwind_blocks(SEG_RIGHT_CORNER)


@dataclass
class TransportStep:
    """One fine step from t_start to t_end, of size dt.

    dt defaults to t_end - t_start.  The driver passes the run's nominal
    fine step (time span / number of fine steps) instead: the fine times are
    a linspace, whose differences vary in the last bit, and a coefficient
    bundle keeps the step matrix and its LU factor of one step size only.
    """

    t_start: float
    t_end: float
    dt: float | None = None

    def __post_init__(self):
        if self.dt is None:
            self.dt = self.t_end - self.t_start


class TransportCoefficients:
    """Coefficient bundle for the transport steps of one frozen velocity.

    The static operators (mass, diffusion, reaction, Dirichlet rows and the
    nudging operators) are built once, at construction; `with_velocity`
    produces a sibling for a new velocity that shares them, the one-entry
    source cache, (t, vector), and the run's factor state (`RunFactors`).
    The bundle holds one slot, `_step = (dt, step matrix, factor)`, where the
    factor is a `StepFactor`, False where BiCGStab keeps the matrix, or None
    while undecided; a step of another size replaces the slot, and the
    factor lives as long as the bundle.
    """

    def __init__(self, mesh, diffusion, reaction=None, source=None, mu=0.0,
                 grid=None, velocity_outflux=None, dirichlet=None):
        if mu < 0:
            raise ValueError(f"relaxation strength must be nonnegative, got {mu}")
        if mu > 0 and grid is None:
            raise ValueError("nudging (mu > 0) requires an observation grid")
        self.mesh = mesh
        self.diffusion = diffusion
        self.reaction = reaction
        self.source = source
        self.mu = float(mu)
        self.grid = grid
        self.velocity_outflux = velocity_outflux
        self.dirichlet = dirichlet
        self._static = self._build_static()
        self._k_matrix = None
        self._step = None
        self._source = [None, None]     # (t, vector), shared by siblings
        self._run = RunFactors()        # shared by siblings

    def with_velocity(self, outflux):
        sib = TransportCoefficients.__new__(TransportCoefficients)
        sib.__dict__.update(self.__dict__)
        sib.velocity_outflux = outflux
        sib._k_matrix = None
        sib._step = None
        return sib

    # -- static operators ---------------------------------------------------

    def _build_static(self):
        mesh = self.mesh
        quad = quadrature(mesh)
        pattern = linalg.stencil(mesh)
        free = ~mesh.is_dirichlet

        x, y = quad.x, quad.y
        # The four Gauss points of quadrant a all sit in the CV of corner a.
        phi_quadrant = quad.weight * quad.phi.reshape(4, 4, 4)   # (a, point, b)

        mass = pattern.scatter(np.broadcast_to(phi_quadrant.sum(axis=1),
                                               (mesh.n_elements, 4, 4)), free)
        if self.reaction is not None:
            qv = np.asarray(self.reaction(x, y), dtype=float) * np.ones_like(x)
            reac = pattern.scatter(
                np.einsum("eap,apb->eab", qv.reshape(-1, 4, 4), phi_quadrant),
                free)
        else:
            reac = None

        # Diffusive flux term: -sum over CV faces of D grad(theta) . n.
        dq = np.asarray(self.diffusion(mesh.seg_mid[:, 0], mesh.seg_mid[:, 1]),
                        dtype=float) * np.ones(mesh.n_segments)
        diff = pattern.scatter(cv_flux_blocks(mesh, dq.reshape(-1, 4)), free)

        dir_rows = np.flatnonzero(mesh.is_dirichlet)
        dir_data = np.zeros(pattern.nnz)
        dir_data[pattern.diagonal_slots[dir_rows]] = 1.0
        dir_diag = pattern.matrix(dir_data)

        static = {"mass": mass, "reac": reac, "diff": diff, "dir_diag": dir_diag,
                  "dir_rows": dir_rows, "free": free}
        if self.source is not None:
            static["source_cv"] = _cv_integration(mesh, free)

        if self.grid is not None:
            # CV integrals of the coarse observation basis, (nv, n_obs); the
            # product's columns come out unsorted.
            static["nudge_cv"] = mass @ self.grid.prolong_matrix
            static["nudge_cv"].sort_indices()
            static["nudge_k"] = (static["nudge_cv"]
                                 @ self.grid.functional_matrix()).tocsr()
        return static

    # -- per-interval operators ----------------------------------------------

    def _advection_matrix(self):
        """Upwinded advective outflux, scattered per element: every segment
        lies in one element, and its two CVs and upwind vertex are corners
        of that element."""
        mesh = self.mesh
        U = np.asarray(self.velocity_outflux, dtype=float)
        if U.shape != (mesh.n_segments,):
            raise ValueError(f"expected {mesh.n_segments} segment outflux values")
        U = U.reshape(-1, 4)
        local = (np.maximum(U, 0.0) @ _UPWIND_LEFT.reshape(4, 16)
                 + np.minimum(U, 0.0) @ _UPWIND_RIGHT.reshape(4, 16))
        return linalg.stencil(mesh).scatter(local.reshape(-1, 4, 4),
                                            self._static["free"])

    def spatial_operator(self):
        """Everything multiplying theta except accumulation: K in M dtheta + K theta = F."""
        if self._k_matrix is not None:
            return self._k_matrix
        st = self._static
        K = st["diff"].copy()
        if self.velocity_outflux is not None:
            K = K + self._advection_matrix()
        if st["reac"] is not None:
            K = K + st["reac"]
        if self.mu > 0.0:
            K = K + self.mu * st["nudge_k"]
        self._k_matrix = K.tocsr()
        return self._k_matrix

    def _lhs_matrix(self, dt):
        if self._step is None or self._step[0] != dt:
            st = self._static
            lhs = (st["mass"] + 0.5 * dt * self.spatial_operator()
                   + st["dir_diag"]).tocsr()
            self._step = (dt, lhs, None)
        return self._step[1]

    def source_vector(self, t):
        """CV integrals of the source f(., t) over free control volumes."""
        if self._source[0] == t:
            return self._source[1]
        if self.source is None:
            out = np.zeros(self.mesh.n_vertices)
        else:
            quad = quadrature(self.mesh)
            fv = np.asarray(self.source(quad.x, quad.y, t), dtype=float)
            out = (self._static["source_cv"]
                   @ np.broadcast_to(fv, quad.x.shape).ravel())
        self._source[:] = (t, out)
        return out

    def data_vector(self, functional_values):
        """Nudging data term mu * integral of the reconstructed measurements."""
        return self.mu * (self._static["nudge_cv"] @ functional_values)

    def dirichlet_values(self, t):
        rows = self._static["dir_rows"]
        if self.dirichlet is None:
            return rows, np.zeros(rows.size)
        x, y = self.mesh.vertices[rows, 0], self.mesh.vertices[rows, 1]
        return rows, np.asarray(self.dirichlet(x, y, t), dtype=float) * np.ones(rows.size)


def _cv_integration(mesh, free):
    """The CV integrals of a function known at the quadrature points, as a
    CSR matrix (nv, ne * 16) acting on the flattened (ne, 16) values.

    Row v holds the quadrature weight at every point in the control volume
    of v, in increasing point order, so a product sums each row in the order
    `np.bincount` over the points would.  The rows of Dirichlet vertices,
    which are constrained, are empty.
    """
    quad = quadrature(mesh)
    rows = mesh.elements[:, quad.owner_corner].ravel()         # CV of each point
    points = np.flatnonzero(free[rows])
    return linalg.SparseMatrix(
        (np.full(points.size, quad.weight), (rows[points], points)),
        shape=(mesh.n_vertices, quad.x.size))


def assemble_step(theta_old, coeffs, step, observations=None):
    """Assemble the trapezoidal system for one fine step; returns (A, rhs)."""
    dt = step.dt
    if dt <= 0:
        raise ValueError(f"nonpositive step from {step.t_start} to {step.t_end}")
    st = coeffs._static
    K = coeffs.spatial_operator()
    A = coeffs._lhs_matrix(dt)
    told = theta_old.values
    rhs = st["mass"] @ told - 0.5 * dt * (K @ told)
    rhs += 0.5 * dt * (coeffs.source_vector(step.t_start)
                       + coeffs.source_vector(step.t_end))
    if coeffs.mu > 0.0:
        if observations is None:
            raise ValueError("nudging requires an observation stream")
        d = observations.interpolate(step.t_start) + observations.interpolate(step.t_end)
        rhs += 0.5 * dt * coeffs.data_vector(d)
    dir_rows, dir_vals = coeffs.dirichlet_values(step.t_end)
    rhs[dir_rows] = dir_vals
    return A, rhs


def step(theta_old, coeffs, step_spec, observations=None, solver=None,
         later_steps=0):
    """Advance one fine step; returns (NodalField, SolveReport).

    `later_steps` is how many more steps the bundle `coeffs` will solve
    with the same step matrix.  A step solves by the bundle's factor when it
    has one; the first step of a bundle makes that factor at once when an
    earlier bundle of the run factored by cost and later_steps > 0.
    Otherwise it solves by Jacobi-BiCGStab to the tolerances of `solver` (a
    `linalg.SolverConfig`, the default one when None), and if that took k
    iterations with k * later_steps > sqrt(n), the matrix is factored for
    the later steps (see the module docstring).  A factor solve that misses
    the tolerance is redone by BiCGStab, which keeps the bundle's later
    steps, and the run's next bundle probes by BiCGStab again.

    A BiCGStab breakdown is logged, and the step is solved by a factor of
    its matrix, which the bundle's later steps reuse (they share its step
    size; see `TransportStep`); the report's `recovery` is "lu".  When the
    breakdown's own k iterations meet the cost rule, k * later_steps >
    sqrt(n), the run's later bundles factor at once, as after a factor made
    by that rule.  When that
    factor is singular or its solve misses the tolerance, the breakdown's
    `NoConvergenceError` is raised.  An iteration cap that is reached
    without a breakdown is the caller's budget and stays an error too.
    """
    solver = solver or linalg.SolverConfig()
    A, rhs = assemble_step(theta_old, coeffs, step_spec, observations)
    run = coeffs._run
    dt, _, factor = coeffs._step
    if factor is None and later_steps > 0 and run.factor_at_once:
        factor = run.factor(A)
        coeffs._step = (dt, A, factor)
    if factor:
        solved = factor.solve(A, rhs, solver)
        if solved is not None:
            return NodalField(coeffs.mesh, solved[0]), solved[1]
        _log.warning("%s: the sparse LU solve missed the tolerance; "
                     "back to BiCGStab", _where(step_spec))
        coeffs._step = (dt, A, False)
        run.factor_at_once = False
    try:
        x, report = linalg.solve(A, rhs, solver, x0=theta_old.values)
    except linalg.NoConvergenceError as exc:
        if not exc.breakdown:
            raise
        _log.warning("%s: %s; solving by sparse LU", _where(step_spec), exc)
        factor = run.factor(A)
        solved = factor and factor.solve(A, rhs, solver)
        if not solved:
            raise
        coeffs._step = (dt, A, factor)
        if exc.report.iterations * later_steps > math.sqrt(A.shape[0]):
            run.factor_at_once = True
        x, report = solved
        report.recovery = "lu"
    if (coeffs._step[2] is None
            and report.iterations * later_steps > math.sqrt(A.shape[0])):
        coeffs._step = (dt, A, run.factor(A))
        run.factor_at_once = bool(coeffs._step[2])
    return NodalField(coeffs.mesh, x), report


def _where(step_spec):
    return (f"transport step {float(step_spec.t_start)!r} -> "
            f"{float(step_spec.t_end)!r}")


def splu(A, permc_spec="MMD_AT_PLUS_A"):
    """SuperLU factor of a step matrix in the column ordering `permc_spec`;
    raises RuntimeError if A is singular.

    SuperLU runs in symmetric mode, with a pivot threshold of 0.1 that keeps
    most pivots on the diagonal.  A run's first factor takes the default,
    minimum degree on the pattern of A^T + A; `RunFactors` factors the later
    ones in "NATURAL" order, having permuted them by the first one's
    ordering.  On a nudged example4 step matrix at nx = 120 the factor has
    about 1.04 M entries (12 MiB) either way; the reused ordering takes 23 %
    less time than minimum degree there, 43 % at nx = 240 and 5 % on
    example1 at nx = 60.  scipy's default COLAMD ordering gives 1.5 M
    entries and takes 1.6-2 times as long to factor.
    """
    return _superlu(A.tocsc(), permc_spec=permc_spec, diag_pivot_thresh=0.1,
                    options={"SymmetricMode": True})


class RunFactors:
    """The factor state that the bundles of one run share.

    `factor_at_once`: a bundle of the run has factored by the cost rule, or
    after a breakdown that met it, and no factor solve has missed the
    tolerance since, so the next bundle factors at its first step (see
    `step`).  `order`: the fill-reducing
    ordering of the run's first factor, q with A[:, q] = A Pc, set by that
    factor.  The step matrices of a run lie on one sparsity pattern, so every
    later factor, a breakdown's included, factors A[q][:, q] in that order.
    """

    def __init__(self):
        self.factor_at_once = False
        self.order = None

    def factor(self, A):
        """A `StepFactor` of A, or False (BiCGStab keeps A) when SuperLU
        finds A singular."""
        try:
            if self.order is None:
                factor = StepFactor(splu(A))
                self.order = np.argsort(factor.lu.perm_c)
                return factor
            # Permuted as CSC, which `splu` then factors without a copy.
            permuted = A.tocsc()[:, self.order][self.order]
            return StepFactor(splu(permuted, "NATURAL"), self.order)
        except RuntimeError:
            return False


class StepFactor:
    """The sparse LU factor `lu` of one step matrix A, or of A[order][:, order]
    when `order` is given."""

    def __init__(self, lu, order=None):
        self.lu = lu
        self.order = order

    def solve(self, A, rhs, solver):
        """(x, SolveReport), or None when the residual against A misses the
        solver's tolerance, max(rel_tol * ||rhs||, abs_tol), as BiCGStab's
        does."""
        if self.order is None:
            x = self.lu.solve(rhs)
        else:
            x = np.empty_like(rhs)
            x[self.order] = self.lu.solve(rhs[self.order])
        residual = float(np.linalg.norm(rhs - A @ x))
        if not residual <= max(solver.rel_tol * float(np.linalg.norm(rhs)),
                               solver.abs_tol):
            return None
        return x, linalg.SolveReport(0, residual, True, factored=True)


def prescribed_outflux(mesh, velocity, theta_frozen):
    """Segment outflux for an analytic velocity closure v(x, y, theta).

    Used by scenarios that bypass the pressure solve; the frozen concentration
    is clamped to [0, 1] before entering the closure, mirroring the treatment
    of the permeability.
    """
    quad = quadrature(mesh)
    phi = quad.seg_phi[mesh.seg_type]                           # (ns, 4)
    corners = theta_frozen.corner_values()[mesh.seg_elem]       # (ns, 4)
    th = np.clip(np.sum(phi * corners, axis=1), 0.0, 1.0)
    vx, vy = velocity(mesh.seg_mid[:, 0], mesh.seg_mid[:, 1], th)
    vn = np.where(mesh.seg_normal_axis == 0, vx, vy)
    return vn * mesh.seg_len
