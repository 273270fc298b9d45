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
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .fields import NodalField, quadrature


@dataclass
class TransportStep:
    t_start: float
    t_end: float

    @property
    def dt(self):
        return self.t_end - self.t_start


class TransportCoefficients:
    """Coefficient bundle for transport steps within one coarse interval.

    The static operators (mass, diffusion, reaction, Dirichlet rows and the
    nudging operators) are built once, at construction.  The velocity is
    frozen for the lifetime of the bundle; `with_velocity` produces a sibling
    for the next interval that shares the static operators.
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
        self._lhs = {}
        self._source_cache = {}

    def with_velocity(self, outflux):
        sib = TransportCoefficients.__new__(TransportCoefficients)
        sib.__dict__.update(self.__dict__)
        sib.velocity_outflux = outflux
        sib._k_matrix = None
        sib._lhs = {}
        return sib

    # -- static operators ---------------------------------------------------

    def _build_static(self):
        mesh = self.mesh
        quad = quadrature(mesh)
        nv = mesh.n_vertices
        free = ~mesh.is_dirichlet

        cv_rows = mesh.elements[:, quad.owner_corner]            # (ne, 16)
        pts = quad.global_points()
        x, y = pts[:, :, 0], pts[:, :, 1]

        def cv_matrix(weight_values):
            rows = np.repeat(cv_rows.ravel(), 4)
            cols = np.repeat(mesh.elements, 16, axis=0).reshape(-1, 4).ravel()
            phi = np.tile(quad.phi, (mesh.n_elements, 1))
            vals = (quad.weight * weight_values.reshape(-1, 1) * phi).ravel()
            keep = free[rows]
            return linalg.assemble(rows[keep], cols[keep], vals[keep], (nv, nv))

        mass = cv_matrix(np.ones(x.shape).ravel())
        if self.reaction is not None:
            qv = np.asarray(self.reaction(x, y), dtype=float) * np.ones_like(x)
            reac = cv_matrix(qv.ravel())
        else:
            reac = None

        # Diffusive flux term: -sum over CV faces of D grad(theta) . n.
        dq = np.asarray(self.diffusion(mesh.seg_mid[:, 0], mesh.seg_mid[:, 1]),
                        dtype=float) * np.ones(mesh.n_segments)
        dn = quad.seg_dphi_n[mesh.seg_type]                      # (ns, 4)
        flux = dq[:, None] * dn * mesh.seg_len[:, None]          # (ns, 4)
        cols = mesh.elements[mesh.seg_elem]                      # (ns, 4)
        rows = np.concatenate([np.repeat(mesh.seg_left, 4),
                               np.repeat(mesh.seg_right, 4)])
        cc = np.concatenate([cols.ravel(), cols.ravel()])
        vv = np.concatenate([(-flux).ravel(), flux.ravel()])
        keep = free[rows]
        diff = linalg.assemble(rows[keep], cc[keep], vv[keep], (nv, nv))

        dir_rows = np.flatnonzero(mesh.is_dirichlet)
        dir_diag = linalg.assemble(dir_rows, dir_rows, np.ones(dir_rows.size),
                                   (nv, nv))

        static = {"mass": mass, "reac": reac, "diff": diff, "dir_diag": dir_diag,
                  "dir_rows": dir_rows, "cv_rows": cv_rows, "free": free}

        if self.grid is not None:
            static["nudge_cv"] = self._build_nudge_cv(cv_rows, free)
            static["nudge_k"] = (static["nudge_cv"]
                                 @ self.grid.functional_matrix()).tocsr()
        return static

    def _build_nudge_cv(self, cv_rows, free):
        """CV integrals of the coarse observation basis, shape (nv, n_obs)."""
        quad = quadrature(self.mesh)
        cols, w = self.grid.basis_at(quad.global_points().reshape(-1, 2))
        w = w * quad.weight
        rows = np.repeat(cv_rows.ravel(), 4)
        keep = free[rows]
        return linalg.assemble(rows[keep], cols.ravel()[keep], w.ravel()[keep],
                               (self.mesh.n_vertices, self.grid.n_obs))

    # -- per-interval operators ----------------------------------------------

    def _advection_matrix(self):
        mesh = self.mesh
        U = np.asarray(self.velocity_outflux, dtype=float)
        if U.shape != (mesh.n_segments,):
            raise ValueError(f"expected {mesh.n_segments} segment outflux values")
        free = self._static["free"]
        act = np.flatnonzero(U != 0.0)
        up = np.where(U[act] > 0.0, mesh.seg_left[act], mesh.seg_right[act])
        rows = np.concatenate([mesh.seg_left[act], mesh.seg_right[act]])
        cols = np.concatenate([up, up])
        vals = np.concatenate([U[act], -U[act]])
        keep = free[rows]
        return linalg.assemble(rows[keep], cols[keep], vals[keep],
                               (mesh.n_vertices, mesh.n_vertices))

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
        lhs = self._lhs.get(dt)
        if lhs is None:
            st = self._static
            lhs = (st["mass"] + 0.5 * dt * self.spatial_operator()
                   + st["dir_diag"]).tocsr()
            self._lhs[dt] = lhs
        return lhs

    def source_vector(self, t):
        """CV integrals of the source f(., t) over free control volumes."""
        cached = self._source_cache.get(t)
        if cached is not None:
            return cached
        st = self._static
        out = np.zeros(self.mesh.n_vertices)
        if self.source is not None:
            quad = quadrature(self.mesh)
            pts = quad.global_points()
            fv = np.asarray(self.source(pts[:, :, 0], pts[:, :, 1], t),
                            dtype=float) * np.ones(pts.shape[:2])
            rows = st["cv_rows"].ravel()
            keep = st["free"][rows]
            np.add.at(out, rows[keep], (quad.weight * fv).ravel()[keep])
        if len(self._source_cache) > 8:
            self._source_cache.clear()
        self._source_cache[t] = out
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


def step(theta_old, coeffs, step_spec, observations=None, solver=None):
    """Advance one fine step; returns (NodalField, SolveReport)."""
    solver = solver or linalg.SolverConfig(method="bicgstab", preconditioner="jacobi")
    A, rhs = assemble_step(theta_old, coeffs, step_spec, observations)
    x, report = linalg.solve(A, rhs, solver, x0=theta_old.values)
    return NodalField(coeffs.mesh, x), report


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
