import numpy as np
import pytest

import dense_reference as dr
from porousda import linalg, transport
from porousda.fields import NodalField
from porousda.linalg import SolverConfig
from porousda.mesh import build_mesh
from porousda.observation import (ObservationGapError, ObservationStream,
                                  SparseGrid)
from porousda.transport import (TransportCoefficients, TransportStep,
                                assemble_step, prescribed_outflux, step)

D_SMALL = lambda x, y: 1e-12 * np.ones_like(x)


def _neumann_mesh(n=6):
    return build_mesh(n, n, boundary_spec="all_neumann")


def test_constant_reaction_reduces_to_scalar_ode():
    """With v=0, D~0, f=0 and constant data the step is the trapezoidal map
    c -> c (1 - q dt/2) / (1 + q dt/2)."""
    mesh = _neumann_mesh(3)
    q = 0.7
    dt = 0.05
    coeffs = TransportCoefficients(
        mesh, diffusion=D_SMALL, reaction=lambda x, y: q * np.ones_like(x))
    theta = NodalField.from_callable(mesh, lambda x, y: 0.9 + 0.0 * x)
    factor = (1.0 - 0.5 * q * dt) / (1.0 + 0.5 * q * dt)
    expect = 0.9
    t = 0.0
    for _ in range(3):
        theta, _ = step(theta, coeffs, TransportStep(t, t + dt),
                        solver=SolverConfig(rel_tol=1e-14))
        t += dt
        expect *= factor
        np.testing.assert_allclose(theta.values, expect, rtol=1e-12)


def test_constant_state_is_steady_without_forcing():
    mesh = _neumann_mesh(4)
    coeffs = TransportCoefficients(mesh,
                                   diffusion=lambda x, y: 0.3 * np.ones_like(x))
    theta = NodalField.from_callable(mesh, lambda x, y: 0.42 + 0.0 * x)
    out, _ = step(theta, coeffs, TransportStep(0.0, 0.1))
    np.testing.assert_allclose(out.values, 0.42, atol=1e-13)


def test_nudging_is_noop_on_matching_data():
    """If observed data equals the observation of theta at both endpoints,
    the relaxation contributes (A_mu - A_0) theta = b_mu - b_0 exactly."""
    mesh = build_mesh(10, 10)
    grid = SparseGrid(mesh, 0.2)
    rng = np.random.default_rng(0)
    theta = NodalField(mesh, rng.random(mesh.n_vertices))
    d = grid.sample(theta)
    stream = ObservationStream([0.0, 1.0], np.vstack([d, d]))
    kw = dict(diffusion=lambda x, y: 0.01 * np.ones_like(x))
    plain = TransportCoefficients(mesh, **kw)
    nudged = TransportCoefficients(mesh, mu=40.0, grid=grid, **kw)
    spec = TransportStep(0.0, 0.02)
    a0, b0 = assemble_step(theta, plain, spec)
    a1, b1 = assemble_step(theta, nudged, spec, observations=stream)
    lhs_change = a1 @ theta.values - a0 @ theta.values
    rhs_change = b1 - b0
    np.testing.assert_allclose(lhs_change, rhs_change, atol=1e-13)


def test_full_system_matches_dense_oracle():
    mesh = build_mesh(4, 4)
    spacing = 0.25
    grid = SparseGrid(mesh, spacing)
    rng = np.random.default_rng(21)
    theta = NodalField(mesh, rng.random(mesh.n_vertices))
    diffusion = lambda x, y: 0.05 + 0.02 * x
    reaction = lambda x, y: 0.3 + 0.1 * y
    source = lambda x, y, t: np.sin(x + t) * np.cos(y)
    dirichlet = lambda x, y, t: 0.1 * t * (1.0 - x)
    outflux = rng.standard_normal(mesh.n_segments)
    d0 = rng.random(grid.n_obs)
    d1 = rng.random(grid.n_obs)
    stream = ObservationStream([0.0, 0.02], np.vstack([d0, d1]))
    mu = 50.0
    coeffs = TransportCoefficients(mesh, diffusion=diffusion,
                                   reaction=reaction, source=source, mu=mu,
                                   grid=grid, dirichlet=dirichlet)
    coeffs.set_velocity(outflux)
    a, rhs = assemble_step(theta, coeffs, TransportStep(0.0, 0.02),
                           observations=stream)
    a_ref, rhs_ref = dr.dense_transport_system(
        mesh, theta.values, 0.02, 0.0, 0.02, diffusion, reaction, source, mu,
        spacing, outflux, d0, d1, dirichlet)
    np.testing.assert_allclose(dr.joined(a).toarray(), a_ref, atol=1e-12)
    np.testing.assert_allclose(rhs, rhs_ref, atol=1e-12)


def test_mass_conserved_under_advection():
    """All-Neumann box with divergence-free transport keeps total mass."""
    mesh = _neumann_mesh(8)
    outflux = prescribed_outflux(mesh, lambda x, y, th: (np.ones_like(x),
                                                         np.zeros_like(x)),
                                 NodalField.zeros(mesh))
    coeffs = TransportCoefficients(
        mesh, diffusion=lambda x, y: 0.01 * np.ones_like(x))
    coeffs.set_velocity(outflux)
    theta = NodalField.from_callable(
        mesh, lambda x, y: np.exp(-8.0 * ((x - 0.4) ** 2 + (y - 0.5) ** 2)))
    quad_mass = lambda f: dr.integrate(mesh, f)
    m0 = quad_mass(theta)
    t = 0.0
    for _ in range(5):
        theta, _ = step(theta, coeffs, TransportStep(t, t + 0.01),
                        solver=SolverConfig(rel_tol=1e-13))
        t += 0.01
    assert quad_mass(theta) == pytest.approx(m0, rel=1e-10)


def test_mass_balance_with_source_term():
    """d/dt (total mass) = integral of f under all-Neumann, no reaction."""
    mesh = _neumann_mesh(6)
    source = lambda x, y, t: (1.0 + t) * np.cos(np.pi * x)
    coeffs = TransportCoefficients(
        mesh, diffusion=lambda x, y: 0.05 * np.ones_like(x), source=source)
    theta = NodalField.from_callable(mesh, lambda x, y: x * (1.0 - x))
    dt = 0.02
    m0 = dr.integrate(mesh, theta)
    theta, _ = step(theta, coeffs, TransportStep(0.0, dt),
                    solver=SolverConfig(rel_tol=1e-14))
    m1 = dr.integrate(mesh, theta)
    gain = 0.5 * dt * (dr.integrate(mesh, source, t=0.0)
                          + dr.integrate(mesh, source, t=dt))
    assert m1 - m0 == pytest.approx(gain, abs=1e-12)


def test_stronger_nudging_pulls_closer_to_data():
    """One step from a wrong state: the observed mismatch shrinks with mu,
    strictly, over the pre-overshoot range of the time integrator."""
    mesh = build_mesh(10, 10)
    grid = SparseGrid(mesh, 0.2)
    target = NodalField.from_callable(
        mesh, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    d = grid.sample(target)
    stream = ObservationStream([0.0, 1.0], np.vstack([d, d]))
    start = NodalField.zeros(mesh)
    dt = 0.05
    mismatch = []
    for mu in [0.0, 1.0, 10.0, 100.0]:
        kw = dict(diffusion=lambda x, y: 1e-6 * np.ones_like(x))
        if mu > 0:
            kw.update(mu=mu, grid=grid)
        coeffs = TransportCoefficients(mesh, **kw)
        out, _ = step(start, coeffs, TransportStep(0.0, dt),
                      observations=stream if mu > 0 else None)
        mismatch.append(np.linalg.norm(grid.sample(out) - d))
    assert all(b < a for a, b in zip(mismatch, mismatch[1:]))
    # frozen from the first run of this configuration
    np.testing.assert_allclose(mismatch, [2.5000, 2.37805, 1.50000, 1.07143],
                               atol=2e-4)


def test_prescribed_outflux_uniform_velocity():
    mesh = build_mesh(2, 2, Lx=1.0, Ly=1.0)
    out = prescribed_outflux(mesh, lambda x, y, th: (np.ones_like(x),
                                                     np.zeros_like(x)),
                             NodalField.zeros(mesh))
    vertical = dr.segment_arrays(mesh).axis == 0
    np.testing.assert_allclose(out[vertical], mesh.hy / 2.0, atol=1e-14)
    np.testing.assert_allclose(out[~vertical], 0.0, atol=1e-14)


@pytest.mark.parametrize("nx, ny", [(12, 8), (5, 9)])
def test_prescribed_outflux_on_a_rectangle_matches_the_segment_oracle(nx, ny):
    """The closure sees each segment's midpoint with the concentration
    there, also when the x and y point tables differ in length."""
    mesh = build_mesh(nx, ny, Lx=1.5, Ly=1.0)

    def vel(x, y, th):
        return 1.0 + x * y + th, y - 0.5 * th

    theta = NodalField.from_callable(mesh, lambda x, y: 0.6 * x + 0.3 * y * y)
    out = prescribed_outflux(mesh, vel, theta)
    seg = dr.segment_arrays(mesh)
    th = np.clip(dr.field_value(theta, seg.mid), 0.0, 1.0)
    v = np.stack(vel(seg.mid[:, 0], seg.mid[:, 1], th), axis=-1)
    want = v[np.arange(seg.axis.size), seg.axis] * seg.length
    np.testing.assert_allclose(out, want, rtol=1e-14, atol=1e-15)


def test_prescribed_outflux_clamps_concentration():
    mesh = build_mesh(3, 3)
    seen = {}

    def vel(x, y, th):
        seen["lo"], seen["hi"] = float(np.min(th)), float(np.max(th))
        return np.ones_like(x), np.ones_like(x)

    wild = NodalField.from_callable(mesh, lambda x, y: 5.0 * np.sin(9.0 * x))
    prescribed_outflux(mesh, vel, wild)
    assert seen["lo"] >= 0.0 and seen["hi"] <= 1.0


def test_set_velocity_keeps_the_static_operators():
    """A new velocity empties the slot, step matrices and factor, and keeps
    the run's data vectors; both velocities' matrices lie on the stencil."""
    mesh = build_mesh(5, 5)
    coeffs = TransportCoefficients(mesh,
                                   diffusion=lambda x, y: np.ones_like(x))
    a_none, _ = coeffs.matrices(0.1)
    static = coeffs.mass, coeffs.k0, coeffs.dirichlet_entries
    outflux = np.ones(mesh.n_segments)
    coeffs.set_velocity(outflux)
    assert coeffs.velocity_outflux is outflux
    assert coeffs.dt is coeffs.lhs is coeffs.explicit is coeffs.factor is None
    a_new, _ = coeffs.matrices(0.1)
    assert all(x is y for x, y in zip(static, (coeffs.mass, coeffs.k0,
                                              coeffs.dirichlet_entries)))
    pattern = linalg.stencil(mesh)
    for a in (a_none, a_new):
        assert np.shares_memory(a.indices, pattern.indices)
        assert np.shares_memory(a.indptr, pattern.indptr)
    assert (a_none != a_new).nnz > 0  # advection entered


def test_dirichlet_rows_are_identity_with_boundary_data():
    mesh = build_mesh(4, 4)
    g_d = lambda x, y, t: (1.0 + t) * x
    coeffs = TransportCoefficients(mesh,
                                   diffusion=lambda x, y: np.ones_like(x),
                                   dirichlet=g_d)
    theta = NodalField.zeros(mesh)
    a, rhs = assemble_step(theta, coeffs, TransportStep(0.0, 0.1))
    dense = a.toarray()
    for v in np.flatnonzero(mesh.is_dirichlet):
        row = np.zeros(mesh.n_vertices)
        row[v] = 1.0
        np.testing.assert_array_equal(dense[v], row)
        x, y = mesh.vertices[v]
        assert rhs[v] == g_d(x, y, 0.1)


def test_argument_validation():
    mesh = build_mesh(3, 3)
    diff = lambda x, y: np.ones_like(x)
    with pytest.raises(ValueError):
        TransportCoefficients(mesh, diffusion=diff, mu=-1.0)
    with pytest.raises(ValueError):
        TransportCoefficients(mesh, diffusion=diff, mu=5.0)  # no grid
    grid = SparseGrid(mesh, 1.0 / 3.0)
    coeffs = TransportCoefficients(mesh, diffusion=diff, mu=5.0, grid=grid)
    theta = NodalField.zeros(mesh)
    with pytest.raises(ValueError, match="observation"):
        assemble_step(theta, coeffs, TransportStep(0.0, 0.1))
    with pytest.raises(ValueError):
        assemble_step(theta, coeffs, TransportStep(0.1, 0.1))


def test_observation_gap_propagates():
    mesh = build_mesh(4, 4)
    grid = SparseGrid(mesh, 0.25)
    stream = ObservationStream([0.0, 0.1],
                               np.zeros((2, grid.n_obs)))
    coeffs = TransportCoefficients(mesh,
                                   diffusion=lambda x, y: np.ones_like(x),
                                   mu=2.0, grid=grid)
    with pytest.raises(ObservationGapError):
        assemble_step(NodalField.zeros(mesh), coeffs,
                      TransportStep(0.1, 0.2), observations=stream)


def test_step_without_a_solver_uses_the_driver_transport_default(monkeypatch):
    """One default, `SolverConfig()`: what `step` solves with when given no
    solver, and what the driver's runs use for both systems (see
    test_pressure.test_default_solver_is_the_driver_pressure_solver)."""
    from porousda import linalg

    configs = []
    solve = linalg.solve

    def recorded(A, b, config=None, **kw):
        configs.append(config)
        return solve(A, b, config, **kw)

    monkeypatch.setattr(linalg, "solve", recorded)
    mesh = build_mesh(6, 6)
    coeffs = TransportCoefficients(mesh, diffusion=lambda x, y: 0.1 * np.ones_like(x))
    theta = NodalField.from_callable(mesh, lambda x, y: x * (1 - x) * y)
    step(theta, coeffs, TransportStep(0.0, 0.01))
    assert configs == [SolverConfig(rel_tol=1e-12)]
