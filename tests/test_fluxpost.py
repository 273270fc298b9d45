import warnings

import numpy as np
import pytest

import dense_reference as dr
from dense_reference import face_velocity, raw_pressure_residuals
from porousda.fields import NodalField, l2_norm_callable, quadrature
from porousda.flux_postprocess import (LocalSolveError, _loop_flows,
                                       postprocess_flux)
from porousda.mesh import DIRICHLET, NEUMANN, build_mesh
from porousda.pressure import PressureProblem, element_kernel, solve_pressure

ONES = lambda th, x, y: np.ones_like(x)
ZERO = lambda x, y: np.zeros_like(x)


def _x_faces(x, y):
    return DIRICHLET if x in (0.0, 1.0) else NEUMANN


def test_linear_pressure_recovered_exactly():
    """For p = 2x + 3y with kappa=1, g=0 the potential keeps the gradient."""
    mesh = build_mesh(4, 3)
    prob = PressureProblem(mesh, ONES, ZERO,
                           dirichlet=lambda x, y: 2.0 * x + 3.0 * y)
    p = NodalField.from_callable(mesh, lambda x, y: 2.0 * x + 3.0 * y)
    flux = postprocess_flux(prob, p, NodalField.zeros(mesh))
    assert flux.max_residual < 1e-13
    # potential equals p up to one constant per element
    shifts = flux.potential.values - p.corner_values()
    np.testing.assert_allclose(np.ptp(shifts, axis=1), 0.0, atol=1e-12)
    axis = dr.segment_arrays(mesh).axis
    for s in range(mesh.n_segments):
        expected = -2.0 if axis[s] == 0 else -3.0
        assert face_velocity(flux, s) == pytest.approx(expected, abs=1e-12)


def test_zero_pressure_zero_velocity():
    mesh = build_mesh(3, 3)
    prob = PressureProblem(mesh, ONES, ZERO)
    flux = postprocess_flux(prob, NodalField.zeros(mesh),
                            NodalField.zeros(mesh))
    np.testing.assert_allclose(flux.segment_outflux, 0.0, atol=1e-14)


def test_unit_horizontal_velocity_on_mixed_boundary():
    """Solved p with p=1-x boundary data transports at unit speed."""
    from porousda.linalg import SolverConfig
    mesh = build_mesh(20, 20, boundary_spec=_x_faces)
    prob = PressureProblem(mesh, ONES, ZERO, dirichlet=lambda x, y: 1.0 - x,
                           solver=SolverConfig(rel_tol=1e-13))
    theta = NodalField.zeros(mesh)
    p, _ = solve_pressure(prob, theta)
    flux = postprocess_flux(prob, p, theta)
    assert flux.max_residual < 1e-12
    axis = dr.segment_arrays(mesh).axis
    for s in range(mesh.n_segments):
        want = 1.0 if axis[s] == 0 else 0.0
        assert face_velocity(flux, s) == pytest.approx(want, abs=1e-10)


def test_postprocessed_vs_raw_residual_contrast():
    """The postprocess removes the O(h) imbalance of the raw FEM flux."""
    mesh = build_mesh(20, 20)
    exact_src = lambda x, y: 2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    prob = PressureProblem(mesh, ONES, exact_src)
    theta = NodalField.zeros(mesh)
    p, _ = solve_pressure(prob, theta)
    flux = postprocess_flux(prob, p, theta)
    raw = raw_pressure_residuals(prob, p, theta)
    raw_max = np.nanmax(np.abs(raw))
    g_norm = l2_norm_callable(mesh, exact_src)
    assert flux.max_residual <= 1e-10 * max(1.0, g_norm)
    assert raw_max >= 1e-5                      # measured 5.05e-5 at nx=20
    assert raw_max > 1e3 * max(flux.max_residual, 1e-300)


def test_residuals_nan_only_at_dirichlet_vertices():
    mesh = build_mesh(5, 4)
    prob = PressureProblem(mesh, ONES,
                           lambda x, y: np.cos(x) * np.ones_like(y))
    theta = NodalField.zeros(mesh)
    p, _ = solve_pressure(prob, theta)
    flux = postprocess_flux(prob, p, theta)
    assert np.all(np.isnan(flux.residuals[mesh.is_dirichlet]))
    assert np.all(np.isfinite(flux.residuals[~mesh.is_dirichlet]))


def test_heterogeneous_case_matches_dense_oracle():
    mesh = build_mesh(3, 3)
    rng = np.random.default_rng(5)
    theta = NodalField(mesh, rng.random(mesh.n_vertices))
    kappa = lambda th, x, y: 1.0 + 0.4 * th + 0.2 * np.cos(2.0 * x + y)
    source = lambda x, y: np.sin(2.0 * x) + 0.3 * y
    dirichlet = lambda x, y: x * x - 0.5 * y
    prob = PressureProblem(mesh, kappa, source, dirichlet=dirichlet)
    p, _ = solve_pressure(prob, theta)
    flux = postprocess_flux(prob, p, theta)

    _, _, psi_ref = dr.dense_flux_systems(mesh, kappa, source, p.values,
                                          theta.values)
    outflux_ref = dr.dense_segment_outflux(mesh, kappa, psi_ref, theta.values)
    np.testing.assert_allclose(flux.potential.values, psi_ref, atol=1e-10)
    np.testing.assert_allclose(flux.segment_outflux, outflux_ref, atol=1e-10)
    assert flux.max_residual < 1e-12


def test_singular_local_system_reports_element():
    """The smallest subnormal kappa passes the range check but underflows
    every local flux matrix to zero."""
    mesh = build_mesh(2, 2)
    prob = PressureProblem(mesh, kappa=lambda th, x, y: np.full_like(x, 5e-324),
                           source=ZERO)
    p = NodalField.from_callable(mesh, lambda x, y: x)
    with pytest.raises(LocalSolveError) as info:
        postprocess_flux(prob, p, NodalField.zeros(mesh))
    assert 0 <= info.value.element < mesh.n_elements
    assert "element" in str(info.value)


# -- the closed-form local solve against the bordered 5x5 systems ------------

def _relative_gap(values, reference):
    """Largest per-element gap, relative to the element's largest entry."""
    scale = np.max(np.abs(reference), axis=1)
    return float(np.max(np.max(np.abs(values - reference), axis=1) / scale))


def _zero_sum_rhs(rng, ne):
    r = rng.standard_normal((ne, 4))
    r[:, 3] = -r[:, :3].sum(axis=1)
    return r


LOOP_MESHES = [build_mesh(5, 3, Lx=2.0, Ly=0.6), build_mesh(4, 4),
               build_mesh(3, 6, Lx=0.5, Ly=3.0)]


@pytest.mark.parametrize("decades, oracle", [
    ((-1.0, 1.0), dr.bordered_flux_solve),
    # Over twelve decades LAPACK's own psi is off by up to a relative 1e-5,
    # so the exact rational solve is the oracle.
    ((-8.0, 4.0), dr.exact_bordered_flux_solve),
])
@pytest.mark.parametrize("mesh", LOOP_MESHES)
def test_loop_flows_match_the_bordered_solve(mesh, decades, oracle):
    """kappa log-uniform over `decades`, a right-hand side summing to zero."""
    rng = np.random.default_rng(12)
    kappa_seg = 10.0 ** rng.uniform(*decades, (mesh.n_elements, 4))
    r = _zero_sum_rhs(rng, mesh.n_elements)
    p_c = rng.standard_normal((mesh.n_elements, 4))
    flows, psi = _loop_flows(mesh, kappa_seg, r, p_c.sum(axis=1))
    psi_ref, flows_ref = oracle(mesh, kappa_seg, r, p_c)
    assert _relative_gap(psi, psi_ref) <= 1e-12
    assert _relative_gap(flows, flows_ref) <= 1e-12


@pytest.mark.parametrize("boundary", ["all_dirichlet", "all_neumann", _x_faces])
@pytest.mark.parametrize("shape", [(5, 3, 2.0, 0.6), (4, 4, 1.0, 1.0)])
def test_recovery_matches_the_bordered_solve_of_the_dense_systems(boundary,
                                                                  shape):
    """The whole recovery against the local systems assembled by loops and
    solved by the bordered LAPACK solve, for every kind of boundary tag."""
    nx, ny, Lx, Ly = shape
    mesh = build_mesh(nx, ny, Lx=Lx, Ly=Ly, boundary_spec=boundary)
    rng = np.random.default_rng(13)
    theta = NodalField(mesh, rng.random(mesh.n_vertices))
    kappa = lambda th, x, y: 1.0 + 0.5 * th + 0.3 * np.sin(3.0 * x - y)
    source = lambda x, y: np.cos(x) + 0.5 * y * y
    prob = PressureProblem(mesh, kappa, source,
                           dirichlet=lambda x, y: x - 0.3 * y * y)
    p = NodalField(mesh, rng.standard_normal(mesh.n_vertices))
    flux = postprocess_flux(prob, p, theta)

    _, rhs, _ = dr.dense_flux_systems(mesh, kappa, source, p.values,
                                      theta.values)
    kappa_seg = element_kernel(prob, theta).kappa_seg
    psi_ref, flows_ref = dr.bordered_flux_solve(mesh, kappa_seg, rhs,
                                                p.corner_values())
    assert _relative_gap(flux.potential.values, psi_ref) <= 1e-12
    assert _relative_gap(flux.segment_outflux.reshape(-1, 4), flows_ref) <= 1e-12


def test_flux_source_equals_the_per_call_source_term_bitwise():
    """`flux_source` is the source term the recovery once rebuilt per call
    from g at the quadrature points."""
    mesh = build_mesh(6, 4, Lx=1.5, Ly=1.0)
    source = lambda x, y: np.sin(2.0 * x) * np.exp(y)
    prob = PressureProblem(mesh, ONES, source)
    quad = quadrature(mesh)
    gq = np.asarray(source(quad.x, quad.y), dtype=float) * np.ones(quad.x.shape)
    quadrant_sums = (quad.weight * gq).reshape(mesh.n_elements, 4, 4).sum(axis=2)
    per_call = quadrant_sums - quad.weight * gq @ quad.phi
    assert np.array_equal(prob.flux_source, per_call)


def test_subnormal_kappa_raises_without_a_warning():
    mesh = build_mesh(3, 2)
    prob = PressureProblem(mesh, kappa=lambda th, x, y: np.full_like(x, 5e-324),
                           source=ZERO)
    p = NodalField.from_callable(mesh, lambda x, y: x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LocalSolveError) as info:
            postprocess_flux(prob, p, NodalField.zeros(mesh))
    assert info.value.element == 0
