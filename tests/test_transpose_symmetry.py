"""Metamorphic relation: a scenario that is symmetric under x <-> y gives,
on an nx x ny mesh and on its ny x nx transpose, transposed states and
equal metric rows.

The relation needs no oracle: it compares two runs of the real driver, the
reference run and a nudged run, with the point and the cell-average
observation kind, on a prescribed velocity, on none and on a Darcy velocity
(pressure solve and flux recovery), by factors and by BiCGStab.  An axis or
ordering slip that an oracle on a square mesh would share (a transposed
reshape, swapped lattice counts, a reversed point table) breaks it.
"""

import numpy as np
import pytest

from porousda import driver, scenarios, transport
from porousda.scenarios import bump


def darcy():
    """A Darcy scenario symmetric under x <-> y: kappa, the pressure source
    (a well pair on the diagonal), the pressure and concentration Dirichlet
    data, the diffusion and the initial pockets."""
    return scenarios.Scenario(
        name="darcy_diagonal", nx=20, ny=20,
        diffusion=lambda x, y: 0.01 * (1.0 + x * y),
        kappa=lambda theta, x, y: (1.0 + 4.0 * x * y) / (1.0 + theta),
        pressure_source=lambda x, y: (bump(x, y, 0.7, 0.7, 0.2, 50.0)
                                      - bump(x, y, 0.3, 0.3, 0.2, 50.0)),
        pressure_dirichlet=lambda x, y: x * y,
        theta_dirichlet=lambda x, y, t: 0.1 * x * y * (1.0 + t),
        initial=lambda x, y: (bump(x, y, 0.3, 0.7, 0.3, 0.8)
                              + bump(x, y, 0.7, 0.3, 0.3, 0.8)),
        dt=0.005, fine_per_coarse=10, mu=10.0, spacing=0.1,
        theta0_policy="interpolant")


CASES = {
    "example1": (scenarios.example1, 0.04),
    "diffusion_reaction": (scenarios.diffusion_reaction, 0.2),
    "darcy": (darcy, 0.1),
}


def _twin(factory, t_end, kind, nx, ny):
    sc = factory().with_overrides(nx=nx, ny=ny, t_end=t_end,
                                  observation_kind=kind)
    part = driver.TimePartition.from_scenario(sc)
    ref = driver.run_reference(sc, part)
    run = driver.run_assimilated(sc, ref.stream, part,
                                 reference=ref.trajectory,
                                 keep_times=[t_end])
    grids = [r.trajectory.values[-1].reshape(ny + 1, nx + 1)
             for r in (ref, run)]
    return grids, [r.report for r in (ref, run)]


def _check_transposed(name, kind, factored):
    """Run the twin of case `name` on 20 x 10 and on 10 x 20 and check the
    relation.  `factored` is whether the transport steps of every coarse
    interval were solved by a factor, or of none; returns the wide
    mesh's reports."""
    factory, t_end = CASES[name]
    wide_states, wide_reports = _twin(factory, t_end, kind, 20, 10)
    tall_states, tall_reports = _twin(factory, t_end, kind, 10, 20)
    for wide, tall in zip(wide_states, tall_states):
        assert wide.shape == tall.T.shape
        scale = np.max(np.abs(wide))
        assert scale > 0.0
        np.testing.assert_allclose(tall, wide.T, rtol=0.0,
                                   atol=1e-14 * scale)
    for wide, tall in zip(wide_reports, tall_reports):
        assert wide.factored_intervals == tall.factored_intervals == (
            wide.partition.n_coarse if factored else 0)
        wide, tall = np.asarray(wide.rows), np.asarray(tall.rows)
        # t, R and Rtilde, NaN where the other run has NaN, such as the
        # reference R of a scenario without an exact solution to be
        # measured against; the mass residual, NaN without a Darcy velocity
        # and else roundoff-sized, to well inside the flux recovery's 1e-12;
        # the range of the states, which can be a roundoff-sized excursion
        # around 0, to the states' bound.
        np.testing.assert_allclose(tall[:, :3], wide[:, :3], rtol=1e-12,
                                   atol=0.0, equal_nan=True)
        np.testing.assert_allclose(tall[:, 3], wide[:, 3], rtol=0.0,
                                   atol=1e-13, equal_nan=True)
        np.testing.assert_allclose(tall[:, 4:], wide[:, 4:], rtol=0.0,
                                   atol=1e-14 * np.max(np.abs(wide[:, 4:])))
    reference_r = wide_reports[0].r_percent[1:]
    assert np.all(np.isnan(reference_r)) == (factory().exact is None)
    assert np.all(np.isfinite(wide_reports[1].r_percent))
    return wide_reports


@pytest.mark.parametrize("kind", ["point", "average"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_transposed_mesh_gives_transposed_states_and_equal_rows(name, kind):
    reports = _check_transposed(name, kind, factored=True)
    darcy_path = np.isfinite(reports[0].column("mass_residual")[1:])
    assert np.all(darcy_path) == (name == "darcy")


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_relation_holds_on_the_bicgstab_path(name, monkeypatch):
    """Every interval above is solved by a factor; with SuperLU made to
    find every step matrix singular, every step is solved by BiCGStab."""
    tried = []

    def singular(A):
        tried.append(A.shape)
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(transport, "splu", singular)
    _check_transposed(name, "point", factored=False)
    assert tried
