"""Metamorphic relation: a scenario that is symmetric under x <-> y gives,
on an nx x ny mesh and on its ny x nx transpose, transposed states and
equal metric rows.

The relation needs no oracle: it compares two runs of the real driver, the
reference run and a nudged run, with the point and the cell-average
observation kind.  An axis or ordering slip that an oracle on a square mesh
would share (a transposed reshape, swapped lattice counts, a reversed point
table) breaks it.
"""

import numpy as np
import pytest

from porousda import driver, scenarios

CASES = {
    "example1": (scenarios.example1, 0.04),
    "diffusion_reaction": (scenarios.diffusion_reaction, 0.2),
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
    return grids, [np.asarray(r.report.rows) for r in (ref, run)]


@pytest.mark.parametrize("kind", ["point", "average"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_transposed_mesh_gives_transposed_states_and_equal_rows(name, kind):
    factory, t_end = CASES[name]
    wide_states, wide_rows = _twin(factory, t_end, kind, 20, 10)
    tall_states, tall_rows = _twin(factory, t_end, kind, 10, 20)
    for wide, tall in zip(wide_states, tall_states):
        assert wide.shape == tall.T.shape
        scale = np.max(np.abs(wide))
        assert scale > 0.0
        np.testing.assert_allclose(tall, wide.T, rtol=0.0,
                                   atol=1e-14 * scale)
    for wide, tall in zip(wide_rows, tall_rows):
        # t, R, Rtilde and the mass residual, NaN where the other run has
        # NaN, such as diffusion_reaction's reference R, which has no exact
        # solution to be measured against; the range of the states, which
        # can be a roundoff-sized excursion around 0, to the states' bound.
        np.testing.assert_allclose(tall[:, :4], wide[:, :4], rtol=1e-12,
                                   atol=0.0, equal_nan=True)
        np.testing.assert_allclose(tall[:, 4:], wide[:, 4:], rtol=0.0,
                                   atol=1e-14 * np.max(np.abs(wide[:, 4:])))
    reference_r = wide_rows[0][1:, 1]
    assert np.all(np.isnan(reference_r)) == (name == "diffusion_reaction")
    assert np.all(np.isfinite(wide_rows[1][:, 1]))
