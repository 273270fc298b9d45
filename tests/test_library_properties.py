"""Property test of the library path over drawn twin experiments.

A reference run and a nudged run, through `driver.run_reference` and
`driver.run_assimilated`, of example1 (prescribed velocity), example2
(Dirichlet on the x faces only, a static Darcy velocity), example3 (a
Darcy velocity and a raster permeability) or diffusion_reaction (no
velocity), on a drawn mesh of 4 to 24 cells a side, with an observation
lattice whose ratios kx and ky divide nx and ny, a drawn mu, functional
kind and number of fine steps per coarse step, over two coarse steps.
Whatever is drawn:

- the run completes with finite states, or raises one of
  `driver.RUN_FAILURES`;
- a second run of the same draw, on a new mesh, is bitwise equal, or
  raises the same error;
- on the Darcy scenarios, every flux recovery balances each control volume
  to 1e-12.

The mesh sizes cover one block of element rows and the index structures
that every run on a mesh shares (the stencil, its Dirichlet entries, the
mesh's Dirichlet vertices).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from porousda import driver, scenarios

BASES = {
    "example1": scenarios.example1(nx=4),
    "example2": scenarios.example2(nx=4),
    "example3": scenarios.example3(nx=4),
    "diffusion_reaction": scenarios.diffusion_reaction(nx=4),
}
MAX_FLUX_RESIDUAL = 1e-12


@st.composite
def twins(draw):
    """A scenario of `BASES` on the unit square, resized: `cells` lattice
    cells a side, each kx by ky mesh cells, so that the lattice spacing
    1 / cells is kx hx and ky hy."""
    base = BASES[draw(st.sampled_from(sorted(BASES)))]
    cells = draw(st.integers(1, 24))
    kx, ky = (draw(st.integers(-(-4 // cells), 24 // cells)) for _ in "xy")
    m = draw(st.integers(1, 3))
    return base.with_overrides(
        nx=cells * kx, ny=cells * ky, spacing=1.0 / cells,
        mu=draw(st.sampled_from([0.0, 10.0, 1000.0])),
        observation_kind=draw(st.sampled_from(["point", "average"])),
        fine_per_coarse=m, t_end=2 * m * base.dt)


def _twin(sc):
    """The reference and the nudged run's outputs, or the error raised."""
    try:
        ref = driver.run_reference(sc)
        run = driver.run_assimilated(sc, ref.stream, reference=ref.trajectory,
                                     keep_times=[sc.t_end])
    except driver.RUN_FAILURES as exc:
        return exc
    return ref, run


def _outputs(ref, run):
    """Every array a twin returns, and its breakdowns solved by a factor."""
    arrays = [a for r in (ref, run) for a in (
        r.trajectory.values, np.asarray(r.report.rows),
        np.asarray(r.report.solver_iterations["pressure"]),
        np.asarray(r.report.solver_iterations["transport"]))]
    return arrays, [r.report.recoveries for r in (ref, run)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sc=twins())
def test_a_drawn_twin_is_finite_repeatable_and_balanced(sc):
    first, second = _twin(sc), _twin(sc)
    if isinstance(first, Exception):
        assert type(second) is type(first) and str(second) == str(first)
        return
    ref, run = first
    for r in (ref, run):
        assert np.all(np.isfinite(r.trajectory.values))
        rows = np.asarray(r.report.rows)
        assert not np.any(np.isinf(rows))
        assert np.all(np.isfinite(rows[:, -2:]))     # the state's range
    # R of the nudged run is measured against the reference at every level
    # where the reference is not zero.
    nonzero = [ref.trajectory.norm(i) > 0.0 for i in range(len(ref.trajectory))]
    assert np.all(np.isfinite(np.asarray(run.report.rows)[nonzero, 1:3]))
    (got, got_recoveries), (want, want_recoveries) = (
        _outputs(*second), _outputs(ref, run))
    assert got_recoveries == want_recoveries
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    if sc.kappa is not None:
        for r in (ref, run):
            assert r.report.conservation_max <= MAX_FLUX_RESIDUAL
