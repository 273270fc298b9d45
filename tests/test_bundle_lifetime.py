"""A run's transport object holds one velocity at a time.

The driver gives the run's `TransportCoefficients` a velocity
(`set_velocity`) only when it computes one: every interval for a prescribed
closure or a pressure solve per interval, once per run when the velocity is
computed once, never when there is none.  Every fine step of a run takes the
run's nominal size, so a velocity builds one step matrix and at most one
factor.  The run's one cached source vector outlives its velocities, so a
run evaluates the source once per fine time level.
"""

import numpy as np

from porousda import driver, scenarios, transport
from porousda.transport import TransportCoefficients


def _counting(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(fn(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(owner, name, counted)
    return calls


def _velocities(monkeypatch):
    """The velocities the run is given, leaving out the None that empties
    its slot before each one."""
    given = []
    set_velocity = TransportCoefficients.set_velocity

    def recorded(self, outflux):
        if outflux is not None:
            given.append(outflux)
        set_velocity(self, outflux)

    monkeypatch.setattr(TransportCoefficients, "set_velocity", recorded)
    return given


def _reference(sc):
    part = driver.TimePartition.from_scenario(sc)
    return part, driver.run_reference(sc, part, sc.build_mesh())


def test_example2_builds_one_bundle_matrix_and_factor_per_run(monkeypatch):
    """example2 computes its velocity once (`static_velocity`) and has one
    fine step per interval: its one velocity serves all 100 steps, so the
    first step's BiCGStab iterations pay for a factor."""
    velocities = _velocities(monkeypatch)
    advection = _counting(monkeypatch, TransportCoefficients, "advection")
    matrices = _counting(monkeypatch, TransportCoefficients, "matrices")
    factors = _counting(monkeypatch, transport, "splu")
    part, ref = _reference(scenarios.example2(nx=10))
    assert part.n_coarse == 100 and part.fine_per_coarse == 1
    assert len(velocities) == len(advection) == len(factors) == 1
    assert len(matrices) == 100 and len({id(A) for A, _ in matrices}) == 1
    iters = ref.report.solver_iterations["transport"]
    assert iters[0] > 0 and iters[1:] == [0] * 99
    assert ref.report.factored_intervals == 99
    assert ref.report.recoveries == []


def test_diffusion_reaction_factors_one_step_matrix_per_run(monkeypatch):
    """No velocity: the run holds one step matrix, although the fine steps
    of its 10 intervals differ in the last bit."""
    velocities = _velocities(monkeypatch)
    matrices = _counting(monkeypatch, TransportCoefficients, "matrices")
    factors = _counting(monkeypatch, transport, "splu")
    part, ref = _reference(scenarios.diffusion_reaction())
    assert len(np.unique(np.diff(part.all_times()))) > 1
    assert velocities == []
    assert len({id(A) for A, _ in matrices}) == 1
    assert len(factors) == 1
    assert ref.report.factored_intervals == part.n_coarse


def test_example1_evaluates_the_source_once_per_time_level():
    """A new velocity every interval, and still one source evaluation per
    fine time level: the run's cached source vector outlives its
    velocities."""
    calls = []
    sc = scenarios.example1(nx=10, t_end=0.04)
    source = sc.source

    def counted(x, y, t):
        calls.append(t)
        return source(x, y, t)

    sc = sc.with_overrides(source=counted)
    part, ref = _reference(sc)
    steps = part.n_coarse * part.fine_per_coarse
    assert len(calls) == steps + 1
    calls.clear()
    driver.run_assimilated(sc, ref.stream, part, sc.build_mesh(),
                           reference=ref.trajectory)
    assert len(calls) == steps + 1
