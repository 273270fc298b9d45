"""A transport bundle lives exactly as long as its velocity.

The driver makes a coefficient bundle (`with_velocity`) only when it computes
a velocity: every interval for a prescribed closure or a pressure solve per
interval, once per run when the velocity is absent or computed once.  Every
fine step of a run takes the run's nominal size, so a bundle builds one step
matrix and at most one factor.  Sibling bundles share one cached source
vector, so a run evaluates the source once per fine time level.
"""

import numpy as np
import pytest

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


def _reference(sc):
    part = driver.TimePartition.from_scenario(sc)
    return part, driver.run_reference(sc, part, sc.build_mesh())


def test_example2_builds_one_bundle_matrix_and_factor_per_run(monkeypatch):
    """example2 computes its velocity once (`static_velocity`) and has one
    fine step per interval: its one bundle solves all 100 steps, so the
    first step's BiCGStab iterations pay for a factor."""
    bundles = _counting(monkeypatch, TransportCoefficients, "with_velocity")
    advection = _counting(monkeypatch, transport.TransportOperator,
                          "advection")
    matrices = _counting(monkeypatch, transport.VelocityBundle, "matrices")
    factors = _counting(monkeypatch, transport, "splu")
    part, ref = _reference(scenarios.example2(nx=10))
    assert part.n_coarse == 100 and part.fine_per_coarse == 1
    assert len(bundles) == len(advection) == len(factors) == 1
    assert len(matrices) == 100 and len({id(A) for A, _ in matrices}) == 1
    iters = ref.report.solver_iterations["transport"]
    assert iters[0] > 0 and iters[1:] == [0] * 99
    assert ref.report.factored_intervals == 99
    assert ref.report.recoveries == []


def test_diffusion_reaction_factors_one_step_matrix_per_run(monkeypatch):
    """No velocity: the run's one bundle holds one step matrix, although the
    fine steps of its 10 intervals differ in the last bit."""
    bundles = _counting(monkeypatch, TransportCoefficients, "with_velocity")
    matrices = _counting(monkeypatch, transport.VelocityBundle, "matrices")
    factors = _counting(monkeypatch, transport, "splu")
    part, ref = _reference(scenarios.diffusion_reaction())
    assert len(np.unique(np.diff(part.all_times()))) > 1
    assert bundles == []
    assert len({id(A) for A, _ in matrices}) == 1
    assert len(factors) == 1
    assert ref.report.factored_intervals == part.n_coarse


def test_example1_evaluates_the_source_once_per_time_level():
    """A new bundle every interval, and still one source evaluation per fine
    time level: the siblings share the cached source vector."""
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


def test_time_partition_rejects_nonuniform_coarse_times():
    with pytest.raises(ValueError, match="uniformly spaced"):
        driver.TimePartition((0.0, 0.1, 0.3), 2)
    # A linspace's steps differ in the last bit only, and are accepted.
    part = driver.TimePartition(tuple(np.linspace(0.0, 0.7, 8)), 3)
    assert len(np.unique(np.diff(part.coarse_times))) > 1
