"""The benchmark tracer wraps package attributes by name; keep them
resolvable, and keep a traced run doing the work of an untraced one."""

import importlib.util
from pathlib import Path

import numpy as np

from porousda import scenarios
from porousda.transport import TransportCoefficients

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    missing = [f"{path}.{attr}" for path, attr, _name in tracing._TARGETS
               if not callable(getattr(tracing._resolve(path), attr, None))]
    assert missing == []


def test_counted_coefficients_are_scenario_fields():
    tracing = _load_tracing()
    sc = scenarios.example1(nx=2)
    assert all(hasattr(sc, key) for key in tracing._COEFFICIENTS)


def test_a_traced_separable_source_is_integrated_once():
    """The tracer wraps a scenario's source with `functools.wraps`; a run
    still finds the `Separable` behind it, evaluates its profile once and
    never calls the wrapper on a step, so a traced run does the work of an
    untraced one."""
    tracing = _load_tracing()
    calls = []

    def profile(x, y):
        calls.append(x.shape)
        return scenarios.bump(x, y, 0.5, 0.5, 0.3, 0.25)

    sc = scenarios.diffusion_reaction(nx=8)
    sc = sc.with_overrides(source=scenarios.Separable(profile, sc.source.rate))
    tracer = tracing.Tracer()
    traced = tracer.wrap_coefficients(sc)
    assert traced.source is not sc.source
    assert traced.source.__wrapped__ is sc.source
    mesh = sc.build_mesh()
    runs = [TransportCoefficients(mesh, s.diffusion, reaction=s.reaction,
                                  source=s.source) for s in (sc, traced)]
    assert all(run.separable is sc.source for run in runs)
    assert len(calls) == 2                   # once per run, at build
    for t in np.arange(11) * sc.dt:
        plain, wrapped = (run.source_vector(t) for run in runs)
        assert plain.tobytes() == wrapped.tobytes()
    assert len(calls) == 2
    assert tracer.points["source"] == 0
    assert not any(span[0] == "scenarios.source" for span in tracer.spans)


def test_a_traced_time_factored_source_evaluates_its_spatial_part_once():
    """Behind the tracer's `functools.wraps` wrapper a run still finds the
    `TimeFactored` source, evaluates its spatial part once, at build, and
    combines it with t on each step without calling the wrapper."""
    tracing = _load_tracing()
    calls = []

    def spatial(x, y):
        calls.append(x.shape)
        return scenarios.example1_factors(x, y)

    sc = scenarios.example1(nx=8)
    sc = sc.with_overrides(source=scenarios.TimeFactored(spatial,
                                                         sc.source.combine))
    tracer = tracing.Tracer()
    traced = tracer.wrap_coefficients(sc)
    assert traced.source.__wrapped__ is sc.source
    mesh = sc.build_mesh()
    runs = [TransportCoefficients(mesh, s.diffusion, source=s.source)
            for s in (sc, traced)]
    assert all(run.source_parts is sc.source and run.separable is None
               for run in runs)
    assert len(calls) == 2                   # once per run, at build
    for t in np.arange(11) * sc.dt:
        plain, wrapped = (run.source_vector(t) for run in runs)
        assert plain.tobytes() == wrapped.tobytes()
    assert len(calls) == 2
    assert tracer.points["source"] == 0
    assert not any(span[0] == "scenarios.source" for span in tracer.spans)
