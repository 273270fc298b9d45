"""The benchmark tracer wraps package attributes by name; keep them resolvable."""

import importlib.util
from pathlib import Path

from porousda import scenarios

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
