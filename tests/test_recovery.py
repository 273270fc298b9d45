"""BiCGStab breakdown recovery in the transport step.

A breakdown (scipy's info < 0) is solved by a sparse LU factor of the step
matrix, the same factor the cost rule would make, and the later steps with
the same velocity reuse it.  Reaching the iteration cap is not a breakdown and still
fails the run.  The scenario cases below broke down in their reference run
before the recovery existed.
"""

import logging

import numpy as np
import pytest

from porousda import driver, linalg, scenarios, transport
from porousda.cli import main
from porousda.fields import NodalField
from porousda.linalg import NoConvergenceError, SolverConfig
from porousda.mesh import build_mesh
from porousda.transport import TransportCoefficients, TransportStep

DAY = scenarios.DAY


def _reference(sc, t_end):
    part = driver.TimePartition.from_scenario(sc.with_overrides(t_end=t_end))
    return driver.run_reference(sc, part, sc.build_mesh())


def _broken_bicgstab(monkeypatch, failures=0, breaks=()):
    """Make the first `failures` BiCGStab solves, and the solves numbered in
    `breaks` (from 1), break down (info = -10)."""
    solve = linalg.solve
    calls = {"n": 0}

    def breaking(A, b, config=None, **kw):
        calls["n"] += 1
        if calls["n"] <= failures or calls["n"] in breaks:
            x = np.zeros_like(b)
            report = linalg.SolveReport(3, 1.0, False)
            raise NoConvergenceError("bicgstab failed (info=-10)", x, report,
                                     breakdown=True)
        return solve(A, b, config, **kw)

    monkeypatch.setattr(linalg, "solve", breaking)
    return calls


def _counted_splu(monkeypatch):
    """The matrix of each factor, in the order they are made."""
    calls = []
    splu = transport.splu

    def counted(A):
        calls.append(A)
        return splu(A)

    monkeypatch.setattr(transport, "splu", counted)
    return calls


def _diffusion_problem():
    mesh = build_mesh(8, 8)
    coeffs = TransportCoefficients(
        mesh, diffusion=lambda x, y: 0.1 * np.ones_like(x),
        source=lambda x, y, t: np.sin(np.pi * x) * np.sin(np.pi * y))
    theta = NodalField.from_callable(mesh, lambda x, y: x * (1 - x) * y)
    return coeffs, theta


def _march(coeffs, theta, steps, dt=1.0 / 64.0):
    """`steps` steps of the run `coeffs` with a new velocity, none, and
    later_steps = 0, so the cost rule never factors."""
    coeffs.set_velocity(None)
    reports = []
    for k in range(steps):
        theta, rep = transport.step(theta, coeffs,
                                    TransportStep(k * dt, (k + 1) * dt),
                                    solver=SolverConfig())
        reports.append(rep)
    return theta, reports


def test_bicgstab_marks_breakdown_but_not_the_cap():
    coeffs, theta = _diffusion_problem()
    A, rhs = transport.assemble_step(theta, coeffs, TransportStep(0.0, 0.01))
    cfg = SolverConfig(rel_tol=1e-14, max_iter=1)
    with pytest.raises(NoConvergenceError) as info:
        linalg.solve(A, rhs, cfg)
    assert not info.value.breakdown
    with pytest.raises(NoConvergenceError):
        transport.step(theta, coeffs, TransportStep(0.0, 0.01), solver=cfg)


def test_a_breakdown_is_solved_by_one_lu_factor_per_interval(monkeypatch, caplog):
    coeffs, theta = _diffusion_problem()
    plain, _ = _march(coeffs, theta, 4)
    calls = _broken_bicgstab(monkeypatch, failures=1)
    factors = _counted_splu(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="porousda"):
        got, reports = _march(coeffs, theta, 4)
    # Only the breakdown step is a recovery; the later steps reuse its factor.
    assert [r.recovery for r in reports] == ["lu", None, None, None]
    assert all(r.factored and r.iterations == 0 for r in reports)
    assert all(r.converged and r.residual < 1e-12 for r in reports)
    assert calls["n"] == 1 and len(factors) == 1
    assert "solving by sparse LU" in caplog.text
    np.testing.assert_allclose(got.values, plain.values, rtol=0, atol=1e-11)
    # The next interval has its own step matrix and starts with BiCGStab.
    _, reports = _march(coeffs, theta, 1)
    assert reports[0].recovery is None and not reports[0].factored


def test_a_breakdown_on_the_last_step_takes_one_bicgstab_solve(monkeypatch):
    coeffs, theta = _diffusion_problem()
    calls = _broken_bicgstab(monkeypatch, failures=1)
    factors = _counted_splu(monkeypatch)
    _, report = transport.step(theta, coeffs, TransportStep(0.0, 1.0 / 64.0),
                               later_steps=0)
    assert report.recovery == "lu" and report.factored and report.converged
    assert calls["n"] == 1 and len(factors) == 1


def test_a_breakdown_after_bicgstab_was_kept_installs_the_factor(monkeypatch):
    """later_steps = 0 keeps the first step on BiCGStab; the second breaks
    down, and its factor solves the third."""
    coeffs, theta = _diffusion_problem()
    plain, _ = _march(coeffs, theta, 3)
    calls = _broken_bicgstab(monkeypatch, breaks={2})
    factors = _counted_splu(monkeypatch)
    got, reports = _march(coeffs, theta, 3)
    assert [r.recovery for r in reports] == [None, "lu", None]
    assert [r.factored for r in reports] == [False, True, True]
    assert calls["n"] == 2 and len(factors) == 1
    assert coeffs.factor.lu is not None
    np.testing.assert_allclose(got.values, plain.values, rtol=0, atol=1e-11)


def test_a_singular_breakdown_factor_raises_the_breakdown(monkeypatch):
    coeffs, theta = _diffusion_problem()
    _broken_bicgstab(monkeypatch, failures=1)

    def singular(A):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(transport, "splu", singular)
    with pytest.raises(NoConvergenceError) as info:
        transport.step(theta, coeffs, TransportStep(0.0, 1.0 / 64.0))
    assert info.value.breakdown


def test_driver_builds_one_step_matrix_and_one_factor_per_interval(monkeypatch):
    """The fine times of an interval are a linspace whose steps differ in
    the last bit.  The driver gives every step the run's nominal size, so
    each interval's velocity builds one step matrix, and when every BiCGStab
    solve breaks down, the first step's LU factor serves the whole
    interval.  That breakdown took 3 iterations with 9 later steps, which
    meets the cost rule (27 > sqrt(121)), so the later intervals factor at
    their first step without a BiCGStab solve."""
    sc = scenarios.example1(nx=10, t_end=0.04)
    part = driver.TimePartition.from_scenario(sc)
    assert all(np.unique(np.diff(part.fine_times(n))).size > 1
               for n in range(part.n_coarse))
    matrices = []
    build = TransportCoefficients.matrices

    def recorded(self, dt):
        step_matrix, explicit = build(self, dt)
        matrices.append(step_matrix)
        return step_matrix, explicit

    monkeypatch.setattr(TransportCoefficients, "matrices", recorded)
    calls = _broken_bicgstab(monkeypatch, failures=float("inf"))
    factors = _counted_splu(monkeypatch)
    ref = _reference(sc, 0.04)
    steps = part.n_coarse * part.fine_per_coarse
    assert len(matrices) == steps
    assert len({id(A) for A in matrices}) == part.n_coarse
    # The first solve breaks down, then factors solve every later step; each
    # factor, the breakdown's too, gathers A[q][:, q] onto the one pattern
    # that the run's first factor fixed.
    assert part.n_coarse > 1
    assert calls["n"] == 1
    assert len(factors) == part.n_coarse
    assert all(np.shares_memory(F.indices, factors[0].indices) for F in factors)
    assert [kind for _, kind in ref.report.recoveries] == ["lu"]
    assert ref.report.factored_intervals == part.n_coarse


def test_run_report_counts_recoveries(monkeypatch):
    sc = scenarios.example1(nx=10, t_end=0.04)
    _broken_bicgstab(monkeypatch, failures=1)
    ref = _reference(sc, 0.04)
    assert ref.report.recoveries == [(pytest.approx(0.002), "lu")]


def test_factored_intervals_counts_a_breakdown_factor(monkeypatch):
    """One fine step per interval: the cost rule never factors, so only the
    breakdown's factor counts."""
    sc = scenarios.example1(nx=10)
    part = driver.TimePartition(0.04, 4, 1)
    _broken_bicgstab(monkeypatch, breaks={2})
    ref = driver.run_reference(sc, part, sc.build_mesh())
    assert ref.report.recoveries == [(pytest.approx(0.02), "lu")]
    assert ref.report.factored_intervals == 1


def test_a_breakdown_factor_does_not_skip_the_next_probe(monkeypatch):
    """example3 at nx = 60 never factors by cost.  A breakdown in its first
    step is solved by a factor, which serves that interval only: every
    later interval still starts with a BiCGStab probe, and stays on it."""
    sc = scenarios.example3(nx=60, spacing=1.0 / 30.0)
    part = driver.TimePartition.from_scenario(sc.with_overrides(t_end=0.006))
    _broken_bicgstab(monkeypatch, breaks={2})     # 1 is the pressure solve
    factors = _counted_splu(monkeypatch)
    ref = _reference(sc, 0.006)
    iters = np.reshape(ref.report.solver_iterations["transport"],
                       (part.n_coarse, part.fine_per_coarse))
    assert part.n_coarse > 1
    assert len(factors) == 1
    assert [kind for _, kind in ref.report.recoveries] == ["lu"]
    assert ref.report.factored_intervals == 1
    assert np.all(iters[0] == 0) and np.all(iters[1:] > 0)


# -- cases that broke down before ---------------------------------------------

def test_example1_default_size_recovers_its_breakdowns():
    """example1 at nx=100 broke down in the step ending at t = 0.056, the
    8th step of its interval.  Every interval's later steps are now solved
    by its factor, so no BiCGStab solve reaches that breakdown."""
    ref = _reference(scenarios.example1(), 0.06)
    assert ref.report.recoveries == []
    assert ref.report.factored_intervals == 3
    assert np.all(np.isfinite(ref.trajectory.values))


def test_example4_default_size_recovers_its_breakdown():
    """example4 at nx=240 broke down in its first fine step."""
    ref = _reference(scenarios.example4(), 2 * DAY)
    assert ref.report.recoveries == [(7200.0, "lu")]
    assert len(ref.report.rows) == 25


def test_example4_default_size_breakdown_makes_the_run_factor_at_once(
        monkeypatch):
    """The breakdown at t = 7200 s took k = 44 iterations with 23 steps
    left, k * 23 > sqrt(58,081), so the second interval factors at its first
    step: the run makes one transport BiCGStab solve, not two."""
    transport_solves = []
    solve = linalg.solve

    def counted(A, b, config=None, hierarchy=None, **kw):
        if hierarchy is None:
            transport_solves.append(b.size)
        return solve(A, b, config, hierarchy=hierarchy, **kw)

    monkeypatch.setattr(linalg, "solve", counted)
    ref = _reference(scenarios.example4(), 4 * DAY)
    assert ref.report.recoveries == [(7200.0, "lu")]
    assert ref.report.factored_intervals == 2
    assert len(transport_solves) == 1


def test_example4_raster_seed_10_recovers_its_breakdown():
    ref = _reference(scenarios.example4(nx=120, seed=10), 8 * DAY)
    assert ref.report.recoveries == [(7200.0, "lu")]
    assert ref.report.conservation_max <= 1e-12


def test_cli_runs_example4_at_default_size(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("POROUSDA_OUTPUT_ROOT", str(tmp_path))
    cfg = tmp_path / "ex4.ini"
    cfg.write_text("[scenario]\nname = example4\n\n[time]\nt_end = 172800\n")
    assert main(["run", str(cfg)]) == 0
    assert "final R" in capsys.readouterr().out
    assert (tmp_path / "metrics.csv").exists()


def test_cli_report_counts_the_breakdowns(tmp_path, monkeypatch):
    """Every BiCGStab solve breaks down: each run's first step is a
    recovery whose factor solves the rest of its interval, and since that
    breakdown meets the cost rule, the second interval factors at once."""
    monkeypatch.setenv("POROUSDA_OUTPUT_ROOT", str(tmp_path))
    cfg = tmp_path / "ex1.ini"
    cfg.write_text("[scenario]\nname = example1\n\n[mesh]\nnx = 10\n\n"
                   "[time]\nt_end = 0.04\n")
    _broken_bicgstab(monkeypatch, failures=float("inf"))
    assert main(["run", str(cfg)]) == 0
    report = (tmp_path / "report.txt").read_text().splitlines()
    for prefix in ("", "reference run: "):
        assert (f"{prefix}transport steps recovered from a bicgstab "
                "breakdown by sparse LU: 1") in report
        assert (f"{prefix}coarse intervals with transport steps solved "
                "by a sparse LU factor: 2 of 2") in report


def test_cli_report_counts_the_reference_breakdowns(tmp_path, monkeypatch):
    """The first BiCGStab solve, the reference run's first step, breaks
    down: report.txt counts it under the reference run, and the nudged run
    has none."""
    monkeypatch.setenv("POROUSDA_OUTPUT_ROOT", str(tmp_path))
    cfg = tmp_path / "ex1.ini"
    cfg.write_text("[scenario]\nname = example1\n\n[mesh]\nnx = 10\n\n"
                   "[time]\nt_end = 0.04\n")
    _broken_bicgstab(monkeypatch, failures=1)
    assert main(["run", str(cfg)]) == 0
    report = (tmp_path / "report.txt").read_text().splitlines()
    assert ("reference run: transport steps recovered from a bicgstab "
            "breakdown by sparse LU: 1") in report
    assert ("reference run: coarse intervals with transport steps solved "
            "by a sparse LU factor: 2 of 2") in report
    assert not [line for line in report
                if line.startswith("transport steps recovered")]
