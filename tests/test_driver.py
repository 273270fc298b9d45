import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from porousda import driver, scenarios, transport
from porousda.driver import (METRIC_COLUMNS, NonFiniteStateError, RunReport,
                             TimePartition, Trajectory, fit_decay_rate,
                             parameter_sweep, run_assimilated, run_reference,
                             sweep_csv)
from porousda.fields import NodalField
from porousda.mesh import build_mesh
from porousda.observation import ObservationStream, SparseGrid
from porousda.pressure import multigrid_hierarchy
from porousda.transport import TransportCoefficients


@pytest.fixture(scope="module")
def tiny_ex1():
    sc = scenarios.example1(nx=20)
    mesh = sc.build_mesh()
    part = TimePartition.from_scenario(sc.with_overrides(t_end=0.04))
    ref = run_reference(sc, part, mesh)
    return sc, mesh, part, ref


@pytest.fixture(scope="module")
def tiny_ex4():
    """A Darcy case: two coarse intervals, so two multigrid pressure solves,
    the second from the first one's pressure."""
    sc = scenarios.example4(nx=48)
    mesh = sc.build_mesh()
    assert len(multigrid_hierarchy(mesh)) >= 3     # two coarse levels
    part = TimePartition.from_scenario(
        sc.with_overrides(t_end=4.0 * scenarios.DAY))
    ref = run_reference(sc, part, mesh)
    assert len(ref.report.solver_iterations["pressure"]) == 2
    return sc, mesh, part, ref


def nan_source_after_start(sc):
    """The scenario with a source that is NaN for t > 0."""
    source = sc.source
    return sc.with_overrides(
        source=lambda x, y, t: source(x, y, t) + (np.nan if t > 0 else 0.0))


def test_partition_layout():
    part = TimePartition(t_end=1.0, n_coarse=4, fine_per_coarse=5)
    assert part.n_coarse == 4
    assert len(part.coarse_times) == 5
    assert part.coarse_times[1] - part.coarse_times[0] == pytest.approx(0.25)
    fine = part.fine_times(0)
    assert fine[0] == 0.0 and fine[-1] == pytest.approx(0.25)
    assert len(fine) == 6
    assert len(part.all_times()) == 21


def test_partition_rejects_ragged_horizon():
    sc = scenarios.example1(nx=10)       # coarse step 0.02
    with pytest.raises(ValueError):
        TimePartition.from_scenario(sc.with_overrides(t_end=0.03))


@pytest.mark.parametrize("key, value", [("dt", 0.0), ("dt", -0.01),
                                        ("dt", float("nan")),
                                        ("fine_per_coarse", 0)])
def test_partition_rejects_a_zero_step_by_name(key, value):
    """A zero step divided the span by zero (ZeroDivisionError)."""
    sc = scenarios.example1(nx=10).with_overrides(**{key: value})
    with pytest.raises(ValueError, match=key):
        TimePartition.from_scenario(sc)


@pytest.mark.parametrize("key, value", [("n_coarse", 8.0),
                                        ("fine_per_coarse", 2.5)])
def test_partition_rejects_a_non_integer_count_by_name(key, value):
    """A float count reached `np.linspace`, whose bare TypeError was the
    first sign of it; example1 with 2.5 fine steps per coarse step passes
    `from_scenario` with 8 coarse steps."""
    counts = {"n_coarse": 8, "fine_per_coarse": 2, key: value}
    with pytest.raises(ValueError, match=key):
        TimePartition(0.04, **counts)
    assert TimePartition(0.04, np.int64(8), 2).n_coarse == 8
    if key == "fine_per_coarse":
        sc = scenarios.example1(nx=10, t_end=0.04).with_overrides(
            fine_per_coarse=value)
        with pytest.raises(ValueError, match=key):
            driver.run_reference(sc)


@pytest.mark.parametrize("t_end", [float("inf"), float("nan")])
def test_partition_rejects_a_non_finite_span(t_end):
    """round() of the span's step count raised OverflowError or ValueError."""
    sc = scenarios.example1(nx=10).with_overrides(t_end=t_end)
    with pytest.raises(ValueError, match="whole number of coarse steps"):
        TimePartition.from_scenario(sc)


def test_fit_recovers_known_decay():
    t = np.linspace(0.0, 1.0, 21)
    fit = fit_decay_rate(t, 7.0 * np.exp(-2.0 * t))
    assert fit.rate == pytest.approx(-2.0, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_constant_series():
    t = np.linspace(0.0, 1.0, 5)
    fit = fit_decay_rate(t, np.full(5, 3.3))
    assert fit.rate == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_decay_rate(np.array([0.0, 1.0]), np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        fit_decay_rate(np.linspace(0, 1, 5), np.array([1, 1, 0, 1, 1.0]))


def test_reference_run_zero_forcing_stays_zero():
    sc = scenarios.example1(nx=10).with_overrides(
        initial=lambda x, y: 0.0 * x,
        source=lambda x, y, t: 0.0 * x,
        exact=None)
    mesh = sc.build_mesh()
    part = TimePartition.from_scenario(sc.with_overrides(t_end=0.04))
    ref = run_reference(sc, part, mesh)
    for t in part.coarse_times:
        np.testing.assert_allclose(ref.trajectory.at(t).values, 0.0,
                                   atol=1e-12)


def test_r_starts_at_exactly_100_with_zero_guess(tiny_ex1):
    sc, mesh, part, ref = tiny_ex1
    run = run_assimilated(sc, ref.stream, part, mesh, mu=10.0)
    assert run.report.r_percent[0] == 100.0


def test_rtilde_starts_at_exactly_zero_with_interpolant_guess(tiny_ex1):
    sc, mesh, part, ref = tiny_ex1
    run = run_assimilated(sc.with_overrides(theta0_policy="interpolant"),
                          ref.stream, part, mesh, mu=10.0,
                          reference=ref.trajectory)
    assert run.report.rows[0][2] == 0.0


def test_mu_zero_matches_reference_bitwise(tiny_ex1, tiny_ex4):
    for sc, mesh, part, ref in (tiny_ex1, tiny_ex4):
        run = run_assimilated(sc.with_overrides(theta0_policy="true"),
                              ref.stream, part, mesh, mu=0.0,
                              reference=ref.trajectory,
                              keep_times=part.all_times())
        for t in part.coarse_times:
            assert np.array_equal(run.trajectory.at(t).values,
                                  ref.trajectory.at(t).values)


def test_repeated_runs_are_bitwise_deterministic(tiny_ex1, tiny_ex4):
    for (sc, mesh, part, ref), mu in ((tiny_ex1, 25.0), (tiny_ex4, None)):
        every = part.all_times()
        a = run_assimilated(sc, ref.stream, part, mesh, mu=mu, keep_times=every)
        b = run_assimilated(sc, ref.stream, part, mesh, mu=mu, keep_times=every)
        assert np.array_equal(a.trajectory.final().values,
                              b.trajectory.final().values)
        assert np.array_equal(np.asarray(a.report.rows),
                              np.asarray(b.report.rows), equal_nan=True)


def test_free_run_keeps_large_error_at_short_horizon(tiny_ex1):
    """Without relaxation the initial 100% discrepancy cannot vanish within
    one coarse window; it only shrinks by the flow's own decay."""
    sc, mesh, part, ref = tiny_ex1
    short = TimePartition.from_scenario(sc.with_overrides(t_end=0.02))
    run = run_assimilated(sc, ref.stream, short, mesh, mu=0.0)
    assert run.report.asymptote() > 30.0


def test_assimilated_beats_free_run(tiny_ex1):
    sc, mesh, part, ref = tiny_ex1
    free = run_assimilated(sc, ref.stream, part, mesh, mu=0.0)
    nudged = run_assimilated(sc, ref.stream, part, mesh, mu=100.0)
    assert nudged.report.asymptote() < free.report.asymptote()


def test_unknown_policy_rejected(tiny_ex1):
    sc, mesh, part, ref = tiny_ex1
    with pytest.raises(ValueError):
        run_assimilated(sc.with_overrides(theta0_policy="oracle"),
                        ref.stream, part, mesh, mu=1.0)


def test_interpolant_policy_needs_observations(tiny_ex1):
    sc, mesh, part, _ = tiny_ex1
    with pytest.raises(ValueError):
        run_assimilated(sc.with_overrides(theta0_policy="interpolant"),
                        None, part, mesh, mu=0.0)


def test_trajectory_lookup_tolerance(tiny_ex1):
    _, _, part, ref = tiny_ex1
    t = part.coarse_times[1]
    assert np.array_equal(ref.trajectory.at(t + 5e-10).values,
                          ref.trajectory.at(t).values)
    with pytest.raises(KeyError):
        ref.trajectory.at(t + 0.001)


def test_metrics_csv_round_trip(tmp_path, tiny_ex1):
    sc, mesh, part, ref = tiny_ex1
    run = run_assimilated(sc, ref.stream, part, mesh, mu=10.0)
    path = tmp_path / "metrics.csv"
    run.report.write_csv(path)
    lines = path.read_text().splitlines()
    assert b"\r" not in path.read_bytes()
    assert lines[0] == ",".join(METRIC_COLUMNS)
    parsed = np.array([[float(v) for v in line.split(",")]
                       for line in lines[1:]])
    np.testing.assert_array_equal(parsed[:, 0], run.report.times)
    np.testing.assert_array_equal(parsed[:, 1], run.report.r_percent)
    assert len(lines) == 1 + len(run.report.rows)


def test_sweep_rows_sorted_and_complete():
    sc = scenarios.example1(nx=10, t_end=0.04)
    rows = parameter_sweep(sc, mu_values=[10.0, 0.0], spacings=[0.5, 0.1])
    assert [(r[1], r[0]) for r in rows] == [(0.1, 0.0), (0.1, 10.0),
                                            (0.5, 0.0), (0.5, 10.0)]
    assert all(r[4] == "ok" for r in rows)


def test_sweep_records_failures_instead_of_raising():
    sc = scenarios.example1(nx=10, t_end=0.04)
    rows = parameter_sweep(sc, mu_values=[1.0], spacings=[0.1, 0.15])
    status = {r[1]: r[4] for r in rows}
    assert status[0.1] == "ok"
    assert status[0.15].startswith("failed:")


def test_non_finite_state_raises_with_time_and_step():
    sc = nan_source_after_start(scenarios.example1(nx=10, t_end=0.04))
    part = TimePartition.from_scenario(sc)
    with pytest.raises(NonFiniteStateError) as info:
        run_reference(sc, part)
    assert info.value.step == 1
    assert info.value.t == part.fine_times(0)[1]
    rows = parameter_sweep(sc, mu_values=[1.0], spacings=[0.1])
    assert rows[0][4].startswith("failed: non-finite concentration")


def _counted_references(monkeypatch):
    calls = []
    run_ref = driver.run_reference

    def counted(*args, **kw):
        calls.append(args[0].spacing)
        return run_ref(*args, **kw)

    monkeypatch.setattr(driver, "run_reference", counted)
    return calls


def test_a_sweep_runs_one_reference_for_all_its_spacings(monkeypatch):
    calls = _counted_references(monkeypatch)
    sc = scenarios.example1(nx=10, t_end=0.04)
    rows = parameter_sweep(sc, mu_values=[1.0, 10.0], spacings=[0.5, 0.2, 0.1])
    assert calls == [0.1]
    assert [(r[1], r[0]) for r in rows] == [
        (sp, mu) for sp in (0.1, 0.2, 0.5) for mu in (1.0, 10.0)]
    assert all(r[4] == "ok" for r in rows)


def test_a_failed_reference_fails_every_aligned_row(monkeypatch):
    calls = _counted_references(monkeypatch)
    sc = nan_source_after_start(scenarios.example1(nx=10, t_end=0.04))
    rows = parameter_sweep(sc, mu_values=[1.0, 10.0],
                           spacings=[0.5, 0.15, 0.1])
    assert calls == [0.1]
    status = {(r[1], r[0]): r[4] for r in rows}
    assert len(status) == 6
    for (spacing, _), text in status.items():
        want = ("failed: lattice spacing 0.15 " if spacing == 0.15
                else "failed: non-finite concentration at t = ")
        assert text.startswith(want)


def test_the_reference_does_not_depend_on_the_lattice():
    """What lets a sweep share one reference: references on two lattices
    are bitwise equal, and observing one on the other's lattice gives the
    other's stream."""
    sc = scenarios.example1(nx=20, t_end=0.04)
    part = TimePartition.from_scenario(sc)
    mesh = sc.build_mesh()
    coarse, fine = (run_reference(sc.with_overrides(spacing=sp), part, mesh)
                    for sp in (0.5, 0.1))
    assert np.array_equal(coarse.trajectory.values, fine.trajectory.values)
    stream = driver.observe(coarse.trajectory, SparseGrid(mesh, 0.1), part)
    assert np.array_equal(stream.times, fine.stream.times)
    assert np.array_equal(stream.values, fine.stream.values)


def test_sweep_csv_format(tmp_path):
    rows = [(1.0, 0.1, 2.5, -3.0, "ok")]
    sweep_csv(rows, tmp_path / "sweep.csv")
    text = (tmp_path / "sweep.csv").read_text().splitlines()
    assert text[0] == "mu,spacing,plateau_R_percent,rate,status"
    assert text[1].endswith(",ok")
    # Each line ends in a bare newline, so `grep -c ',ok$'` counts the row.
    assert (tmp_path / "sweep.csv").read_bytes() == (
        b"mu,spacing,plateau_R_percent,rate,status\n1.0,0.1,2.5,-3.0,ok\n")


def test_static_operators_built_once_per_run(monkeypatch):
    """A run marching several coarse intervals assembles the static transport
    operators once, not once per interval."""
    calls = []
    build = TransportCoefficients._build_static

    def counted(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(TransportCoefficients, "_build_static", counted)
    sc = scenarios.example1(nx=10, t_end=0.06)
    part = TimePartition.from_scenario(sc)
    assert part.n_coarse >= 3
    mesh = sc.build_mesh()
    ref = run_reference(sc, part, mesh)
    assert len(calls) == 1
    run_assimilated(sc, ref.stream, part, mesh, reference=ref.trajectory)
    assert len(calls) == 2


# -- what a run keeps ------------------------------------------------------------

def test_a_nudged_run_keeps_only_the_levels_asked_for(tiny_ex1):
    sc, mesh, part, ref = tiny_ex1
    every = run_assimilated(sc, ref.stream, part, mesh, mu=10.0,
                            keep_times=part.all_times())
    nothing = run_assimilated(sc, ref.stream, part, mesh, mu=10.0)
    times = [part.coarse_times[-1], part.fine_times(0)[3]]
    some = run_assimilated(sc, ref.stream, part, mesh, mu=10.0,
                           keep_times=times)
    assert len(every.trajectory) == len(part.all_times())
    assert len(nothing.trajectory) == 0
    assert nothing.trajectory.values.nbytes == 0
    assert list(some.trajectory.times) == sorted(times)
    for t in times:
        assert np.array_equal(some.trajectory.at(t).values,
                              every.trajectory.at(t).values)
    for run in (nothing, some):
        assert np.array_equal(np.asarray(run.report.rows),
                              np.asarray(every.report.rows), equal_nan=True)


@pytest.mark.parametrize("t", [0.003, -0.002, 0.06])
def test_a_keep_time_off_the_levels_raises_before_any_step(tiny_ex1,
                                                           monkeypatch, t):
    sc, mesh, part, ref = tiny_ex1
    steps = []
    monkeypatch.setattr(transport, "step",
                        lambda *a, **kw: steps.append(a) or None)
    with pytest.raises(ValueError, match="keep time"):
        run_assimilated(sc, ref.stream, part, mesh, mu=10.0,
                        keep_times=[part.coarse_times[1], t])
    assert steps == []


def test_a_nudged_run_steps_on_its_reference_mesh(tiny_ex1):
    """Given a reference, a run without `mesh` builds none: it steps on the
    reference's, with the rows of a run given that mesh."""
    sc, mesh, part, ref = tiny_ex1
    run = run_assimilated(sc, ref.stream, part, mu=10.0,
                          reference=ref.trajectory)
    assert run.trajectory.mesh is mesh
    given = run_assimilated(sc, ref.stream, part, mesh, mu=10.0,
                            reference=ref.trajectory)
    assert np.array_equal(np.asarray(run.report.rows),
                          np.asarray(given.report.rows), equal_nan=True)


def _no_set_up(*args, **kwargs):
    raise AssertionError("the run was set up")


@pytest.mark.parametrize("nx, lx, shown", [
    (10, 1.0, "mesh 10 x 10 on 1.0 x 1.0"),
    (20, 2.0, "mesh 20 x 20 on 2.0 x 1.0")])
def test_a_mesh_other_than_the_reference_s_raises_before_set_up(
        tiny_ex1, monkeypatch, nx, lx, shown):
    sc, mesh, part, ref = tiny_ex1
    monkeypatch.setattr(transport, "TransportCoefficients", _no_set_up)
    other = build_mesh(nx, nx, lx, 1.0)
    with pytest.raises(ValueError, match=re.escape(
            f"{shown} is not the reference's mesh 20 x 20 on 1.0 x 1.0")):
        run_assimilated(sc, ref.stream, part, other, mu=10.0,
                        reference=ref.trajectory)


def test_a_stream_of_other_length_than_the_lattice_raises_before_set_up(
        tiny_ex1, monkeypatch):
    sc, mesh, part, ref = tiny_ex1
    monkeypatch.setattr(transport, "TransportCoefficients", _no_set_up)
    short = ObservationStream(ref.stream.times, ref.stream.values[:, :-1])
    with pytest.raises(ValueError, match=re.escape(
            "the stream holds 120 functionals per record, the lattice of "
            "spacing 0.1 on mesh 20 x 20 on 1.0 x 1.0 has 121")):
        run_assimilated(sc, short, part, mesh, mu=10.0,
                        reference=ref.trajectory)


def test_a_run_that_keeps_nothing_does_not_grow_with_t_end():
    """The traced peak of a nudged run that keeps no level is the same at
    4, 8 and 16 days; storing every level would add 1.9 MB per 4 days."""
    sc = scenarios.example4(nx=48)
    mesh = sc.build_mesh()
    ref = run_reference(sc, TimePartition.from_scenario(
        sc.with_overrides(t_end=16 * scenarios.DAY)), mesh)

    def peak(days):
        part = TimePartition.from_scenario(
            sc.with_overrides(t_end=days * scenarios.DAY))
        tracemalloc.start()
        try:
            run_assimilated(sc, ref.stream, part, mesh,
                            reference=ref.trajectory)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4)                   # the mesh constants a nudged run builds
    peaks = [peak(days) for days in (4, 8, 16)]
    assert max(peaks) <= 1.05 * min(peaks), peaks


def test_a_sweep_reads_each_reference_level_once(monkeypatch):
    """The nudged runs of a sweep share one reference: each reference
    level's norm and functionals are computed once between them, and every
    report row is bitwise equal to that of a run that computes them
    itself."""
    sc = scenarios.example1(nx=20)
    part = TimePartition.from_scenario(sc.with_overrides(t_end=0.1))
    mu_values = [1.0, 10.0, 100.0]
    norms, samples, reports, refs = [], [], [], []
    l2_norm, sample = driver.l2_norm, SparseGrid.sample
    run_ref, run_nudged = driver.run_reference, driver.run_assimilated

    def counted_norm(field):
        if isinstance(field, NodalField):
            norms.append(field)
        return l2_norm(field)

    def counted_sample(self, field):
        samples.append(field)
        return sample(self, field)

    def logged_ref(*args, **kw):
        refs.append(run_ref(*args, **kw))
        return refs[-1]

    def logged_nudged(*args, **kw):
        reports.append(run_nudged(*args, **kw).report)
        return driver.AssimilationRun(None, reports[-1])

    monkeypatch.setattr(driver, "l2_norm", counted_norm)
    monkeypatch.setattr(SparseGrid, "sample", counted_sample)
    monkeypatch.setattr(driver, "run_reference", logged_ref)
    monkeypatch.setattr(driver, "run_assimilated", logged_nudged)
    rows = parameter_sweep(sc, mu_values, partition=part)
    levels = len(part.all_times())
    assert len(norms) == levels
    # The stream and the nudged runs' Rtilde read the same values: each
    # reference level is sampled once.  The reference run's own Rtilde
    # samples the exact truth, once per level.
    ref = refs[0].trajectory
    of_levels = [f for f in samples if np.shares_memory(f.values, ref.values)]
    assert len(of_levels) == levels
    assert len(samples) == 2 * levels
    assert [row[4] for row in rows] == ["ok"] * len(mu_values)

    mesh = ref.mesh
    for mu, report, row in zip(mu_values, reports, rows):
        own = run_nudged(sc, refs[0].stream, part, mesh, mu=mu,
                         reference=Trajectory(mesh, ref.times, ref.values))
        assert np.array_equal(np.asarray(report.rows),
                              np.asarray(own.report.rows), equal_nan=True)
        assert row[2] == own.report.plateau_value()


def test_readme_library_quick_start_runs_verbatim(tmp_path, monkeypatch):
    """The README's library quick start, run as written (example1 at
    nx = 60), in a scratch working directory for its metrics.csv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Quick start \(library\)\n\n```python\n(.*?)```",
                      readme, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert (tmp_path / "metrics.csv").stat().st_size > 0
    assert namespace["theta"].values.shape == (61 * 61,)
