import warnings
from pathlib import Path

import numpy as np
import pytest

from porousda import driver, scenarios
from porousda.cli import (STEP_FACTOR_BOUND, _write_snapshots,
                          build_scenario, load_config, main)
from test_driver import nan_source_after_start


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def outroot(tmp_path, monkeypatch):
    monkeypatch.setenv("POROUSDA_OUTPUT_ROOT", str(tmp_path))
    return tmp_path


EX1_SMALL = """
[scenario]
name = example1

[mesh]
nx = 10

[time]
t_end = 0.04

[assimilation]
mu = {mu}

[output]
dir = {dir}
"""


def test_run_writes_metrics_and_report(tmp_path, outroot, capsys):
    cfg = _write(tmp_path, "run.ini", EX1_SMALL.format(mu="50", dir="single"))
    assert main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "final R" in out
    rundir = outroot / "single"
    header = (rundir / "metrics.csv").read_text().splitlines()[0]
    assert header == "t,R_percent,Rtilde_percent,mass_residual,range_min,range_max"
    assert (rundir / "reference_metrics.csv").exists()
    report = (rundir / "report.txt").read_text()
    assert "final R_percent" in report
    assert "max flux conservation residual" in report
    assert "solved by a sparse LU factor: 2 of 2" in report
    assert "recovered from a bicgstab breakdown" not in report


def test_run_and_sweep_measure_r_against_the_reference_run(tmp_path,
                                                           outroot):
    """example1 has an analytic solution, yet `run` and `sweep` measure R
    against the reference run.  A free run from the true start equals the
    reference run, so every R row is 0.0; against the analytic solution
    the same run reaches 4.009 % in its two coarse steps."""
    text = (EX1_SMALL.format(mu="0", dir="truth")
            .replace("mu = 0\n", "mu = 0\ntheta0 = true\n")
            + "\n[sweep]\nmu = 0\n")
    cfg = _write(tmp_path, "truth.ini", text)
    assert main(["run", cfg]) == 0
    rows = (outroot / "truth" / "metrics.csv").read_text().splitlines()[1:]
    assert len(rows) == 21
    assert all(float(row.split(",")[1]) == 0.0 for row in rows)
    assert main(["sweep", cfg]) == 0
    sweep = (outroot / "truth" / "sweep.csv").read_text().splitlines()
    assert float(sweep[1].split(",")[2]) == 0.0

    sc = build_scenario(load_config(cfg))
    ref = driver.run_reference(sc)
    analytic = driver.run_assimilated(sc, ref.stream)
    assert analytic.report.r_percent.max() == pytest.approx(4.009, abs=5e-4)


def test_run_splits_mu_list_into_subdirs(tmp_path, outroot):
    cfg = _write(tmp_path, "multi.ini",
                 EX1_SMALL.format(mu="0 100", dir="multi")
                 .replace("t_end = 0.04", "t_end = 0.02"))
    assert main(["run", cfg]) == 0
    r = {}
    for mu in ("0", "100"):
        csv = (outroot / "multi" / f"mu_{mu}" / "metrics.csv").read_text()
        r[mu] = float(csv.splitlines()[-1].split(",")[1])
    # a free run barely moves from the 100% initial mismatch in one
    # coarse window; the nudged run is already far closer to the truth
    assert r["0"] > 30.0
    assert r["100"] < r["0"]


def test_run_snapshots_parse_back(tmp_path, outroot):
    text = EX1_SMALL.format(mu="10", dir="snap") + "snapshots = 0.04\n"
    cfg = _write(tmp_path, "snap.ini", text)
    assert main(["run", cfg]) == 0
    snap = outroot / "snap" / "theta_t0.04.raster"
    header = snap.read_text().splitlines()[0].split()
    assert header[:2] == ["11", "11"]
    values = np.loadtxt(snap, skiprows=1)
    assert values.shape == (11, 11)
    assert np.all(np.isfinite(values))


def test_run_snapshots_equal_those_of_a_fully_kept_trajectory(tmp_path,
                                                              outroot):
    """The CLI's nudged run keeps only its snapshot levels, and writes the
    same bytes as from a run that keeps every level."""
    text = EX1_SMALL.format(mu="10", dir="kept") + "snapshots = 0.02 0.04\n"
    cfg = _write(tmp_path, "kept.ini", text)
    assert main(["run", cfg]) == 0
    sc = build_scenario(load_config(cfg))
    mesh = sc.build_mesh()
    part = driver.TimePartition.from_scenario(sc)
    ref = driver.run_reference(sc, part, mesh)
    run = driver.run_assimilated(sc, ref.stream, part, mesh,
                                 reference=ref.trajectory,
                                 keep_times=part.all_times())
    full = tmp_path / "full"
    full.mkdir()
    _write_snapshots(full, sc, run.trajectory, [0.02, 0.04])
    for name in ("theta_t0.02.raster", "theta_t0.04.raster"):
        assert ((outroot / "kept" / name).read_bytes()
                == (full / name).read_bytes())


def test_run_drops_default_snapshots_beyond_t_end(tmp_path, outroot):
    """example3's default snapshots are at 0.002, 0.012 and 0.024; a run to
    0.004 writes the first and skips the others instead of failing after
    the run with exit 2."""
    cfg = _write(tmp_path, "short.ini", """
[scenario]
name = example3

[mesh]
nx = 30

[time]
t_end = 0.004

[assimilation]
spacing = 0.1

[output]
dir = short
""")
    assert main(["run", cfg]) == 0
    snaps = sorted(p.name for p in (outroot / "short").glob("theta_t*.raster"))
    assert snaps == ["theta_t0.002.raster"]


@pytest.mark.parametrize("times", ["0.02 0.5", "-0.01", "0.003"])
def test_run_rejects_snapshots_off_the_run_levels_before_running(
        tmp_path, outroot, capsys, times):
    text = EX1_SMALL.format(mu="10", dir="badsnap") + f"snapshots = {times}\n"
    cfg = _write(tmp_path, "badsnap.ini", text)
    assert main(["run", cfg]) == 2
    assert "error: snapshot time" in capsys.readouterr().err
    assert not (outroot / "badsnap" / "reference_metrics.csv").exists()


SMOKE_CONFIGS = sorted((Path(__file__).parent / "smoke").glob("*.ini"))


@pytest.mark.parametrize("path", SMOKE_CONFIGS, ids=lambda p: p.stem)
def test_every_ci_smoke_config_validates(path, capsys):
    """The configs that CI's console-script smoke step runs."""
    assert main(["validate", str(path)]) == 0
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).parent / "smoke" / "bad").glob("*.ini")),
    ids=lambda p: p.stem)
def test_every_bad_ci_smoke_config_exits_2_and_writes_nothing(
        path, tmp_path, outroot, capsys):
    """The configs that CI's console-script smoke step runs expecting exit
    2; one names README.md, a file in the directory CI runs from."""
    (outroot / "README.md").write_text("a file\n")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert [p.name for p in outroot.iterdir()] == ["README.md"]


def test_validate_reports_assumptions_and_alignment(tmp_path, capsys):
    cfg = _write(tmp_path, "val.ini", """
[scenario]
name = example2

[mesh]
nx = 10
""")
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "A1: warn" in out          # manufactured solution exceeds 1
    assert "A2: pass" in out
    assert "alignment: pass" in out
    assert "stability proxy" in out


def test_validate_flags_misaligned_lattice(tmp_path, capsys):
    cfg = _write(tmp_path, "mis.ini", """
[scenario]
name = example1

[mesh]
nx = 12
""")
    assert main(["validate", cfg]) == 0
    assert "alignment: warn" in capsys.readouterr().out


def test_sweep_writes_sorted_csv(tmp_path, outroot):
    cfg = _write(tmp_path, "sweep.ini", """
[scenario]
name = example1

[mesh]
nx = 10

[time]
t_end = 0.04

[sweep]
mu = 10 0
spacing = 0.1

[output]
dir = sw
""")
    assert main(["sweep", cfg]) == 0
    lines = (outroot / "sw" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "mu,spacing,plateau_R_percent,rate,status"
    mus = [float(line.split(",")[0]) for line in lines[1:]]
    assert mus == sorted(mus)


def test_sweep_builds_one_mesh_for_every_spacing(tmp_path, outroot,
                                                 monkeypatch):
    """`sweep` builds the mesh once to check the lattices and once for all
    its runs, since a spacing does not change the mesh; its rows equal
    those of one sweep per spacing, each on its own mesh, bitwise."""
    cfg = _write(tmp_path, "meshes.ini", """
[scenario]
name = example1

[mesh]
nx = 20

[time]
t_end = 0.04

[sweep]
mu = 10
spacing = 0.1 0.2

[output]
dir = meshes
""")
    built = []
    build_mesh = scenarios.build_mesh

    def counted(*args, **kwargs):
        mesh = build_mesh(*args, **kwargs)
        built.append((mesh.nx, mesh.ny))
        return mesh

    monkeypatch.setattr(scenarios, "build_mesh", counted)
    assert main(["sweep", cfg]) == 0
    assert built == [(20, 20)] * 2
    got = (outroot / "meshes" / "sweep.csv").read_text().splitlines()
    sc = build_scenario(load_config(cfg))
    part = driver.TimePartition.from_scenario(sc)
    want = [row for spacing in (0.1, 0.2)
            for row in driver.parameter_sweep(sc, [10.0], [spacing],
                                              partition=part)]
    driver.sweep_csv(want, tmp_path / "want.csv")
    assert got == (tmp_path / "want.csv").read_text().splitlines()


def test_sweep_failure_sets_exit_code(tmp_path, outroot):
    """A run that fails once under way (here the reference run, at the
    solver's iteration cap) is a `failed:` row and exit 1; a bad spacing is
    a configuration error (see test_bad_lattice_exits_2_before_writing)."""
    cfg = _write(tmp_path, "sweepfail.ini", """
[scenario]
name = example1

[mesh]
nx = 10

[time]
t_end = 0.04

[sweep]
mu = 10
spacing = 0.1 0.2

[solver]
max_iter = 1

[output]
dir = swf
""")
    assert main(["sweep", cfg]) == 1
    body = (outroot / "swf" / "sweep.csv").read_text()
    assert "failed:" in body


def test_unknown_scenario_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", "[scenario]\nname = example9\n")
    assert main(["run", cfg]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.ini")]) == 2
    assert "not found" in capsys.readouterr().err


def test_bad_observation_kind_exits_2(tmp_path, outroot):
    cfg = _write(tmp_path, "kind.ini", """
[scenario]
name = example1

[mesh]
nx = 10

[time]
t_end = 0.04

[assimilation]
kind = fourier
""")
    assert main(["run", cfg]) == 2


@pytest.mark.parametrize("command, section, setting, key", [
    ("run", "assimilation", "spacing = 0", "[assimilation] spacing"),
    ("run", "assimilation", "spacing = -1", "[assimilation] spacing"),
    ("run", "assimilation", "spacing = nan", "[assimilation] spacing"),
    ("run", "assimilation", "spacing = inf", "[assimilation] spacing"),
    ("run", "assimilation", "spacing = 7", "[assimilation] spacing"),
    ("run", "assimilation", "kind = bogus", "[assimilation] kind"),
    ("sweep", "sweep", "spacing = 0.1 0", "[sweep] spacing"),
    ("sweep", "sweep", "spacing = 0.1 0.15", "[sweep] spacing"),
    ("sweep", "assimilation", "spacing = 0", "[assimilation] spacing"),
    ("sweep", "assimilation", "kind = bogus", "[assimilation] kind"),
])
def test_bad_lattice_exits_2_before_writing(tmp_path, outroot, capsys,
                                            command, section, setting, key):
    """A bad spacing or kind exited 2 only from inside the reference run,
    after the output directory was made; spacing = nan printed "cannot
    convert float NaN to integer"; a sweep ran its good spacings and wrote
    `failed:` rows for the bad one."""
    text = EX1_SMALL.format(mu="10", dir="badgrid") + f"\n[{section}]\n{setting}\n"
    cfg = _write(tmp_path, "badgrid.ini", text.replace(
        "[assimilation]\nmu = 10\n\n[output]", "[output]"))
    assert main([command, cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ")
    assert "NaN to integer" not in err
    assert not (outroot / "badgrid").exists()


def test_failed_reference_run_reports_and_exits_1(tmp_path, outroot, capsys):
    text = EX1_SMALL.format(mu="10", dir="noconv") + "\n[solver]\nmax_iter = 1\n"
    cfg = _write(tmp_path, "noconv.ini", text)
    assert main(["run", cfg]) == 1
    assert "reference: FAILED" in capsys.readouterr().err
    report = (outroot / "noconv" / "report.txt").read_text()
    assert report.startswith("reference run failed:")


@pytest.mark.parametrize("setting", ["max_iter = -5", "rel_tol = nan"])
def test_bad_solver_setting_exits_2_before_writing(tmp_path, outroot, capsys,
                                                   setting):
    """A negative cap made every BiCGStab solve return scipy's info = -5, a
    "breakdown" that LU then solved, and a NaN tolerance made every factor
    solve miss it; both runs exited 0."""
    text = EX1_SMALL.format(mu="10", dir="badsolver") + f"\n[solver]\n{setting}\n"
    cfg = _write(tmp_path, "badsolver.ini", text)
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: solver ")
    assert not (outroot / "badsolver").exists()


@pytest.mark.parametrize("mu", ["nan", "inf", "-1", "10 nan"])
@pytest.mark.parametrize("command, section", [("run", "assimilation"),
                                             ("sweep", "sweep")])
def test_bad_mu_exits_2_before_writing(tmp_path, outroot, capsys, command,
                                       section, mu):
    """mu = nan ran un-nudged and exited 0; mu = -1 exited 1 after the
    reference run had written its files."""
    text = (EX1_SMALL.format(mu="10", dir="badmu")
            + f"\n[{section}]\nmu = {mu}\n").replace(
                "[assimilation]\nmu = 10\n", "" if section == "assimilation"
                else "[assimilation]\nmu = 10\n")
    cfg = _write(tmp_path, "badmu.ini", text)
    assert main([command, cfg]) == 2
    assert "mu must be finite and nonnegative" in capsys.readouterr().err
    assert not (outroot / "badmu").exists()


@pytest.mark.parametrize("command, section, key", [
    ("run", "assimilation", "mu"), ("validate", "assimilation", "mu"),
    ("sweep", "sweep", "mu"), ("sweep", "sweep", "spacing")])
def test_an_empty_list_exits_2_before_writing(tmp_path, outroot, capsys,
                                              command, section, key):
    """`[assimilation] mu =` ran the reference alone, wrote its metrics and
    exited 0; an empty `[sweep]` list wrote a sweep.csv of the header alone
    and exited 0."""
    text = EX1_SMALL.format(mu="10", dir="empty")
    if section == "assimilation":
        text = text.replace("mu = 10\n", "mu =\n")
    else:
        text += f"\n[sweep]\n{key} =\n"
    cfg = _write(tmp_path, "empty.ini", text)
    assert main([command, cfg]) == 2
    assert capsys.readouterr().err == (
        f"error: [{section}] {key} = '' is not a list of numbers\n")
    assert not (outroot / "empty").exists()


def test_an_empty_snapshot_list_turns_the_default_snapshots_off(tmp_path,
                                                                outroot):
    text = ("[scenario]\nname = example3\n[mesh]\nnx = 12\n"
            "[time]\nt_end = 0.004\n[assimilation]\nspacing = 0.25\n"
            "[output]\ndir = {dir}\n")
    for name, extra in (("default", ""), ("none", "snapshots =\n")):
        cfg = _write(tmp_path, f"{name}.ini", text.format(dir=name) + extra)
        assert main(["run", cfg]) == 0
    assert (outroot / "default" / "theta_t0.002.raster").exists()
    assert (outroot / "none" / "metrics.csv").exists()
    assert not list((outroot / "none").glob("*.raster"))


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("where, setting", [
    ("dir", "taken"), ("dir", "taken/sub"), ("root", "sub")])
def test_an_output_dir_that_cannot_be_made_exits_2_before_running(
        tmp_path, monkeypatch, capsys, command, where, setting):
    """`[output] dir` naming a file raised FileExistsError from `run`, and
    a directory under a file NotADirectoryError from `sweep`; both exited 1
    with a traceback.  A POROUSDA_OUTPUT_ROOT that is a file did the same."""
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    root, name = ((tmp_path, "[output] dir") if where == "dir"
                  else (taken, "POROUSDA_OUTPUT_ROOT"))
    monkeypatch.setenv("POROUSDA_OUTPUT_ROOT", str(root))
    cfg = _write(tmp_path, "taken.ini", EX1_SMALL.format(mu="10", dir=setting)
                 + "\n[sweep]\nmu = 10\n")
    assert main([command, cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name}: cannot make directory ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken", "taken.ini"]
    assert taken.read_text() == "a file\n"


@pytest.mark.parametrize("mu", ["1 1", "1 1.0000001", "0 5 5.0000001"])
def test_mu_values_that_share_a_run_directory_exit_2_before_writing(
        tmp_path, outroot, capsys, mu):
    """Both runs wrote mu_1/, the second over the first, and the exit code
    was 0."""
    cfg = _write(tmp_path, "samedir.ini", EX1_SMALL.format(mu=mu, dir="samedir"))
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "[assimilation] mu" in err
    first, second = mu.split()[-2:]
    assert f"{float(first)!r} and {float(second)!r}" in err
    assert not (outroot / "samedir").exists()


def test_a_run_directory_that_is_a_file_exits_2_before_writing(
        tmp_path, outroot, capsys):
    """With a file named mu_0 in the output directory, `run` wrote
    reference_metrics.csv and then stopped with a FileExistsError
    traceback."""
    cfg = _write(tmp_path, "clash.ini", EX1_SMALL.format(mu="0 100",
                                                         dir="clash"))
    (outroot / "clash").mkdir()
    (outroot / "clash" / "mu_0").write_text("a file\n")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [assimilation] mu: run directory ")
    assert "mu_0" in err and "is not a directory" in err
    assert [p.name for p in (outroot / "clash").iterdir()] == ["mu_0"]
    assert (outroot / "clash" / "mu_0").read_text() == "a file\n"


def test_validate_step_line_ranks_runs_as_the_step_factor_does(tmp_path,
                                                               capsys):
    """example1 at nx = 20 and dt = 0.002: R after 10 fine steps ranks as
    the per-step factor |1 - mu dt/2| / (1 + mu dt/2) of a nudged mode
    predicts, and `validate` warns exactly where the factor, past
    mu dt = 2, exceeds its bound."""
    sc = scenarios.example1(nx=20).with_overrides(t_end=0.02, spacing=0.1)
    part = driver.TimePartition.from_scenario(sc)
    assert part.n_coarse * part.fine_per_coarse == 10
    ref = driver.run_reference(sc, part)
    r10, factor = {}, {}
    for mu_dt in (0.2, 2.0, 20.0, 200.0):
        mu = mu_dt / part.fine_step
        run = driver.run_assimilated(sc, ref.stream, part, mu=mu,
                                     reference=ref.trajectory)
        r10[mu_dt] = run.report.r_percent[10]
        cfg = _write(tmp_path, "step.ini", f"""
[scenario]
name = example1
[mesh]
nx = 20
[time]
t_end = 0.02
[assimilation]
mu = {mu!r}
spacing = 0.1
""")
        assert main(["validate", cfg]) == 0
        line = next(text for text in capsys.readouterr().out.splitlines()
                    if text.startswith("  step: "))
        factor[mu_dt] = float(line.split("= ")[-1].split()[0])
        assert factor[mu_dt] == pytest.approx(
            abs(1.0 - mu_dt / 2.0) / (1.0 + mu_dt / 2.0), rel=1e-5)
        warns = mu_dt > 2.0 and factor[mu_dt] > STEP_FACTOR_BOUND
        assert line.startswith("  step: warn" if warns else "  step: pass")
    assert [mu_dt for mu_dt in factor if factor[mu_dt] > STEP_FACTOR_BOUND] \
        == [200.0]
    for a in r10:
        for b in r10:
            if factor[a] < factor[b] - 1e-6:
                assert r10[a] < r10[b], (a, b, r10)


def test_validate_judges_every_listed_mu(capsys):
    """With two mu values (example1 at nx = 20, spacing 0.1, the config CI
    checks), each gets its own step and proxy line, naming it; before,
    both lines judged the scenario's default mu = 100."""
    cfg = Path(__file__).parent / "smoke" / "validate" / "two-mu.ini"
    assert main(["validate", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    for prefix in ("  step: ", "  stability proxy: "):
        judged = [line for line in lines if line.startswith(prefix)]
        assert len(judged) == 2
        assert judged[0].startswith(prefix + "pass (mu = 1, ")
        assert judged[1].startswith(prefix + "warn (mu = 1e+06, ")


@pytest.mark.parametrize("setting", ["dt = 0", "fine_per_coarse = 0"])
def test_zero_step_exits_2_before_writing(tmp_path, outroot, capsys, setting):
    text = EX1_SMALL.format(mu="10", dir="zerostep").replace(
        "t_end = 0.04", f"t_end = 0.04\n{setting}")
    cfg = _write(tmp_path, "zerostep.ini", text)
    for command in ("run", "sweep"):
        assert main([command, cfg]) == 2
        assert setting.split()[0] in capsys.readouterr().err
    assert not (outroot / "zerostep").exists()


def test_non_finite_reference_run_reports_and_exits_1(tmp_path, outroot,
                                                      capsys, monkeypatch):
    monkeypatch.setitem(scenarios.BUILTIN_SCENARIOS, "example1",
                        lambda nx=100: nan_source_after_start(scenarios.example1(nx)))
    cfg = _write(tmp_path, "nan.ini", EX1_SMALL.format(mu="10", dir="nan"))
    assert main(["run", cfg]) == 1
    assert "reference: FAILED (non-finite concentration" in capsys.readouterr().err
    report = (outroot / "nan" / "report.txt").read_text()
    assert report.startswith("reference run failed: non-finite concentration")


def test_kappa_out_of_range_in_the_reference_run_reports_and_exits_1(
        tmp_path, outroot, capsys):
    """A conductivity raster of 1e307 overflows kappa to inf once the
    concentration leaves 0.  The reference run fails as a run, as it does
    in a sweep: report.txt names kappa and the command exits 1, not 2."""
    raster = tmp_path / "huge.raster"
    scenarios.write_raster(raster, np.full((4, 4), 1e307), (1.0, 1.0))
    cfg = _write(tmp_path, "huge.ini", f"""
[scenario]
name = example3
raster = {raster}

[mesh]
nx = 12

[time]
t_end = 0.004

[assimilation]
spacing = 0.25

[output]
dir = huge
""")
    assert main(["run", cfg]) == 1
    assert "reference: FAILED (kappa must be positive and finite, found inf)" \
        in capsys.readouterr().err
    report = (outroot / "huge" / "report.txt").read_text()
    assert report == ("reference run failed: kappa must be positive and "
                      "finite, found inf\n")


def test_validate_reports_an_overflowing_kappa_without_a_warning(
        tmp_path, capsys):
    """The raster above makes kappa overflow to inf on validate's probe
    lattice as well: the range shows it, and nothing reaches stderr."""
    raster = tmp_path / "huge.raster"
    scenarios.write_raster(raster, np.full((4, 4), 1e307), (1.0, 1.0))
    cfg = _write(tmp_path, "huge.ini", f"""
[scenario]
name = example3
raster = {raster}

[mesh]
nx = 12

[assimilation]
spacing = 0.25
""")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", cfg]) == 0
    out, err = capsys.readouterr()
    assert "  A3: warn (conductivity range [1e+307, inf])\n" in out
    assert err == ""


def test_mesh_ny_alone_overrides_the_scenario_rows(tmp_path):
    cfg = load_config(_write(tmp_path, "ny.ini", """
[scenario]
name = example1

[mesh]
ny = 30
"""))
    sc = build_scenario(cfg)
    assert (sc.nx, sc.ny) == (100, 30)
    mesh = sc.build_mesh()
    assert (mesh.nx, mesh.ny) == (100, 30)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_unknown_initial_policy_exits_2_before_writing(tmp_path, outroot,
                                                       capsys, command):
    """theta0 = bogus exited 1 with FAILED after the reference run had
    written reference_metrics.csv and report.txt."""
    text = EX1_SMALL.format(mu="10", dir="badtheta0") + "\n"
    text = text.replace("[assimilation]\n", "[assimilation]\ntheta0 = bogus\n")
    cfg = _write(tmp_path, "badtheta0.ini", text)
    assert main([command, cfg]) == 2
    assert "unknown initial policy 'bogus'" in capsys.readouterr().err
    assert not (outroot / "badtheta0").exists()


def test_snapshot_time_error_prints_plain_floats(tmp_path, outroot, capsys):
    text = EX1_SMALL.format(mu="10", dir="badsnap") + "snapshots = 0.003\n"
    cfg = _write(tmp_path, "badsnap.ini", text)
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "from 0.0 to 0.04 in steps of 0.002" in err
    assert "np." not in err


@pytest.mark.parametrize("section, key, value, kind", [
    ("mesh", "nx", "abc", "an integer"),
    ("mesh", "ny", "4.5", "an integer"),
    ("scenario", "seed", "one", "an integer"),
    ("time", "dt", "fast", "a number"),
    ("time", "fine_per_coarse", "2.0", "an integer"),
    ("time", "t_end", "later", "a number"),
    ("assimilation", "spacing", "wide", "a number"),
    ("assimilation", "mu", "10 strong", "a list of numbers"),
])
def test_unparsable_value_names_its_section_and_key(tmp_path, outroot, capsys,
                                                    section, key, value, kind):
    """`[mesh] nx = abc` printed "invalid literal for int() with base 10",
    which names neither the section nor the key."""
    header = "" if section == "scenario" else f"[{section}]\n"
    cfg = _write(tmp_path, "typed.ini", f"[scenario]\nname = example3\n"
                 f"{header}{key} = {value}\n")
    for command in ("run", "validate", "sweep"):
        assert main([command, cfg]) == 2
        assert (capsys.readouterr().err
                == f"error: [{section}] {key} = {value!r} is not {kind}\n")
    assert [p.name for p in outroot.iterdir()] == ["typed.ini"]


def test_unparsable_output_flag_exits_2_before_writing(tmp_path, outroot,
                                                       capsys):
    """`[output] reference` was read after the reference run."""
    text = EX1_SMALL.format(mu="10", dir="badflag") + "reference = maybe\n"
    cfg = _write(tmp_path, "badflag.ini", text)
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err == (
        "error: [output] reference = 'maybe' is not a boolean\n")
    assert not (outroot / "badflag").exists()


@pytest.mark.parametrize("section, key, value, message", [
    ("time", "dtt", "0.5", "[time] dtt: no command reads this key"),
    ("mesh", "nz", "4", "[mesh] nz: no command reads this key"),
    ("plot", "style", "dots", "[plot] style: no command reads this key"),
    ("DEFAULT", "colour", "red", "[DEFAULT] colour: no command reads this key"),
    ("scenario", "seed", "5", "[scenario] seed: scenario 'example1' takes no seed"),
    ("scenario", "raster", "nonexistent.raster",
     "[scenario] raster: scenario 'example1' takes no raster"),
])
def test_a_key_that_nothing_reads_exits_2_before_writing(
        tmp_path, outroot, capsys, section, key, value, message):
    """These keys were ignored: `[time] dtt` and a seed or raster given to
    example1, which has no raster, ran and wrote metrics.csv."""
    text = EX1_SMALL.format(mu="10", dir="unread")
    if f"[{section}]" in text:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    else:
        text += f"\n[{section}]\n{key} = {value}\n"
    cfg = _write(tmp_path, "unread.ini", text)
    for command in ("run", "validate", "sweep"):
        assert main([command, cfg]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in outroot.iterdir()] == ["unread.ini"]


def test_a_seed_reaches_a_scenario_that_takes_one(tmp_path):
    cfg = load_config(_write(tmp_path, "seeded.ini",
                             "[scenario]\nname = example4\nseed = 5\n"
                             "[mesh]\nnx = 12\n"))
    got = build_scenario(cfg).notes["raster"].values
    np.testing.assert_array_equal(
        got, scenarios.example4(nx=12, seed=5).notes["raster"].values)
    assert not np.array_equal(
        got, scenarios.example4(nx=12).notes["raster"].values)


@pytest.mark.parametrize("setting", ["[time]\nt_end = inf", "[time]\nt_end = -1e308",
                                     "[assimilation]\nmu = nan",
                                     "[assimilation]\nmu = 10 -1",
                                     "[assimilation]\ntheta0 = bogus"])
def test_validate_checks_the_partition_mu_and_policy(tmp_path, capsys, setting):
    """`validate` with t_end = inf raised a RuntimeWarning from its
    assumption report's time samples; it now checks what `run` checks."""
    cfg = _write(tmp_path, "check.ini", "[scenario]\nname = example1\n"
                 "[mesh]\nnx = 10\n" + setting + "\n")
    assert main(["validate", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
