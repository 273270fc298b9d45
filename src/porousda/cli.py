"""Command-line front end: configured runs, diagnostics, parameter sweeps.

Configs are flat INI files (key = value under [section] headers); see the
README for the full grammar.  Three commands:

  run <config>       twin-experiment run(s); writes metrics.csv, report.txt,
                     optional theta_t<time>.raster snapshots per run directory
  validate <config>  assumption flags, the per-step factor of nudging, lattice
                     alignment and the relaxation-stability proxy; pass/warn
  sweep <config>     grid of (mu, spacing) runs; writes one sorted sweep.csv

The output root defaults to the working directory and can be moved with the
POROUSDA_OUTPUT_ROOT environment variable.  Exit status is 0 only when every
requested run completed.
"""

import argparse
import configparser
import inspect
import os
import sys
from pathlib import Path

import numpy as np

from . import driver, scenarios, transport
from .fields import NodalField, l2_diff, quadrature
from .linalg import SolverConfig
from .observation import AlignmentError, SparseGrid, check_lattice


def _fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 2


def load_config(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    return parser


def _floats(text):
    """One or more numbers, separated by blanks or commas."""
    values = [float(tok) for tok in text.replace(",", " ").split()]
    if not values:
        raise ValueError(text)
    return values


def _boolean(text):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(text) from None


_EXPECTED = {int: "an integer", float: "a number", _floats: "a list of numbers",
             _boolean: "a boolean"}


def _option(cfg, section, key, conv, fallback=None):
    """`[section] key` converted by `conv`, or `fallback` when it is absent;
    a value that `conv` rejects raises a ValueError naming section and key."""
    if not cfg.has_option(section, key):
        return fallback
    raw = cfg.get(section, key)
    try:
        return conv(raw)
    except ValueError:
        raise ValueError(f"[{section}] {key} = {raw!r} is not "
                         f"{_EXPECTED[conv]}") from None


# The keys that some command reads, by section.
_KEYS = {
    "scenario": {"name", "seed", "raster"},
    "mesh": {"nx", "ny"},
    "time": {"dt", "fine_per_coarse", "t_end"},
    "assimilation": {"mu", "spacing", "kind", "theta0"},
    "solver": {"rel_tol", "max_iter"},
    "output": {"dir", "snapshots", "reference"},
    "sweep": {"mu", "spacing"},
}


def _check_keys(cfg, name, accepted):
    """Raise a ValueError naming `[section] key` for a key that no command
    reads, and for a scenario `seed` or `raster` that the factory of
    scenario `name`, with parameters `accepted`, does not take."""
    defaults = cfg.defaults()
    given = [(cfg.default_section, key, set().union(*_KEYS.values()))
             for key in defaults]
    given += [(section, key, _KEYS.get(section, set()))
              for section in cfg.sections() for key in cfg[section]
              if key not in defaults]
    for section, key, read in given:
        if key not in read:
            raise ValueError(f"[{section}] {key}: no command reads this key")
    for key in ("seed", "raster"):
        if cfg.has_option("scenario", key) and key not in accepted:
            raise ValueError(f"[scenario] {key}: scenario {name!r} takes "
                             f"no {key}")


def build_scenario(cfg):
    """The configured scenario; a key that no command reads, or that the
    scenario does not take, raises a ValueError before anything runs."""
    sect = cfg["scenario"] if cfg.has_section("scenario") else {}
    name = sect.get("name", "")
    factory = scenarios.BUILTIN_SCENARIOS.get(name)
    if factory is None:
        known = ", ".join(sorted(scenarios.BUILTIN_SCENARIOS))
        raise ValueError(f"unknown scenario {name!r} (known: {known})")
    accepted = inspect.signature(factory).parameters
    _check_keys(cfg, name, accepted)

    kwargs = {}
    nx = _option(cfg, "mesh", "nx", int)
    if nx is not None and "nx" in accepted:
        kwargs["nx"] = nx
    for key, conv in (("seed", int), ("raster", str)):
        if key in sect:
            kwargs[key] = _option(cfg, "scenario", key, conv)
    scenario = factory(**kwargs)

    overrides = {}
    if nx is not None:
        overrides["nx"] = overrides["ny"] = nx
    for section, key, conv in (("mesh", "ny", int),
                               ("time", "dt", float),
                               ("time", "fine_per_coarse", int),
                               ("time", "t_end", float),
                               ("assimilation", "spacing", float)):
        value = _option(cfg, section, key, conv)
        if value is not None:
            overrides[key] = value
    # a list of mu is a run matrix handled by cmd_run, not a scenario field
    mu_values = _option(cfg, "assimilation", "mu", _floats, fallback=())
    if len(mu_values) == 1:
        overrides["mu"] = mu_values[0]
    if cfg.has_option("assimilation", "kind"):
        overrides["observation_kind"] = cfg.get("assimilation", "kind")
    if cfg.has_option("assimilation", "theta0"):
        overrides["theta0_policy"] = cfg.get("assimilation", "theta0")
    return scenario.with_overrides(**overrides) if overrides else scenario


def _solver(cfg):
    """The one solver config of both systems from `[solver]`, or None for
    the default; a bad value raises ValueError before anything runs."""
    if not cfg.has_section("solver"):
        return None
    return SolverConfig(
        rel_tol=_option(cfg, "solver", "rel_tol", float,
                        fallback=SolverConfig.rel_tol),
        max_iter=_option(cfg, "solver", "max_iter", int, fallback=0) or None)


def _check_lattices(cfg, mesh, kind, spacings, section):
    """The observation kind and every lattice spacing of a command, checked
    before anything runs or is written; the error names the key at fault,
    the spacing's in `section` when the config sets it there."""
    if not cfg.has_option(section, "spacing"):
        section = "assimilation"
    for spacing in spacings:
        try:
            check_lattice(mesh, spacing, kind)
        except AlignmentError as exc:
            raise ValueError(f"[{section}] spacing: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"[assimilation] kind: {exc}") from None


def _partition(scenario, mu_values):
    """The scenario's time partition, after checking every relaxation
    strength and the initial policy: a bad one raises ValueError before
    anything runs or is written."""
    for mu in mu_values:
        transport.check_mu(mu)
    driver.check_initial_policy(scenario.theta0_policy)
    return driver.TimePartition.from_scenario(scenario)


def _run_dirs(mu_values):
    """The output subdirectory of each relaxation strength of `run`, none
    for a single one; raises ValueError before anything runs or is written
    when two strengths would write to one."""
    if len(mu_values) == 1:
        return [""]
    names = {}
    for mu in mu_values:
        name = f"mu_{mu:g}"
        if name in names:
            raise ValueError(f"[assimilation] mu: {names[name]!r} and {mu!r} "
                             f"would both write to {name}/")
        names[name] = mu
    return list(names)


def _output_dir(cfg):
    """`[output] dir` under POROUSDA_OUTPUT_ROOT (else the working
    directory), made with its parents; one that cannot be made raises
    ValueError naming the setting at fault."""
    root = Path(os.environ.get("POROUSDA_OUTPUT_ROOT", "."))
    sub = cfg.get("output", "dir", fallback=None) if cfg.has_section("output") else None
    path = root / sub if sub else root
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        name = "[output] dir" if sub and root.is_dir() else "POROUSDA_OUTPUT_ROOT"
        raise ValueError(f"{name}: cannot make directory {str(path)!r} "
                         f"({exc.strerror})") from None
    return path


def _snapshot_times(cfg, scenario, partition):
    """Snapshot times of a run, checked before it starts.

    Explicit `[output] snapshots` must be fine time levels of the run, and
    anything else is a configuration error.  The scenario's defaults that
    are not (beyond a shortened `t_end`) are dropped; an empty value drops all.
    """
    if not cfg.has_option("output", "snapshots"):
        times = scenario.snapshot_times
        return [t for t, i in zip(times, partition.level_indices(times))
                if i is not None]
    if not cfg.get("output", "snapshots"):
        return []
    times = _option(cfg, "output", "snapshots", _floats)
    partition.fine_levels(times, "snapshot time")
    return times


def _write_snapshots(outdir, scenario, trajectory, times):
    mesh = trajectory.mesh
    for t in times:
        field = trajectory.at(t)
        grid_vals = field.values.reshape(mesh.ny + 1, mesh.nx + 1)
        scenarios.write_raster(outdir / f"theta_t{t:g}.raster", grid_vals,
                               scenario.lengths)


def _lu_lines(report, prefix=""):
    """The transport steps of a run that a sparse LU factor solved."""
    lines = []
    if report.recoveries:
        lines.append(f"{prefix}transport steps recovered from a bicgstab "
                     f"breakdown by sparse LU: {len(report.recoveries)}")
    if report.factored_intervals:
        lines.append(f"{prefix}coarse intervals with transport steps solved "
                     f"by a sparse LU factor: {report.factored_intervals}"
                     f" of {report.partition.n_coarse}")
    return lines


def _write_report(outdir, run, mu, reference):
    """report.txt of an assimilated run; `reference` is the RunReport of
    the reference run it was measured against."""
    report = run.report
    lines = [f"mu = {mu!r}"]
    lines.append(f"plateau R_percent = {report.plateau_value()!r} "
                 f"(from t = {report.fit_window()[1]!r})")
    lines.append(f"final R_percent = {report.asymptote()!r}")
    try:
        fit = driver.fit_decay_rate(report)
        lines.append(f"fitted decay rate = {fit.rate!r} over t in "
                     f"{fit.window} (R^2 = {fit.r_squared!r})")
    except ValueError as exc:
        lines.append(f"fitted decay rate unavailable: {exc}")
    lines.append(f"max flux conservation residual = {report.conservation_max!r}")
    lines.append(f"range violation = {report.range_violation()!r}")
    lines.append("post-measurement improvement fraction = "
                 f"{report.post_update_improvement_fraction()!r}")
    for kind, counts in report.solver_iterations.items():
        if counts:
            lines.append(f"{kind} solver iterations: max {max(counts)}, "
                         f"total {sum(counts)}")
    lines += _lu_lines(report) + _lu_lines(reference, "reference run: ")
    (outdir / "report.txt").write_text("\n".join(lines) + "\n")


def cmd_run(cfg):
    scenario = build_scenario(cfg)
    solver = _solver(cfg)
    mu_values = _option(cfg, "assimilation", "mu", _floats,
                        fallback=[scenario.mu])
    partition = _partition(scenario, mu_values)
    run_dirs = _run_dirs(mu_values)
    snapshot_times = _snapshot_times(cfg, scenario, partition)
    keep_reference = _option(cfg, "output", "reference", _boolean, fallback=True)
    mesh = scenario.build_mesh()
    _check_lattices(cfg, mesh, scenario.observation_kind, [scenario.spacing],
                    "assimilation")
    outroot = _output_dir(cfg)
    for path in (outroot / name for name in run_dirs):
        if os.path.lexists(path) and not path.is_dir():
            raise ValueError(f"[assimilation] mu: run directory {str(path)!r} "
                             f"exists and is not a directory")
    print(f"{scenario.name}: {scenario.nx}x{scenario.ny} mesh, "
          f"{partition.n_coarse} coarse steps of {scenario.fine_per_coarse} "
          f"fine steps, spacing {scenario.spacing!r}")

    try:
        ref = driver.run_reference(scenario, partition, mesh, solver=solver)
    except driver.RUN_FAILURES as exc:
        (outroot / "report.txt").write_text(f"reference run failed: {exc}\n")
        print(f"reference: FAILED ({exc})", file=sys.stderr)
        return 1
    if keep_reference:
        ref.report.write_csv(outroot / "reference_metrics.csv")

    failures = 0
    for mu, name in zip(mu_values, run_dirs):
        rundir = outroot / name
        rundir.mkdir(parents=True, exist_ok=True)
        try:
            run = driver.run_assimilated(scenario, ref.stream, partition, mesh,
                                         mu=mu, reference=ref.trajectory,
                                         solver=solver,
                                         keep_times=snapshot_times)
        except driver.RUN_FAILURES as exc:
            failures += 1
            (rundir / "report.txt").write_text(f"run failed: {exc}\n")
            print(f"mu={mu:g}: FAILED ({exc})", file=sys.stderr)
            continue
        run.report.write_csv(rundir / "metrics.csv")
        _write_report(rundir, run, mu, ref.report)
        if snapshot_times:
            _write_snapshots(rundir, scenario, run.trajectory, snapshot_times)
        print(f"mu={mu:g}: final R = {run.report.asymptote():.6g}%, "
              f"plateau R = {run.report.plateau_value():.6g}%")
    return 1 if failures else 0


def _estimate_c0(mesh, grid, lengths):
    """Interpolation constant from the smooth probe, first-order form."""
    Lx, Ly = lengths
    u = NodalField.from_callable(
        mesh, lambda x, y: np.sin(np.pi * x / Lx) * np.sin(np.pi * y / Ly))
    err = l2_diff(grid.interpolate(u), u)
    quad = quadrature(mesh)
    g = np.einsum("pcd,ec->epd", quad.dphi, u.corner_values())
    seminorm = float(np.sqrt(np.sum(g * g) * quad.weight))
    return err / (grid.spacing * seminorm)


# The per-step factor of a nudged mode, past mu*dt = 2, above which
# `validate` warns; chosen from measured runs (README, "validate output").
STEP_FACTOR_BOUND = 0.9


def cmd_validate(cfg):
    scenario = build_scenario(cfg)
    partition = _partition(scenario, [scenario.mu])
    print(f"scenario {scenario.name}")
    report = scenarios.assumption_report(scenario)
    for key in scenarios.ASSUMPTION_KEYS:
        holds, note = report[key]
        print(f"  {key}: {'pass' if holds else 'warn'} ({note})")
    mu_dt = scenario.mu * partition.fine_step
    factor = abs(1.0 - mu_dt / 2.0) / (1.0 + mu_dt / 2.0)
    verdict = "warn" if mu_dt > 2.0 and factor > STEP_FACTOR_BOUND else "pass"
    print(f"  step: {verdict} (mu*dt = {mu_dt:.6g}, per-step factor |1 - "
          f"mu*dt/2| / (1 + mu*dt/2) = {factor:.6g} vs {STEP_FACTOR_BOUND:g})")

    mesh = scenario.build_mesh()
    try:
        grid = SparseGrid(mesh, scenario.spacing, kind=scenario.observation_kind)
        print(f"  alignment: pass (spacing {scenario.spacing!r} = "
              f"{grid.kx} x {grid.ky} cells)")
    except AlignmentError as exc:
        print(f"  alignment: warn ({exc})")
        return 0

    c0 = _estimate_c0(mesh, grid, scenario.lengths)
    xs = np.linspace(0.0, scenario.lengths[0], 201)
    ys = np.linspace(0.0, scenario.lengths[1], 201)
    X, Y = np.meshgrid(xs, ys)
    d_star = float(np.min(scenario.diffusion(X, Y)))
    proxy = scenario.mu * c0**2 * scenario.spacing**2
    verdict = "pass" if proxy < d_star else "warn"
    print(f"  stability proxy: {verdict} (mu*c0^2*spacing^2 = {proxy:.6g} "
          f"vs min diffusion {d_star:.6g}, c0 = {c0:.6g})")
    return 0


def cmd_sweep(cfg):
    scenario = build_scenario(cfg)
    solver = _solver(cfg)
    mu_values = _option(cfg, "sweep", "mu", _floats, fallback=[scenario.mu])
    spacings = _option(cfg, "sweep", "spacing", _floats,
                       fallback=[scenario.spacing])
    partition = _partition(scenario, mu_values)
    _check_lattices(cfg, scenario.build_mesh(), scenario.observation_kind,
                    spacings, "sweep")
    outroot = _output_dir(cfg)

    rows = driver.parameter_sweep(scenario, mu_values, spacings,
                                  partition=partition, solver=solver)
    driver.sweep_csv(rows, outroot / "sweep.csv")
    failures = sum(1 for row in rows if row[4] != "ok")
    for mu, spacing, plateau, rate, status in rows:
        print(f"mu={mu:g} spacing={spacing:g}: plateau R = {plateau:.6g}%, "
              f"rate = {rate:.6g} [{status}]")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="porousda",
        description="Nudging-based data assimilation runs for miscible "
                    "displacement in porous media.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("validate", cmd_validate),
                     ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.add_argument("config", help="INI run configuration")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.fn(cfg)
    except (FileNotFoundError, ValueError, KeyError,
            configparser.Error, AlignmentError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
