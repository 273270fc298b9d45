"""Run every built-in scenario at its default size through the installed
`porousda` console script and check what each run wrote.

    python tests/smoke/defaults/run_defaults.py

Run it from the root of a checkout with the package installed
(`pip install -e .`).  Each `<scenario>.ini` beside this script sets only
`[scenario] name` and `[output] dir`.  For each, the script runs
`porousda run` and checks:
- the exit status, 0;
- the number of lines of `metrics.csv`;
- the final and plateau R of `report.txt`, against the values recorded in
  `EXPECTED`, to a relative `R_RTOL`.
It prints each run's wall time and peak resident size (the child's
`ru_maxrss`), with no gate on either.  It exits 0 only when every check of
every run holds.
"""

import configparser
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The relative tolerance of perfbench's recorded R.
R_RTOL = 1e-5
# scenario: (lines of metrics.csv, final R %, plateau R %), as recorded
# from the runs of the free-vertex pressure system.
EXPECTED = {
    "diffusion_reaction": (52, 0.606120645909321, 0.606120645909321),
    "example1": (252, 0.0025724400583526596, 0.0025724400583526596),
    "example2": (102, 0.0001440557023569012, 0.0005127822761721362),
    "example3": (62, 0.06618147438486743, 0.1462509912936441),
    "example4": (362, 16.554285687259938, 16.51456206359574),
}


def report_values(path):
    """(final R %, plateau R %) as `report.txt` at `path` gives them."""
    values = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        if key in ("final R_percent", "plateau R_percent"):
            values[key] = float(value.split()[0])
    return values["final R_percent"], values["plateau R_percent"]


def check(name, outdir):
    """The problems of the run of scenario `name` that wrote `outdir`."""
    lines, final, plateau = EXPECTED[name]
    problems = []
    with open(outdir / "metrics.csv") as fh:
        got_lines = sum(1 for _ in fh)
    if got_lines != lines:
        problems.append(f"metrics.csv has {got_lines} lines, expected {lines}")
    got = report_values(outdir / "report.txt")
    for label, value, want in zip(("final", "plateau"), got, (final, plateau)):
        if not math.isclose(value, want, rel_tol=R_RTOL):
            problems.append(f"{label} R {value!r}, recorded {want!r}")
    return problems


def main():
    root = Path(os.environ.get("POROUSDA_OUTPUT_ROOT", "."))
    failed = []
    for ini in sorted(HERE.glob("*.ini")):
        cfg = configparser.ConfigParser()
        cfg.read(ini)
        name = cfg["scenario"]["name"]
        start = time.monotonic()
        proc = subprocess.Popen(["porousda", "run", str(ini)])
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(f"{name}: exit {proc.returncode}, "
              f"{time.monotonic() - start:.1f} s, "
              f"ru_maxrss {usage.ru_maxrss / 1024:.1f} MiB", flush=True)
        problems = ([f"exit status {proc.returncode}"] if proc.returncode
                    else check(name, root / cfg["output"]["dir"]))
        for problem in problems:
            print(f"{name}: {problem}", flush=True)
        if problems:
            failed.append(name)
    if failed:
        print(f"failed: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
