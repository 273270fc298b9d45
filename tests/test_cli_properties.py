"""Property test of the command line over drawn configurations.

Up to four keys of the configuration grammar, over a small example1 base,
are drawn from values that a run can take and from text, nan, inf, zero and
negative numbers; `[output] dir`, which places the files, is not drawn.
Whatever is drawn, `run`, `validate` and `sweep` return 0, 1 or 2 without
raising, and a configuration error (2) writes no file.  The values that
set a run's size are positive only where they keep it small: nx <= 10 and
t_end <= 0.04, two coarse steps of example1's default partition.
"""

import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from porousda.cli import main

# Values each key can take in a small run, per key; only example3 and
# example4 take a seed or raster, so on example1 those two exit 2.
GOOD = {
    ("scenario", "name"): ["example1"],
    ("scenario", "seed"): ["7"],
    ("scenario", "raster"): ["perm.raster"],
    ("mesh", "nx"): ["5", "10"],
    ("mesh", "ny"): ["5", "10"],
    ("time", "dt"): ["0.002", "0.004"],
    ("time", "fine_per_coarse"): ["1", "10"],
    ("time", "t_end"): ["0.02", "0.04"],
    ("assimilation", "mu"): ["10", "0 10"],
    ("assimilation", "spacing"): ["0.1", "0.2"],
    ("assimilation", "kind"): ["point", "average"],
    ("assimilation", "theta0"): ["zero", "interpolant", "true"],
    ("solver", "rel_tol"): ["1e-12", "1e-6"],
    ("solver", "max_iter"): ["0", "1", "500"],
    ("output", "snapshots"): ["0.02", "0.004 0.04"],
    ("output", "reference"): ["true", "no"],
    ("sweep", "mu"): ["1", "1 10"],
    ("sweep", "spacing"): ["0.2", "0.2 0.1"],
}

BAD = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "-1e308", "1e-320",
                     ""]),
    st.floats(max_value=0.0, allow_nan=False).map(repr),
    st.integers(max_value=0).map(str),
    st.text(alphabet="abc xyz-+.,:%$()01eE", max_size=10).map(str.strip),
)

# A small example1 twin, then up to four drawn keys, each set to a value it
# can take or to a bad one.
BASE = {("scenario", "name"): "example1", ("mesh", "nx"): "10",
        ("time", "t_end"): "0.04", ("output", "dir"): "out"}
DRAWN = st.lists(st.sampled_from(sorted(GOOD)).flatmap(
    lambda key: st.tuples(st.just(key),
                          st.one_of(st.sampled_from(GOOD[key]), BAD))),
    max_size=4)


def _ini(values):
    sections = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                   for section, lines in sections.items())


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=DRAWN, command=st.sampled_from(["run", "validate", "sweep"]))
def test_every_command_exits_0_1_or_2_and_2_writes_nothing(drawn, command):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "drawn.ini"
        config.write_text(_ini({**BASE, **dict(drawn)}))
        root = Path(tmp) / "root"
        root.mkdir()
        with mock.patch.dict(os.environ, {"POROUSDA_OUTPUT_ROOT": str(root)}):
            status = main([command, str(config)])
        assert status in (0, 1, 2)
        if status == 2:
            assert list(root.iterdir()) == []
