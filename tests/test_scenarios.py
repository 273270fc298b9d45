import dataclasses
import functools
import subprocess
import sys

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter   # the oracle only

from dense_reference import (bump_everywhere, example1_closed_form, integrate,
                             manufactured_forcing, well_total)
from porousda import fields, scenarios
from porousda.fields import kernel_point_blocks, quadrature
from porousda.mesh import build_mesh
from porousda.scenarios import (BUILTIN_SCENARIOS, DAY, PermeabilityRaster,
                                assumption_report, bump, diffusion_reaction,
                                example1, example2, example3, example4,
                                gaussian_smooth, mobility_closure,
                                quarter_power_viscosity)


def _sample_points(n=13):
    rng = np.random.default_rng(99)
    pts = rng.random((n, 2)) * 0.8 + 0.1
    return pts[:, 0], pts[:, 1]


# ---------------------------------------------------------------- example 1

def test_example1_velocity_halves_with_saturation():
    sc = example1()
    vx0, vy0 = sc.velocity(0.3, 0.4, 0.0)
    vx1, vy1 = sc.velocity(0.3, 0.4, 1.0)
    assert vx0 == vy0 == 1.0
    assert vx1 == vy1 == 0.5


def test_example1_initial_peak():
    sc = example1()
    assert sc.exact(0.5, 0.5, 0.0) == pytest.approx(1.0 / 16.0)
    assert sc.initial(0.5, 0.5) == pytest.approx(1.0 / 16.0)
    # decays by e over unit time
    assert sc.exact(0.5, 0.5, 0.0) / sc.exact(0.5, 0.5, 1.0) \
        == pytest.approx(np.e, rel=1e-12)


def test_example1_forcing_balances_equation():
    """Hand-derived strong residual of the manufactured forcing is zero."""
    sc = example1()
    x, y = _sample_points()
    for t in (0.0, 0.17, 0.5):
        th = (x - x * x) * (y - y * y) * np.exp(-t)
        thx = (1.0 - 2.0 * x) * (y - y * y) * np.exp(-t)
        thy = (x - x * x) * (1.0 - 2.0 * y) * np.exp(-t)
        lap = -2.0 * ((y - y * y) + (x - x * x)) * np.exp(-t)
        advection = (thx + thy) / (1.0 + th) ** 2
        residual = -th - lap + advection - sc.source(x, y, t)
        np.testing.assert_allclose(residual, 0.0, atol=1e-12)


def test_example1_forcing_matches_finite_differences():
    sc = example1()
    fd = manufactured_forcing(sc.exact, velocity=sc.velocity)
    x, y = _sample_points(7)
    for t in (0.1, 0.4):
        np.testing.assert_allclose(sc.source(x, y, t), fd(x, y, t), atol=1e-6)


def test_example1_memoized_forms_match_the_closed_form_and_the_forcing():
    sc = example1(nx=30)
    quad = quadrature(sc.build_mesh())
    x, y = quad.x, quad.y
    exact, source = example1_closed_form()
    fd = manufactured_forcing(exact, velocity=sc.velocity)
    for t in (0.0, 0.13, 0.5):
        for _ in range(2):              # the memo's fill, then its reuse
            got = sc.source(x, y, t)
            np.testing.assert_allclose(got, source(x, y, t), rtol=0, atol=1e-15)
            np.testing.assert_allclose(sc.exact(x, y, t), exact(x, y, t),
                                       rtol=0, atol=1e-15)
        # The difference forcing itself is off the closed form by up to
        # 1.6e-9 at these points: its second differences lose that to roundoff.
        np.testing.assert_allclose(got, fd(x, y, t), rtol=0, atol=5e-9)
    # Points that are not frozen are evaluated fresh, by the same formulas.
    xs, ys = _sample_points()
    np.testing.assert_allclose(sc.source(xs, ys, 0.2), source(xs, ys, 0.2),
                               rtol=0, atol=1e-15)
    assert sc.source(0.3, 0.6, 0.2) == pytest.approx(source(0.3, 0.6, 0.2),
                                                     rel=1e-15)


# ---------------------------------------------------------------- example 2

def test_example2_forcing_balances_equation():
    sc = example2()
    x, y = _sample_points()
    for t in (0.0, 0.5, 2.0):
        th = (x - x * x) * np.exp(t)
        residual = th + 2.0 * np.exp(t) + (1.0 - 2.0 * x) * np.exp(t) \
            - sc.source(x, y, t)
        np.testing.assert_allclose(residual, 0.0, atol=1e-11)


def test_example2_exact_growth_and_pressure():
    sc = example2()
    assert sc.exact(0.3, 0.9, 1.0) / sc.exact(0.3, 0.9, 0.0) \
        == pytest.approx(np.e, rel=1e-12)
    # driving head p = 1 - x gives unit rightward Darcy velocity
    x, y = _sample_points(5)
    np.testing.assert_allclose(sc.exact_pressure(x, y), 1.0 - x, atol=1e-13)
    assert sc.static_velocity is True
    assert sc.kappa(0.7, 0.2, 0.2) == 1.0


# ---------------------------------------------------------------- example 3

def test_example3_permeability_contrast():
    sc = example3(nx=24)
    raster = sc.notes["raster"]
    assert raster.values.min() == pytest.approx(1e-2, rel=1e-9)
    assert raster.values.max() == pytest.approx(1.0, rel=1e-9)


def test_mobility_closure_endpoints():
    raster = PermeabilityRaster.standin(8, 8, seed=3)
    kappa = mobility_closure(raster)
    x = np.array([0.3])
    y = np.array([0.6])
    k = raster.lookup(x, y)
    # resident fluid (theta=0) moves 16^4 times slower than pure solvent
    assert kappa(np.array([1.0]), x, y)[0] / kappa(np.array([0.0]), x, y)[0] \
        == pytest.approx(65536.0, rel=1e-12)
    np.testing.assert_allclose(kappa(np.array([0.0]), x, y), k, rtol=1e-13)


def test_example3_initial_two_bumps():
    sc = example3(nx=24)
    assert sc.initial(0.3, 0.7) == pytest.approx(0.8)
    assert sc.initial(0.7, 0.3) == pytest.approx(0.8)
    assert sc.initial(0.5, 0.5) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------- example 4

def test_quarter_power_viscosity_endpoints():
    nu = quarter_power_viscosity
    assert nu(np.array([0.0]))[0] == pytest.approx(0.001, rel=1e-12)
    assert nu(np.array([1.0]))[0] == pytest.approx(0.00108, rel=1e-12)
    # mixing is monotone between the pure-fluid endpoints
    th = np.linspace(0.0, 1.0, 33)
    assert np.all(np.diff(nu(th)) > 0.0)


def test_example4_injection_schedule():
    sc = example4(nx=16)
    sched = sc.notes["injected_concentration"]
    assert sched(0.0) == pytest.approx(0.5)
    assert sched(DAY / 4.0) == pytest.approx(0.95)
    t = np.linspace(0.0, 2.0 * DAY, 1001)
    vals = np.array([sched(tt) for tt in t])
    assert vals.min() >= 0.05 - 1e-12 and vals.max() <= 0.95 + 1e-12


def test_example4_well_balance():
    sc = example4(nx=16)
    mesh = sc.build_mesh(nx=96, ny=96)
    for (cx, cy, radius, peak) in sc.notes["wells"].values():
        total = integrate(mesh, lambda x, y: bump(x, y, cx, cy, radius, peak))
        assert total == pytest.approx(well_total(peak, radius), rel=5e-3)
    # the sink feeds the reaction term at its stored strength
    assert sc.reaction(50.0, 50.0) == pytest.approx(0.002)


def test_well_total_scales():
    assert well_total(0.004, 12.0) == pytest.approx(2.0 * well_total(0.002, 12.0),
                                                    rel=1e-12)


# ---------------------------------------------------------------- rasters

def test_raster_identity_lookup():
    vals = np.arange(12, dtype=float).reshape(3, 4) + 1.0
    raster = PermeabilityRaster(vals, lengths=(4.0, 3.0))
    # cell centers return the stored values exactly
    xc = np.array([0.5, 1.5, 2.5, 3.5])
    for j in range(3):
        yc = np.full(4, 0.5 + j)
        np.testing.assert_allclose(raster.lookup(xc, yc), vals[j], atol=1e-13)


def test_raster_clamps_outside():
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])
    raster = PermeabilityRaster(vals, lengths=(2.0, 2.0))
    assert raster.lookup(np.array([-5.0]), np.array([-5.0]))[0] == 1.0
    assert raster.lookup(np.array([99.0]), np.array([99.0]))[0] == 4.0


def test_raster_round_trip(tmp_path):
    raster = PermeabilityRaster.standin(6, 5, lengths=(240.0, 240.0), seed=11)
    path = tmp_path / "perm.raster"
    raster.save(path)
    back = PermeabilityRaster.load(path)
    assert np.array_equal(back.values, raster.values)
    assert back.lengths == raster.lengths


def test_raster_rescaled_log_range():
    raster = PermeabilityRaster.standin(16, 16, seed=5)
    scaled = raster.rescaled_log(1e-9, 1e-7)
    assert scaled.values.min() == pytest.approx(1e-9, rel=1e-9)
    assert scaled.values.max() == pytest.approx(1e-7, rel=1e-9)


def test_raster_input_validation(tmp_path):
    with pytest.raises(ValueError):
        PermeabilityRaster(np.array([1.0, 2.0]))          # not 2-d
    with pytest.raises(ValueError):
        PermeabilityRaster(np.array([[1.0, -2.0]]))       # nonpositive
    bad = tmp_path / "bad.raster"
    bad.write_text("2 2\n1 2\n3 4\n")
    with pytest.raises(ValueError):
        PermeabilityRaster.load(bad)


def test_standin_raster_is_seeded():
    a = PermeabilityRaster.standin(8, 8, seed=7)
    b = PermeabilityRaster.standin(8, 8, seed=7)
    c = PermeabilityRaster.standin(8, 8, seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


# ---------------------------------------------------------------- utilities

@pytest.mark.parametrize("shape, seed", [((60, 60), 0), ((60, 60), 1),
                                         ((60, 60), 2), ((60, 60), 3),
                                         ((60, 60), 4), ((5, 7), 5),
                                         ((1, 9), 6), ((3, 3), 7),
                                         ((100, 80), 8)])
def test_gaussian_smooth_equals_scipy_bitwise(shape, seed):
    """The stand-in raster's smoothing, sigma = 0.12 max(nx, ny), against
    scipy.ndimage; the small shapes reflect more than once at the edges."""
    noise = np.random.default_rng(seed).standard_normal(shape)
    sigma = 0.12 * max(shape)
    assert np.array_equal(gaussian_smooth(noise, sigma),
                          gaussian_filter(noise, sigma=sigma, mode="reflect"))


def test_importing_the_package_leaves_out_scipy_ndimage():
    code = "import sys, porousda; print('scipy.ndimage' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_bump_compact_support():
    f = lambda x, y: bump(x, y, 0.5, 0.5, 0.2, peak=3.0)
    assert f(0.5, 0.5) == pytest.approx(3.0)
    assert f(0.71, 0.5) == 0.0
    assert f(0.69, 0.5) > 0.0


@pytest.mark.parametrize("peak", [50.0, 0.8, -0.25])
def test_bump_equals_the_everywhere_formula_bitwise(peak):
    """Evaluated inside its radius only, the bump equals the formula that
    evaluated the exponential at every point, bitwise: at the quadrature
    points of a strip mesh, at points inside, outside, on the rim s = 1 and
    just inside it, and at a scalar; a negative peak gives -0.0 outside."""
    cx, cy, radius = 0.75, 0.5, 0.5
    quad = quadrature(build_mesh(12, 8, 1.5, 1.0))
    x = np.array([0.75, 1.25, 0.75, 0.25, 1.24, 0.75, 1.3, 3.0])
    y = np.array([0.5, 0.5, 0.0, 0.5, 0.5, 1e-4, 0.9, -1.0])
    s = ((x - cx) ** 2 + (y - cy) ** 2) / radius**2
    assert (s == 1.0).sum() == 3 and (s < 1.0).sum() == 3
    for px, py in ((quad.x, quad.y), (x, y), (0.9, 0.6), (2.0, 0.6)):
        got = bump(px, py, cx, cy, radius, peak)
        want = bump_everywhere(px, py, cx, cy, radius, peak)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    outside = bump(x, y, cx, cy, radius, peak)[s >= 1.0]
    assert np.all(outside == 0.0)
    assert np.all(np.signbit(outside) == (peak < 0.0))


def test_manufactured_forcing_of_constant_is_reaction_only():
    fd = manufactured_forcing(lambda x, y, t: np.full_like(np.asarray(x, float), 0.3),
                              reaction=2.0)
    assert fd(0.4, 0.6, 0.2) == pytest.approx(0.6, abs=1e-9)


def test_scenario_is_frozen():
    sc = example1()
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.mu = 5.0
    widened = sc.with_overrides(mu=5.0)
    assert widened.mu == 5.0 and sc.mu == 100.0
    assert widened.coarse_dt == pytest.approx(widened.dt * widened.fine_per_coarse)


def test_builtin_registry_complete():
    assert set(BUILTIN_SCENARIOS) == {"example1", "example2", "example3",
                                      "example4", "diffusion_reaction"}


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_coefficients_at_a_point_block_come_back_row_major(name, monkeypatch):
    """Each coefficient evaluated at a block of the point views, whose rows
    repeat by a zero stride, returns an array of the block's shape laid out
    row-major, so reshaping it to one row per element makes no copy."""
    monkeypatch.setattr(fields, "KERNEL_BLOCK", 2 * 12 + 1)
    sc = BUILTIN_SCENARIOS[name](nx=12)
    _, x, y = kernel_point_blocks(sc.build_mesh())[1]
    source = sc.source
    if isinstance(source, scenarios.Separable):
        source = source.profile
    elif source is not None:
        source = functools.partial(source, t=0.25)
    calls = [(sc.diffusion, 24, 28)]
    calls += [(fn, 0, 16) for fn in (sc.reaction, source, sc.pressure_source)
              if fn is not None]
    for fn, lo, hi in calls:
        value = fn(x[..., lo:hi], y[..., lo:hi])
        assert value.shape == x[..., lo:hi].shape
        assert np.shares_memory(value.reshape(-1, hi - lo), value)


# ---------------------------------------------------------------- assumptions

def test_assumption_report_flags():
    rep1 = assumption_report(example1())
    assert rep1["A1"][0]                     # exact solution stays in [0,1]
    rep2 = assumption_report(example2())
    assert not rep2["A1"][0]                 # grows to ~1.85 by t_end
    rep_dr = assumption_report(diffusion_reaction())
    assert rep_dr["A7"][0]
    rep3 = assumption_report(example3(nx=24))
    assert not rep3["A7"][0]                 # signed wells, no absorbing term
    for key in ("A1", "A2", "A3", "A4", "A5", "A6", "A7"):
        holds, note = rep_dr[key]
        assert isinstance(holds, bool) and note
