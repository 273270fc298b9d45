"""Built-in problem definitions, constitutive laws, and input rasters.

Four example configurations cover the validation ladder: two manufactured
solutions (one with a prescribed velocity closure, one with a decoupled
pressure), a heterogeneous injection/discharge problem driven by raster
permeability, and a saltwater-intrusion setting with tidal forcing at the
injection well.  A diffusion-reaction configuration without advection rounds
these out for range-preservation checks.

The heterogeneous inputs are shipped as deterministic stand-ins: smoothed
seeded noise mapped into a configured log range for permeability, and smooth
compact bumps for wells, sources, and initial pockets.  Published figures of
these fields are pictures only, so runs against them are property-checked,
not curve-matched.

The raster-backed conductivities (example3's `mobility_closure`, example4's
kappa) take the raster factor from `PermeabilityRaster.lookup` on every
pressure solve, one kernel block at a time, and scale it in place by the
concentration-dependent factor.  The lookup keeps nothing: it blends the
raster at the block's compact per-row and per-column point tables, so a
whole-mesh lookup costs a fraction of the bilinear formula at every point.
A source or exact solution f(x, y, t) splits into a spatial part, which a
run evaluates once, and a time part (`time_parts`).  The sources of
example2, example4 (its injection well) and diffusion_reaction, and the
exact solutions of example1 and example2, are `Separable`: a transport run
integrates a source's profile over its control volumes once and scales
that vector on every step.  example1's source is `TimeFactored`: a run
keeps its spatial factors at the quadrature points and forms the forcing
from them in a few products per step.  Every callable keeps its call form,
kappa(theta, x, y) and f(x, y[, t]).
"""

import inspect
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .mesh import DIRICHLET, NEUMANN, build_mesh

DAY = 86400.0


def bump(x, y, cx, cy, radius, peak=1.0):
    """Smooth compactly supported bump, value `peak` at the center.

    exp(1 - 1/(1 - s)) with s the squared scaled distance; identically zero
    outside the radius and infinitely differentiable across the edge.  The
    exponential is evaluated inside the radius only, so a small well costs
    little on a large point set; outside it the value is peak * 0.0.
    """
    x = np.asarray(x, dtype=float)
    s = np.asarray(((x - cx) ** 2 + (np.asarray(y, dtype=float) - cy) ** 2)
                   / radius**2)
    inside = s < 1.0
    val = np.zeros(s.shape)
    val[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside]))
    return peak * val


def gaussian_smooth(values, sigma):
    """Gaussian filter of a 2-D array, axis by axis, mirrored at the edges.

    The weights are exp(-x^2 / (2 sigma^2)), normalized, for |x| up to
    int(4 sigma + 0.5); the array is extended by mirroring about its edges
    (d c b a | a b c d | d c b a).  Each output sums the centre first, then
    the mirrored pairs (left + right) * w from the outermost pair inwards,
    which is the order of `scipy.ndimage.gaussian_filter(mode="reflect")`,
    so the two agree bitwise.
    """
    radius = int(4.0 * float(sigma) + 0.5)
    x = np.arange(-radius, radius + 1)
    w = np.exp(-0.5 / (sigma * sigma) * x**2)
    w = w / w.sum()
    out = np.asarray(values, dtype=float)
    for axis in range(out.ndim):
        line = np.moveaxis(out, axis, -1)
        n = line.shape[-1]
        pad = [(0, 0)] * (line.ndim - 1) + [(radius, radius)]
        ext = np.pad(line, pad, mode="symmetric")
        acc = ext[..., radius:radius + n] * w[radius]
        for j in range(radius, 0, -1):
            acc += (ext[..., radius - j:radius - j + n]
                    + ext[..., radius + j:radius + j + n]) * w[radius + j]
        out = np.moveaxis(acc, -1, axis)
    return out


def quarter_power_viscosity(theta):
    """Koval quarter-power mixing rule; endpoints are the pure viscosities,
    0.00108 Pa s for the solvent and 0.001 Pa s for water.  theta arrives
    clamped to [0, 1] (`pressure.element_kernel` clamps it)."""
    return (theta / 0.00108**0.25 + (1.0 - theta) / 0.001**0.25) ** -4


def write_raster(path, values, lengths):
    """Raster container: header `nx ny Lx Ly`, then the rows of `values`."""
    values = np.asarray(values, dtype=float)
    with open(path, "w") as fh:
        fh.write(f"{values.shape[1]} {values.shape[0]} "
                 f"{lengths[0]!r} {lengths[1]!r}\n")
        for row in values:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


# Output points per pass of `PermeabilityRaster.lookup`, which bounds its
# temporaries: a few element rows of a kernel block at nx = 240.
_LOOKUP_POINTS = 1 << 14


def _compact(a):
    """`a` with every stride-0 axis cut to length 1: a broadcast view of a
    table is a view of the table's own values again."""
    return a[tuple(slice(0, 1) if s == 0 else slice(None) for s in a.strides)]


def _leading(a, at):
    """The rows `at` of `a`'s leading axis, or `a` when that axis is
    broadcast (length 1)."""
    return a if len(a) == 1 else a[at]


def _cells(coord, length, n):
    """The raster cell at or left of `coord` along an axis of `n` cell
    centers over `length`, clamped to the outer centers, and the weight of
    the cell after it: (i, f).  On a 1-wide axis i and f are 0."""
    g = np.clip(coord / (length / n) - 0.5, 0.0, n - 1.0)
    if n == 1:
        return np.zeros(g.shape, dtype=np.intp), np.zeros(g.shape)
    i = np.minimum(g.astype(np.intp), n - 2)
    return i, g - i


@dataclass(frozen=True)
class TimeFactored:
    """f(x, y, t) = combine(spatial(x, y), t), called like any other
    source or truth.  A run evaluates `spatial` once, at its points, and
    applies `combine` on every step (`time_parts`)."""

    spatial: object                     # (x, y) -> values
    combine: object                     # (values, t) -> f

    def __call__(self, x, y, t):
        return self.combine(self.spatial(x, y), t)


@dataclass(frozen=True)
class Separable:
    """A function f(x, y, t) = profile(x, y) * rate(t): a fixed profile
    times a function of time, the `TimeFactored` case combine(v, t) =
    v * rate(t), with `spatial` the profile.

    It is called like any other source or truth.  A transport run
    integrates a source's profile over its control volumes once, when it
    builds, and scales that vector by rate(t) on every step.
    """

    profile: object                     # (x, y) -> values
    rate: object                        # t -> scalar

    @property
    def spatial(self):
        return self.profile

    def combine(self, values, t):
        return values * self.rate(t)

    def __call__(self, x, y, t):
        return self.combine(self.profile(x, y), t)


def time_parts(fn):
    """The `TimeFactored` or `Separable` that fn is, or wraps by
    `functools.wraps` (as a tracer does); for any other callable, a
    `TimeFactored` whose spatial part is the points themselves and whose
    combine calls fn there.  Either way f(x, y, t) = parts.combine(
    parts.spatial(x, y), t)."""
    inner = inspect.unwrap(fn)
    if isinstance(inner, (TimeFactored, Separable)):
        return inner
    return TimeFactored(lambda x, y: (x, y), lambda xy, t: fn(*xy, t))


class PermeabilityRaster:
    """Cell-centered permeability samples with clamped bilinear lookup.

    File format: one header line `nx ny Lx Ly`, then ny rows of nx values,
    row-major from the bottom row up.

    The raster keeps no values at any point set: kappa is evaluated at the
    mesh's kernel blocks on every pressure solve, and `lookup` blends the
    raster there afresh, from the blocks' compact (per-row and per-column)
    tables, at a fraction of the cost of the bilinear formula per point.
    """

    def __init__(self, values, lengths=(1.0, 1.0)):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("raster values must be a 2-d array")
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise ValueError("raster values must be finite and positive")
        self.values = values
        self.lengths = (float(lengths[0]), float(lengths[1]))
        self.ny, self.nx = values.shape

    @property
    def value_range(self):
        return float(self.values.min()), float(self.values.max())

    def lookup(self, x, y):
        """Bilinear interpolation on the center lattice, clamped at edges;
        a new array of the broadcast shape of x and y.

        Each input is cut to its compact form first (`_compact`), so a
        kernel block's y is its (rows, 1, k) table and its x the (1, nx, k)
        one, k of its 28 point columns.  The raster is blended along y at y's compact points over
        every raster column, a = v[iy] + fy (v[jy] - v[iy]), and then along
        x by two gathers of that blend at x's columns, out = a + fx (b - a).
        The output is filled `_LOOKUP_POINTS` points or fewer at a time,
        whole leading rows (element rows of a kernel block) each.  Every
        value is the same arithmetic on its own point whatever the layout
        of the inputs, so compact, broadcast and contiguous points give
        bitwise-equal values.
        """
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(y, dtype=float))
        out = np.empty(x.shape)
        target = np.atleast_1d(out)
        x, y = (_compact(np.atleast_1d(a)) for a in (x, y))
        ix, fx = _cells(x, self.lengths[0], self.nx)
        iy, fy = _cells(y, self.lengths[1], self.ny)
        up_x, up_y = int(self.nx > 1), int(self.ny > 1)
        row = max(math.prod(target.shape[1:]),
                  math.prod(y.shape[1:]) * self.nx)
        step = max(1, _LOOKUP_POINTS // max(row, 1))
        for lo in range(0, len(target), step):
            at = slice(lo, lo + step)
            i, f = _leading(iy, at), _leading(fy, at)
            below = self.values[i]              # (y's points, raster nx)
            blend = self.values[i + up_y]
            blend -= below
            blend *= f[..., None]
            blend += below
            # Where each point's left column sits in the flat blend.
            a = target[at]
            left = np.empty(a.shape, dtype=np.intp)
            np.add(np.arange(0, blend.size, self.nx).reshape(i.shape),
                   _leading(ix, at), out=left)
            flat = blend.reshape(-1)
            # Every index is in range; with `out`, the default mode would
            # gather into a buffered copy first.
            np.take(flat, left, out=a, mode="clip")
            b = np.take(flat[up_x:], left)
            b -= a
            b *= _leading(fx, at)
            a += b
            del left, b      # before the next pass makes its own
        return out

    def rescaled_log(self, lo, hi):
        """Affine map in log space sending the value range onto [lo, hi]."""
        vmin, vmax = self.value_range
        ln = np.log(self.values)
        span = math.log(vmax) - math.log(vmin)
        if span == 0.0:
            mapped = np.full_like(ln, math.sqrt(lo * hi))
            return PermeabilityRaster(mapped, self.lengths)
        u = (ln - math.log(vmin)) / span
        return PermeabilityRaster(np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))),
                                  self.lengths)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            head = fh.readline().split()
            if len(head) != 4:
                raise ValueError(f"bad raster header in {path}")
            nx, ny = int(head[0]), int(head[1])
            lengths = (float(head[2]), float(head[3]))
            data = np.loadtxt(fh, dtype=float, ndmin=2)
        if data.shape != (ny, nx):
            raise ValueError(f"raster body {data.shape} does not match header "
                             f"({ny}, {nx}) in {path}")
        return cls(data, lengths)

    @classmethod
    def standin(cls, nx=60, ny=60, lengths=(1.0, 1.0), lo=1e-2, hi=1.0,
                seed=20260814):
        """Deterministic smoothed-noise permeability in a log range: seeded
        normal noise, smoothed with sigma 0.12 max(nx, ny)."""
        rng = np.random.default_rng(seed)
        noise = gaussian_smooth(rng.standard_normal((ny, nx)),
                                0.12 * max(nx, ny))
        lsp = noise.max() - noise.min()
        u = (noise - noise.min()) / lsp if lsp > 0 else np.full_like(noise, 0.5)
        return cls(np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))),
                   lengths)


@dataclass(frozen=True)
class Scenario:
    """Immutable problem definition consumed by the assimilation driver."""

    name: str
    nx: int
    ny: int
    lengths: tuple = (1.0, 1.0)
    edge_tags: object = "all_dirichlet"
    diffusion: object = None            # D(x, y)
    kappa: object = None                # kappa(theta, x, y); None if prescribed
    velocity: object = None             # v(x, y, theta) closure; None if Darcy
    pressure_source: object = None      # g(x, y)
    source: object = None               # f(x, y, t), in a form of `time_parts`
    reaction: object = None             # q(x, y)
    theta_dirichlet: object = None      # boundary concentration (x, y, t)
    pressure_dirichlet: object = 0.0
    initial: object = None              # theta_0(x, y)
    exact: object = None                # theta(x, y, t) if known, as source
    dt: float = 0.01
    fine_per_coarse: int = 1
    t_end: float = 1.0
    mu: float = 1.0
    spacing: float = 0.25
    observation_kind: str = "point"
    theta0_policy: str = "zero"
    static_velocity: bool = False
    snapshot_times: tuple = ()
    notes: dict = field(default_factory=dict)

    def build_mesh(self):
        """The scenario's mesh; `with_overrides(nx=..., ny=...)` resizes."""
        return build_mesh(self.nx, self.ny, self.lengths[0], self.lengths[1],
                          self.edge_tags)

    def with_overrides(self, **kw):
        return replace(self, **kw)

    @property
    def coarse_dt(self):
        return self.dt * self.fine_per_coarse


def _x_faces_dirichlet(Lx):
    def tag(x, y):
        near = (np.abs(x) < 1e-12) | (np.abs(x - Lx) < 1e-12)
        return np.where(near, DIRICHLET, NEUMANN)
    return tag


def example1_factors(x, y):
    """The spatial factors of example1, stacked: the hump g = (x - x^2)(y -
    y^2), its Laplacian and the divergence of (g, g), so that the exact
    solution is e^{-t} g and the forcing e^{-t} (-g - lap + adv / (1 +
    e^{-t} g)^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    gx, gy = x - x**2, y - y**2
    return np.stack(np.broadcast_arrays(
        gx * gy, -2.0 * (gy + gx), (1.0 - 2.0 * x) * gy + gx * (1.0 - 2.0 * y)))


def _example1_hump(x, y):
    """g = (x - x^2)(y - y^2), as `example1_factors` forms it."""
    return (x - x**2) * (y - y**2)


def _example1_forcing(factors, t):
    """e (-g - lap + adv / (1 + e g)^2), e = e^{-t}, from the stacked
    `example1_factors`, in one temporary."""
    g, lap, adv = factors
    e = np.exp(-t)
    f = np.asarray(e * g)       # 0-d at a scalar point: updated in place
    f += 1.0
    f *= f
    np.divide(adv, f, out=f)
    f -= g
    f -= lap
    f *= e
    return f


def example1(nx=100, t_end=0.5):
    """Manufactured decaying hump with a concentration-dependent velocity.

    The velocity is prescribed directly as (w, w), w = 1/(1 + theta), so no
    pressure solve is involved; the forcing keeps the exact solution at
    (x - x^2)(y - y^2) e^{-t}.  Both are e^{-t} times functions of the
    spatial factors (`example1_factors`): the truth is `Separable` and the
    source `TimeFactored`, so a run evaluates the factors once.
    """

    def velocity(x, y, theta):
        w = 1.0 / (1.0 + theta)
        return w, w * np.ones_like(np.asarray(x, dtype=float))

    return Scenario(
        name="example1", nx=nx, ny=nx,
        edge_tags="all_dirichlet",
        diffusion=lambda x, y: np.ones(np.shape(x)),
        velocity=velocity,
        source=TimeFactored(example1_factors, _example1_forcing),
        initial=_example1_hump,
        exact=Separable(_example1_hump, lambda t: np.exp(-t)),
        dt=0.002, fine_per_coarse=10, t_end=t_end,
        mu=100.0, spacing=0.1, theta0_policy="zero",
        notes={"velocity": "prescribed closure, refreshed every coarse step"},
    )


def example2(nx=50):
    """Decoupled pressure: constant conductivity, exact linear pressure.

    The Darcy velocity is (1, 0) everywhere and is computed once.  The
    manufactured concentration (x - x^2) e^t deliberately leaves [0, 1].
    """

    def hump(x, y):
        return (x - x**2) * np.ones_like(np.asarray(y, dtype=float))

    def profile(x, y):
        return ((x - x**2) + 2.0 + (1.0 - 2.0 * x)) * np.ones(np.shape(y))

    return Scenario(
        name="example2", nx=nx, ny=nx,
        edge_tags=_x_faces_dirichlet(1.0),
        diffusion=lambda x, y: np.ones(np.shape(x)),
        kappa=lambda theta, x, y: np.ones_like(np.asarray(theta, dtype=float)),
        pressure_source=lambda x, y: np.zeros(np.shape(x)),
        source=Separable(profile, np.exp),
        pressure_dirichlet=lambda x, y: 1.0 - x,
        initial=hump,
        exact=Separable(hump, np.exp),
        dt=0.02, fine_per_coarse=1, t_end=2.0,
        mu=100.0, spacing=0.1, theta0_policy="zero", static_velocity=True,
        notes={"range": "manufactured concentration exceeds 1 by design"},
    )


def mobility_closure(raster):
    """Concentration-dependent conductivity k(x) (1 - theta + theta/16)^-4;
    theta arrives clamped to [0, 1] (`pressure.element_kernel` clamps it)."""

    def kappa(theta, x, y):
        # The factor first, in place, so that it and the lookup's output
        # are the only arrays of the points' size that kappa keeps.
        mobility = np.subtract(1.0, theta)
        mobility += np.divide(theta, 16.0)
        mobility **= -4
        k = raster.lookup(*np.broadcast_arrays(x, y, theta)[:2])
        k *= mobility
        return k

    return kappa


def example3(nx=240, raster=None, seed=20260814, mu=1000.0, spacing=1.0 / 30.0,
             t_end=0.024):
    """Heterogeneous injection/discharge displacement with raster conductivity.

    The published source, log-permeability, and initial-condition profiles are
    pictures, so deterministic stand-ins are generated: a seeded smoothed
    noise raster and smooth bumps for the wells and initial pockets.
    `raster`, the path of a raster file, replaces the seeded stand-in.
    """
    if raster is None:
        k = PermeabilityRaster.standin(nx=60, ny=60, lo=1e-2, hi=1.0, seed=seed)
    else:
        k = PermeabilityRaster.load(raster)

    def g(x, y):
        return bump(x, y, 0.75, 0.75, 0.08, 50.0) - bump(x, y, 0.25, 0.25, 0.08, 50.0)

    def theta0(x, y):
        return bump(x, y, 0.3, 0.7, 0.25, 0.8) + bump(x, y, 0.7, 0.3, 0.25, 0.8)

    return Scenario(
        name="example3", nx=nx, ny=nx,
        edge_tags="all_dirichlet",
        diffusion=lambda x, y: np.full(np.shape(x), 0.01),
        kappa=mobility_closure(k),
        pressure_source=g,
        initial=theta0,
        dt=0.0004, fine_per_coarse=5, t_end=t_end,
        mu=mu, spacing=spacing, theta0_policy="interpolant",
        snapshot_times=(0.002, 0.012, 0.024),
        notes={"raster": k, "standin": "source, conductivity, and initial "
               "condition are deterministic stand-ins"},
    )


def example4(nx=240, raster=None, seed=20260814, mu=1e-5, spacing=40.0,
             t_end=30.0 * DAY):
    """Saltwater intrusion on a 240 m square with a tidal injection well.

    Conductivity is intrinsic permeability over the quarter-power mixed
    viscosity.  The injection well carries concentration 0.45 sin(B t) + 0.5
    with a one-day period; sink strength feeds both the pressure source and
    the reaction term.  Two initial pockets sit in the upper-left and
    lower-right corners.  `raster`, a raster file's path, replaces the
    stand-in, rescaled to its log range [1e-9, 1e-7].
    """
    L = 240.0
    if raster is None:
        k = PermeabilityRaster.standin(nx=60, ny=60, lengths=(L, L),
                                       lo=1e-9, hi=1e-7, seed=seed)
    else:
        k = PermeabilityRaster.load(raster).rescaled_log(1e-9, 1e-7)

    def kappa(theta, x, y):
        viscosity = quarter_power_viscosity(theta)
        out = k.lookup(*np.broadcast_arrays(x, y, theta)[:2])
        out /= viscosity
        return out

    def q_in(x, y):
        return bump(x, y, 190.0, 190.0, 12.0, 0.0005)

    def q_out(x, y):
        return bump(x, y, 50.0, 50.0, 12.0, 0.002)

    def injected_concentration(t):
        return 0.45 * np.sin(2.0 * np.pi * t / DAY) + 0.5

    return Scenario(
        name="example4", nx=nx, ny=nx, lengths=(L, L),
        edge_tags="all_dirichlet",
        diffusion=lambda x, y: np.full(np.shape(x), 1e-5),
        kappa=kappa,
        pressure_source=lambda x, y: q_in(x, y) - q_out(x, y),
        source=Separable(q_in, injected_concentration),
        reaction=q_out,
        initial=lambda x, y: bump(x, y, 45.0, 195.0, 28.0, 0.9)
                             + bump(x, y, 195.0, 45.0, 28.0, 0.9),
        dt=2.0 * 3600.0, fine_per_coarse=24, t_end=t_end,
        mu=mu, spacing=spacing, theta0_policy="interpolant",
        notes={"raster": k, "wells": {"in": (190.0, 190.0, 12.0, 0.0005),
                                      "out": (50.0, 50.0, 12.0, 0.002)},
               "injected_concentration": injected_concentration},
    )


def diffusion_reaction(nx=20):
    """Advection-free configuration whose data keep every source bound met.

    Time step sits at the positivity limit of the trapezoidal rule for the
    chosen diffusion, so the discrete solution stays inside [0, 1] and the
    range-preservation property can be asserted rather than just reported.
    """

    return Scenario(
        name="diffusion_reaction", nx=nx, ny=nx,
        edge_tags="all_dirichlet",
        diffusion=lambda x, y: np.full(np.shape(x), 0.1),
        reaction=lambda x, y: np.full(np.shape(x), 0.5),
        source=Separable(lambda x, y: bump(x, y, 0.5, 0.5, 0.3, 0.25),
                         lambda t: 1.0 + 0.8 * np.sin(2.0 * np.pi * t)),
        initial=lambda x, y: 0.9 * np.sin(np.pi * x) * np.sin(np.pi * y),
        dt=0.02, fine_per_coarse=5, t_end=1.0,
        mu=10.0, spacing=0.1, theta0_policy="interpolant",
    )


BUILTIN_SCENARIOS = {
    "example1": example1,
    "example2": example2,
    "example3": example3,
    "example4": example4,
    "diffusion_reaction": diffusion_reaction,
}


ASSUMPTION_KEYS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def assumption_report(scenario):
    """Evaluate the seven model assumptions on a probe lattice of 101 x 101
    points, at 9 times from 0 to t_end.

    Returns {key: (holds, note)}.  A1 initial range in [0, 1]; A2 diffusion
    bounded away from zero; A3 conductivity (or velocity closure) positive
    and bounded; A4-A6 reaction, pressure source, and forcing finite; A7 the
    sign conditions g + 2q >= 0 and g + q >= f >= 0.  Coefficients are
    sampled with floating-point warnings off: an overflow or a NaN shows in
    the range it reports.
    """
    Lx, Ly = scenario.lengths
    X, Y = np.meshgrid(np.linspace(0.0, Lx, 101), np.linspace(0.0, Ly, 101))
    times = np.linspace(0.0, scenario.t_end, 9)
    zeros = np.zeros_like(X)

    def sample(fn, *extra):
        return zeros if fn is None else np.asarray(fn(X, Y, *extra), dtype=float) * np.ones_like(X)

    report = {}
    th0 = sample(scenario.initial)
    a1 = bool(np.all((th0 >= 0.0) & (th0 <= 1.0)))
    note = f"initial range [{th0.min():.4g}, {th0.max():.4g}]"
    if scenario.exact is not None:
        lo = min(sample(scenario.exact, t).min() for t in times)
        hi = max(sample(scenario.exact, t).max() for t in times)
        a1 = a1 and 0.0 <= lo and hi <= 1.0
        note += f", solution range [{lo:.4g}, {hi:.4g}]"
    report["A1"] = (a1, note)
    dv = sample(scenario.diffusion)
    report["A2"] = (bool(np.all(np.isfinite(dv)) and dv.min() > 0.0),
                    f"diffusion range [{dv.min():.4g}, {dv.max():.4g}]")
    if scenario.kappa is not None:
        kmin, kmax = np.inf, -np.inf
        for th in np.linspace(0.0, 1.0, 5):
            kv = np.asarray(scenario.kappa(th, X, Y), dtype=float) * np.ones_like(X)
            kmin, kmax = min(kmin, kv.min()), max(kmax, kv.max())
        report["A3"] = (bool(np.isfinite(kmax) and kmin > 0.0),
                        f"conductivity range [{kmin:.4g}, {kmax:.4g}]")
    elif scenario.velocity is not None:
        vmax = 0.0
        for th in np.linspace(0.0, 1.0, 5):
            vx, vy = scenario.velocity(X, Y, th * np.ones_like(X))
            vmax = max(vmax, float(np.max(np.hypot(vx, vy))))
        report["A3"] = (bool(np.isfinite(vmax)), f"velocity closure |v| <= {vmax:.4g}")
    else:
        report["A3"] = (True, "no advection")
    qv = sample(scenario.reaction)
    report["A4"] = (bool(np.all(np.isfinite(qv))), f"reaction max {qv.max():.4g}")
    gv = sample(scenario.pressure_source)
    report["A5"] = (bool(np.all(np.isfinite(gv))), f"source |g| max {np.abs(gv).max():.4g}")
    fmin, fmax, margin = np.inf, -np.inf, np.inf
    for t in times:
        fv = sample(scenario.source, t)
        fmin, fmax = min(fmin, fv.min()), max(fmax, fv.max())
        margin = min(margin, float(np.min(gv + qv - fv)))
    report["A6"] = (bool(np.isfinite(fmax)), f"forcing range [{fmin:.4g}, {fmax:.4g}]")
    a7 = bool(np.min(gv + 2.0 * qv) >= 0.0 and fmin >= 0.0 and margin >= 0.0)
    report["A7"] = (a7, f"min(g + 2q) = {np.min(gv + 2.0 * qv):.4g}, "
                    f"min f = {fmin:.4g}, min(g + q - f) = {margin:.4g}")
    return report
