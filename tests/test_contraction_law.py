"""The contraction law of nudging: R decays at the rate mu + D lambda_1 + g.

Nudging adds mu to the dissipation (Azouani, Olson & Titi, J. Nonlinear
Sci. 24, 2014), so the mismatch between a nudged run and its truth first
contracts like that of the heat equation at rate mu + D lambda_1, lambda_1
the lowest eigenvalue of -Laplace under the mesh's Dirichlet faces.  R is
relative to the truth, so the truth's own log growth rate g adds to it.  The
early log-slope of R pins the scale of the whole nudging path: the data
term's weights, the coupling, the functionals and the reconstruction.
"""

import math

import numpy as np
import pytest

from porousda import driver, scenarios

# Largest relative gap between the fitted slope and the law.
LAW_RTOL = 0.04

MU_VALUES = (1.0, 3.0, 10.0)


def lowest_dirichlet_eigenvalue(mesh):
    """lambda_1 of -Laplace on the mesh's rectangle: per axis, (pi / L)^2
    with both faces Dirichlet, (pi / 2L)^2 with one, 0 with none.  Each face
    must be wholly Dirichlet or wholly Neumann."""
    fixed = mesh.is_dirichlet.reshape(mesh.ny + 1, mesh.nx + 1)
    out = 0.0
    for faces, length in (((fixed[1:-1, 0], fixed[1:-1, -1]), mesh.Lx),
                          ((fixed[0, 1:-1], fixed[-1, 1:-1]), mesh.Ly)):
        assert all(face.all() or not face.any() for face in faces)
        n = sum(bool(face.all()) for face in faces)
        out += (n * math.pi / (2.0 * length)) ** 2
    return out


def early_slope(report):
    """The least-squares slope of log R against t from step 1 to the first
    sample below 10 times the final R, or to the run's end when that window
    holds fewer than 3 samples."""
    r, t = report.r_percent, report.times
    below = np.nonzero(r[1:] < 10.0 * r[-1])[0]
    end = 1 + int(below[0]) if below.size else r.size - 1
    if end < 3:
        end = r.size - 1
    return float(np.polyfit(t[1:end + 1], np.log(r[1:end + 1]), 1)[0])


@pytest.fixture(scope="module", params=[("example2", 50), ("example1", 60)],
                ids=["example2", "example1"])
def nudged(request):
    """Runs to t_end 0.2 nudged at each mu against the analytic truth, and
    the law's rate without mu: D lambda_1 + g, g the truth's log growth."""
    name, nx = request.param
    sc = scenarios.BUILTIN_SCENARIOS[name](nx=nx).with_overrides(t_end=0.2)
    mesh = sc.build_mesh()
    part = driver.TimePartition.from_scenario(sc)
    ref = driver.run_reference(sc, part, mesh)
    diffusion = np.asarray(sc.diffusion(*mesh.vertices.T), dtype=float)
    assert np.all(diffusion == diffusion.flat[0])
    growth = math.log(sc.exact.rate(1.0) / sc.exact.rate(0.0))
    base = float(diffusion.flat[0]) * lowest_dirichlet_eigenvalue(mesh) + growth
    runs = {mu: driver.run_assimilated(sc, ref.stream, part, mesh, mu=mu)
            for mu in MU_VALUES}
    return base, runs


@pytest.mark.parametrize("mu", MU_VALUES)
def test_r_contracts_at_mu_plus_the_dissipation_and_the_truths_growth(nudged,
                                                                     mu):
    base, runs = nudged
    law = -(mu + base)
    slope = early_slope(runs[mu].report)
    print(f"mu={mu:g}: slope {slope:.4f}, law {law:.4f}, "
          f"gap {abs(slope / law - 1.0):.2%}")
    assert slope == pytest.approx(law, rel=LAW_RTOL)

