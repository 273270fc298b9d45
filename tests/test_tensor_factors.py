"""The mesh's tensor-product operators, applied from their 1-D factors,
against their assembled forms.

A `SparseGrid` keeps the factors f_y, f_x of its functionals and p_y, p_x of
its prolongation, a nudged `TransportCoefficients` the factors A_y, A_x of
the CV integrals of the coarse hats.  Each product is checked against an
assembled oracle on meshes and lattices that differ in x and y (nx != ny,
kx != ky), for both functional kinds, to REL_TOL of the largest entry.  The
nodal L2 norm, from the 1-D mass factors, is checked against the quadrature
sum in `test_fields.py`.
"""

import numpy as np
import pytest
from scipy import sparse

import dense_reference as dr
from porousda.fields import NodalField
from porousda.mesh import build_mesh
from porousda.observation import SparseGrid, bilinear_prolongation, kron_apply
from porousda.transport import TransportCoefficients
from test_stencil import _mixed_faces

REL_TOL = 1e-14

# (nx, ny, Lx, Ly, boundary, spacing): kx, ky = 3, 2; 6, 3; 10, 5.
MESHES = [(12, 6, 2.0, 1.5, _mixed_faces, 0.5),
          (24, 9, 1.2, 0.9, "all_dirichlet", 0.3),
          (10, 20, 1.0, 4.0, "all_neumann", 1.0)]


def _diffusion(x, y):
    return 0.05 + 0.02 * x * y


@pytest.fixture(params=[(m, kind) for m in MESHES for kind in ("point", "average")],
                ids=[f"{m[0]}x{m[1]}-{kind}" for m in MESHES
                     for kind in ("point", "average")])
def grid(request):
    (nx, ny, lx, ly, spec, spacing), kind = request.param
    mesh = build_mesh(nx, ny, lx, ly, boundary_spec=spec)
    grid = SparseGrid(mesh, spacing, kind=kind)
    assert grid.kx != grid.ky
    return grid


def _close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= REL_TOL * np.abs(want).max()


def test_reconstruct_is_the_assembled_prolongation(grid):
    mesh = grid.mesh
    d = np.random.default_rng(grid.n_obs).standard_normal(grid.n_obs)
    P = bilinear_prolongation(mesh.nx, mesh.ny, grid.kx, grid.ky)
    _close(grid.reconstruct(d).values, P @ d)


def test_sample_is_the_assembled_functionals(grid):
    mesh = grid.mesh
    u = np.random.default_rng(mesh.n_vertices).standard_normal(mesh.n_vertices)
    _close(grid.sample(NodalField(mesh, u)), dr.functionals_by_assembly(grid) @ u)


@pytest.mark.parametrize("nx, ny, lx, ly, spacing", [
    (60, 60, 1.0, 1.0, 0.1), (24, 9, 1.2, 0.9, 0.3), (7, 7, 1.0, 1.0, 1 / 7)],
    ids=["square", "strip", "every-vertex"])
def test_point_sample_is_the_product_of_the_factors_bitwise(nx, ny, lx, ly,
                                                            spacing):
    """Point values select F's rows and columns of the lattice: `sample`
    slices them, bitwise equal to the product of the factors, and returns
    a copy, also when the lattice holds every vertex."""
    mesh = build_mesh(nx, ny, lx, ly)
    grid = SparseGrid(mesh, spacing)
    u = np.random.default_rng(nx).standard_normal(mesh.n_vertices)
    got = grid.sample(NodalField(mesh, u))
    assert got.tobytes() == kron_apply(grid.fy, grid.fx, u).tobytes()
    got[:] = np.nan
    assert np.all(np.isfinite(u))


def test_data_term_is_the_assembled_nudging_of_the_data(grid):
    """mu (M P) d in the free rows, M P assembled point by point; the step
    overwrites the Dirichlet rows."""
    mesh = grid.mesh
    coeffs = TransportCoefficients(mesh, _diffusion, mu=10.0, grid=grid)
    d = np.random.default_rng(7).random(grid.n_obs)
    free = ~mesh.is_dirichlet
    want = 10.0 * (dr.nudge_by_assembly(mesh, grid) @ d)
    _close(coeffs.data_vector(d)[free], want[free])


def _held(owner):
    """Every value an object holds as an attribute, tuples unpacked."""
    for value in vars(owner).values():
        yield from value if isinstance(value, tuple) else (value,)


@pytest.mark.parametrize("kind", ["point", "average"])
def test_no_vertex_by_lattice_matrix_is_kept(kind):
    """Neither a grid nor a nudged run nor its coupling holds a matrix,
    sparse or dense, with a row per vertex and a column per functional, or
    the transpose: the factors stand in for F, P and M P."""
    mesh = build_mesh(120, 120)
    grid = SparseGrid(mesh, 0.1, kind=kind)
    coeffs = TransportCoefficients(mesh, _diffusion, mu=10.0, grid=grid)
    full = {(mesh.n_vertices, grid.n_obs), (grid.n_obs, mesh.n_vertices)}
    for owner in (grid, coeffs, coeffs.coupling):
        held = [v.shape for v in _held(owner)
                if sparse.issparse(v) or isinstance(v, np.ndarray)]
        assert held and not full.intersection(held)
