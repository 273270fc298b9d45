"""Uniform rectangular grids and their vertex-centered dual mesh.

The primal mesh covers (0, Lx) x (0, Ly) with nx*ny axis-aligned rectangles.
Vertices are numbered row by row (x fastest), elements likewise.  Every vertex
owns a control volume: the rectangle of half-cell extents around it, clipped at
the domain boundary, so the control volumes partition the domain exactly.

Control-volume boundaries that lie strictly inside the domain are split into
sub-segments, each contained in exactly one element.  Per element there are
four such segments (lower/upper halves of the vertical mid-line, left/right
halves of the horizontal mid-line), the same four types in every element.
A segment is therefore an (element, type) pair: per-segment data is an
(ne, 4) array, flattened element by element when a flat one is needed
(`n_segments` long), and its geometry is the per-type constants below,
which broadcast against it.  The global segment midpoints are columns of
the mesh's one point set, `fields.quadrature(mesh).seg_x` and `.seg_y`.
"""

import numpy as np

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

_TAGS = (DIRICHLET, NEUMANN)

# Segment types: local midpoint in unit coordinates, normal axis (0=x, 1=y),
# and the local corner whose control volume sits on each side of the segment.
# "left" is the corner from which the +axis normal points outward.
SEG_LOCAL_MID = np.array([
    [0.5, 0.25],   # vertical, lower half
    [0.5, 0.75],   # vertical, upper half
    [0.25, 0.5],   # horizontal, left half
    [0.75, 0.5],   # horizontal, right half
])
SEG_NORMAL_AXIS = np.array([0, 0, 1, 1])
SEG_LEFT_CORNER = np.array([0, 2, 0, 1])
SEG_RIGHT_CORNER = np.array([1, 3, 2, 3])
# Outward-normal sign of each segment type (column) for the control volume of
# each local corner (row): +1 on the left side, -1 on the right, 0 elsewhere.
SEG_SIGN = ((np.arange(4)[:, None] == SEG_LEFT_CORNER).astype(float)
            - (np.arange(4)[:, None] == SEG_RIGHT_CORNER))

# Quarter points of the four element edges, ordered S0 S1 N0 N1 W0 W1 E0 E1,
# and the axis of each edge's normal.
EDGE_QP_LOCAL = np.array([
    [0.25, 0.0], [0.75, 0.0],
    [0.25, 1.0], [0.75, 1.0],
    [0.0, 0.25], [0.0, 0.75],
    [1.0, 0.25], [1.0, 0.75],
])
EDGE_QP_AXIS = np.array([1, 1, 1, 1, 0, 0, 0, 0])


class MeshError(ValueError):
    pass


class StructuredMesh:
    """Uniform rectangular mesh, its boundary tags and its constants; the
    one owner of the index list `dirichlet_vertices`.  It keeps no element
    table: `element_corners` gives the corner vertex ids of a range of
    elements by index arithmetic on the lattice."""

    def __init__(self, nx, ny, Lx, Ly, edge_tags):
        self.nx = nx
        self.ny = ny
        self.Lx = float(Lx)
        self.Ly = float(Ly)
        self.hx = self.Lx / nx
        self.hy = self.Ly / ny
        self.n_vertices = (nx + 1) * (ny + 1)
        self.n_elements = nx * ny
        self.edge_tags = edge_tags  # dict side -> array of tags per boundary edge

        i = np.arange(nx + 1)
        j = np.arange(ny + 1)
        xx, yy = np.meshgrid(i * self.hx, j * self.hy)
        self.vertices = np.column_stack([xx.ravel(), yy.ravel()])

        self.n_segments = 4 * self.n_elements
        self._tag_vertices()
        self._constants = {}

    # -- boundary handling ------------------------------------------------

    def _tag_vertices(self):
        nx, ny = self.nx, self.ny
        dir_vertex = np.zeros(self.n_vertices, dtype=bool)

        def mark(vids, tags):
            dir_vertex[np.asarray(vids)[np.asarray(tags) == DIRICHLET]] = True

        i = np.arange(nx)
        j = np.arange(ny)
        # Each boundary edge marks both its endpoint vertices.
        for endpoints, tags in [
            ((i, i + 1), self.edge_tags["bottom"]),
            ((ny * (nx + 1) + i, ny * (nx + 1) + i + 1), self.edge_tags["top"]),
            ((j * (nx + 1), (j + 1) * (nx + 1)), self.edge_tags["left"]),
            ((j * (nx + 1) + nx, (j + 1) * (nx + 1) + nx), self.edge_tags["right"]),
        ]:
            mark(endpoints[0], tags)
            mark(endpoints[1], tags)

        self.is_dirichlet = dir_vertex
        self.dirichlet_vertices = np.flatnonzero(dir_vertex)

    # -- element corners ---------------------------------------------------

    def element_corners(self, lo=0, hi=None):
        """The vertex ids of the corners SW, SE, NW, NE of elements lo:hi
        (all by default), (hi - lo, 4): element e = j nx + i has its SW
        corner at vertex j (nx + 1) + i = e + j."""
        nx = self.nx
        e = np.arange(lo, self.n_elements if hi is None else hi)
        sw = e + e // nx
        return sw[:, None] + np.array([0, 1, nx + 1, nx + 2])

    # -- convenience -------------------------------------------------------

    def constant(self, key, build):
        """The mesh constant `key`: build(mesh) on first use, then kept.

        This is the one cache of what a mesh determines on its own (the
        quadrature tables and point set, the stencil pattern, the kernel
        point blocks, the 1-D mass factors, the multigrid transfers, the
        advection's upwind slot rows, the transport factor's ordering per
        observation lattice); it is filled lazily, inside the run that
        first needs each entry.
        """
        value = self._constants.get(key)
        if value is None:
            value = self._constants[key] = build(self)
        return value


def _resolve_edge_tags(nx, ny, Lx, Ly, boundary_spec):
    hx, hy = Lx / nx, Ly / ny
    sides = {
        "bottom": [((k + 0.5) * hx, 0.0) for k in range(nx)],
        "top": [((k + 0.5) * hx, Ly) for k in range(nx)],
        "left": [(0.0, (k + 0.5) * hy) for k in range(ny)],
        "right": [(Lx, (k + 0.5) * hy) for k in range(ny)],
    }
    if boundary_spec == "all_dirichlet":
        rule = lambda x, y: DIRICHLET
    elif boundary_spec == "all_neumann":
        rule = lambda x, y: NEUMANN
    elif callable(boundary_spec):
        rule = boundary_spec
    else:
        raise MeshError(f"unknown boundary spec: {boundary_spec!r}")

    tags = {}
    for side, mids in sides.items():
        side_tags = []
        for x, y in mids:
            tag = rule(x, y)
            if tag not in _TAGS:
                raise MeshError(f"boundary rule returned {tag!r} at ({x}, {y})")
            side_tags.append(tag)
        tags[side] = np.array(side_tags, dtype=object)
    return tags


def build_mesh(nx, ny, Lx=1.0, Ly=1.0, boundary_spec="all_dirichlet"):
    """Build a uniform nx-by-ny rectangular mesh over (0, Lx) x (0, Ly).

    boundary_spec is "all_dirichlet", "all_neumann", or a callable mapping a
    boundary-edge midpoint (x, y) to one of the tag constants.
    """
    if not (isinstance(nx, (int, np.integer)) and isinstance(ny, (int, np.integer))):
        raise MeshError("nx and ny must be integers")
    if nx < 1 or ny < 1:
        raise MeshError(f"mesh needs at least one cell per direction, got {nx}x{ny}")
    if Lx <= 0 or Ly <= 0:
        raise MeshError(f"domain lengths must be positive, got {Lx}, {Ly}")
    tags = _resolve_edge_tags(int(nx), int(ny), Lx, Ly, boundary_spec)
    return StructuredMesh(int(nx), int(ny), Lx, Ly, tags)
