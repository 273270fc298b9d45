"""Uniform rectangular grids and their vertex-centered dual mesh.

The primal mesh covers (0, Lx) x (0, Ly) with nx*ny axis-aligned rectangles.
Vertices are numbered row by row (x fastest), elements likewise.  Every vertex
owns a control volume: the rectangle of half-cell extents around it, clipped at
the domain boundary, so the control volumes partition the domain exactly.

Control-volume boundaries that lie strictly inside the domain are split into
sub-segments, each contained in exactly one element.  Per element there are
four such segments (lower/upper halves of the vertical mid-line, left/right
halves of the horizontal mid-line); the segment table built here is the
backbone of all finite-volume surface integrals.
"""

from dataclasses import dataclass, field

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


class MeshError(ValueError):
    pass


@dataclass
class CVFace:
    """A flat piece of a control-volume boundary."""

    midpoint: np.ndarray
    normal: np.ndarray
    length: float
    neighbor: int        # vertex id of the CV across the face, -1 on the boundary
    tag: str | None      # boundary tag when neighbor == -1


@dataclass
class ControlVolume:
    vertex: int
    center: np.ndarray
    bounds: tuple        # (xlo, xhi, ylo, yhi)
    area: float
    faces: list = field(default_factory=list)


class StructuredMesh:
    """Uniform rectangular mesh with dual-mesh segment tables."""

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

        ei = np.tile(np.arange(nx), ny)
        ej = np.repeat(np.arange(ny), nx)
        sw = ej * (nx + 1) + ei
        self.elements = np.column_stack([sw, sw + 1, sw + nx + 1, sw + nx + 2])
        self.element_origins = np.column_stack([ei * self.hx, ej * self.hy])

        self._tag_vertices()
        self._build_segments()

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
        self.free_vertices = np.flatnonzero(~dir_vertex)
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        self.on_boundary = (x == 0.0) | (y == 0.0) | (x == self.Lx) | (y == self.Ly)

    # -- dual-mesh segment table ------------------------------------------

    def _build_segments(self):
        ne = self.n_elements
        elem = np.repeat(np.arange(ne), 4)
        styp = np.tile(np.arange(4), ne)
        corners = self.elements[elem]
        self.seg_elem = elem
        self.seg_type = styp
        self.seg_left = corners[np.arange(4 * ne), SEG_LEFT_CORNER[styp]]
        self.seg_right = corners[np.arange(4 * ne), SEG_RIGHT_CORNER[styp]]
        self.seg_normal_axis = SEG_NORMAL_AXIS[styp]
        self.seg_len = np.where(self.seg_normal_axis == 0, self.hy / 2.0, self.hx / 2.0)
        scale = np.array([self.hx, self.hy])
        self.seg_mid = self.element_origins[elem] + SEG_LOCAL_MID[styp] * scale
        self.n_segments = 4 * ne

    # -- convenience -------------------------------------------------------

    def vertex_id(self, i, j):
        return j * (self.nx + 1) + i

    def cv_bounds(self, vid):
        x, y = self.vertices[vid]
        return (max(x - self.hx / 2, 0.0), min(x + self.hx / 2, self.Lx),
                max(y - self.hy / 2, 0.0), min(y + self.hy / 2, self.Ly))

    def cv_areas(self):
        """Areas of all control volumes (clipped at the boundary)."""
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        wx = np.minimum(x + self.hx / 2, self.Lx) - np.maximum(x - self.hx / 2, 0.0)
        wy = np.minimum(y + self.hy / 2, self.Ly) - np.maximum(y - self.hy / 2, 0.0)
        return wx * wy


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


def control_volumes(mesh):
    """Materialize the dual mesh as a list of ControlVolume records.

    One record per vertex (Dirichlet vertices included, their rows simply
    carry no unknown later on).  Faces cover the full CV boundary: interior
    sub-segments carry the neighboring vertex id, boundary pieces carry the
    tag of the primal boundary edge they lie on.
    """
    nx, ny = mesh.nx, mesh.ny
    hx, hy = mesh.hx, mesh.hy
    areas = mesh.cv_areas()

    # Gather interior faces per vertex from the segment table.
    faces_of = [[] for _ in range(mesh.n_vertices)]
    axis_vecs = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    for s in range(mesh.n_segments):
        n = axis_vecs[mesh.seg_normal_axis[s]]
        left, right = mesh.seg_left[s], mesh.seg_right[s]
        mid, ln = mesh.seg_mid[s], mesh.seg_len[s]
        faces_of[left].append(CVFace(mid, n.copy(), ln, right, None))
        faces_of[right].append(CVFace(mid, -n, ln, left, None))

    def boundary_pieces(i, j, vid):
        """Pieces of the CV boundary lying on the domain boundary."""
        x, y = mesh.vertices[vid]
        pieces = []
        if j == 0 or j == ny:
            side = "bottom" if j == 0 else "top"
            ny_vec = np.array([0.0, -1.0]) if j == 0 else np.array([0.0, 1.0])
            if i > 0:
                pieces.append(CVFace(np.array([x - hx / 4, y]), ny_vec, hx / 2,
                                     -1, mesh.edge_tags[side][i - 1]))
            if i < nx:
                pieces.append(CVFace(np.array([x + hx / 4, y]), ny_vec, hx / 2,
                                     -1, mesh.edge_tags[side][i]))
        if i == 0 or i == nx:
            side = "left" if i == 0 else "right"
            nx_vec = np.array([-1.0, 0.0]) if i == 0 else np.array([1.0, 0.0])
            if j > 0:
                pieces.append(CVFace(np.array([x, y - hy / 4]), nx_vec, hy / 2,
                                     -1, mesh.edge_tags[side][j - 1]))
            if j < ny:
                pieces.append(CVFace(np.array([x, y + hy / 4]), nx_vec, hy / 2,
                                     -1, mesh.edge_tags[side][j]))
        return pieces

    out = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            vid = mesh.vertex_id(i, j)
            faces = faces_of[vid] + boundary_pieces(i, j, vid)
            out.append(ControlVolume(vid, mesh.vertices[vid], mesh.cv_bounds(vid),
                                     areas[vid], faces))
    return out
