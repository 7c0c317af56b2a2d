"""Conforming simplicial meshes of the perforated unit cell and its periodic tilings.

The unit cell ``[0, 1]^d`` carries a centered ball-shaped inclusion of radius
``r`` (phase B) inside a connected matrix (phase A).  One interface-fitted
builder serves both dimensions.  Its shared skeleton is a structured core
lattice inside the inclusion; boundary stations at exact integer fractions
(the square's perimeter walk in 2D, the cube's surface lattice points in 3D),
each matched to a core-surface vertex and to a point on the analytic sphere;
a blended shell from the core surface out to the sphere and a second one out
to the cell boundary; and one finishing block that orients the cells and the
interface normals and pairs the periodic faces.  Every interface vertex lies
on the sphere, and opposite faces of the cell match bitwise, so periodic
tilings merge without tolerances.

Only the split into simplices depends on the dimension.  In 2D the core grid
is triangulated along alternating diagonals, the quad bands between
consecutive rings along their shorter diagonals, and the interface facets are
the edges of the sphere ring.  In 3D the core cubes and the shell hexahedra
between consecutive rings are split into 24 tetrahedra each, through the
body centre and the face centres (face centres of the sphere ring projected
onto the sphere), and the interface facets are the matching triangles.

The same class also represents the periodic macro mesh obtained by tiling the
scaled cell over the unit square/cube, with tile provenance retained so that
oscillatory coefficients can be evaluated cheaply.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


class MeshError(ValueError):
    """Raised when a mesh cannot be built or fails structural validation."""


# ---------------------------------------------------------------------------
# mesh container


@dataclass
class Mesh:
    dim: int
    vertices: np.ndarray          # (nv, d)
    cells: np.ndarray             # (nc, d+1) vertex indices, positively oriented
    phase: np.ndarray             # (nc,) 0 = matrix, 1 = inclusion
    interface_facets: np.ndarray  # (nf, d) vertex indices
    interface_normals: np.ndarray # (nf, d) unit, outward from the inclusion
    periodic_pairs: np.ndarray    # (np, 2) follower -> leader vertex ids
    inclusion_radius: float | None = None
    resolution: int | None = None
    eps: float | None = None
    cell_tile: np.ndarray | None = None    # epsilon meshes: tile index per cell
    cell_source: np.ndarray | None = None  # epsilon meshes: source cell in the unit cell
    facet_tile: np.ndarray | None = None
    facet_source: np.ndarray | None = None

    # -- geometry -----------------------------------------------------------

    def cell_volumes(self):
        return _signed_dets(self.vertices, self.cells) / math.factorial(self.dim)

    def phase_measures(self):
        vols = self.cell_volumes()
        return (
            float(vols[self.phase == 0].sum()),
            float(vols[self.phase == 1].sum()),
        )

    def facet_centroids(self):
        return self.vertices[self.interface_facets].mean(axis=1)

    def facet_areas(self):
        return _facet_measures(self.vertices, self.interface_facets)

    def boundary_vertex_mask(self, tol=1e-12):
        x = self.vertices
        return np.any((np.abs(x) < tol) | (np.abs(x - 1.0) < tol), axis=1)

    def interface_measure(self):
        return float(self.facet_areas().sum())


# ---------------------------------------------------------------------------
# shared geometry


def lattice(n, d):
    """The (n^d, d) integer points of {0, ..., n - 1}^d, the last axis fastest."""
    return np.indices((n,) * d).reshape(d, -1).T.copy()


def _lattice_index(points, n):
    """The row-major number of each point of {0, ..., n - 1}^d, coordinates
    along the last axis."""
    return np.ravel_multi_index(tuple(np.moveaxis(points, -1, 0)), (n,) * points.shape[-1])


def _signed_dets(vertices, cells):
    """The determinant of each simplex's edge vectors from its first vertex:
    d! times its signed volume."""
    v = vertices[cells]
    edges = v[:, 1:, :] - v[:, :1, :]
    if vertices.shape[1] == 2:
        return edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0]
    return np.linalg.det(edges)


def _facet_normals(vertices, facets):
    """The normal of each facet from its stored vertex order, of length
    (d - 1)! times the facet's measure."""
    v = vertices[facets]
    if facets.shape[1] == 2:
        e = v[:, 1] - v[:, 0]
        return np.stack([e[:, 1], -e[:, 0]], axis=1)
    return np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])


def _facet_measures(vertices, facets):
    normals = _facet_normals(vertices, facets)
    return np.linalg.norm(normals, axis=1) / math.factorial(facets.shape[1] - 1)


def _orient_cells(vertices, cells):
    flip = _signed_dets(vertices, cells) < 0.0
    cells = cells.copy()
    cells[flip, -2], cells[flip, -1] = cells[flip, -1].copy(), cells[flip, -2].copy()
    return cells


def _orient_interface_normals(vertices, facets, center):
    normals = _facet_normals(vertices, facets)
    normals = normals / np.linalg.norm(normals, axis=1)[:, None]
    centroids = vertices[facets].mean(axis=1)
    # the inclusion is star shaped around the cell center
    sign = np.sign(np.einsum("ij,ij->i", normals, centroids - center))
    return normals * sign[:, None]


def _periodic_pairs_from_coords(vertices, tol=1e-12):
    """Follower -> leader pairs identifying the cell boundary periodically.

    The leader is the image with every coordinate equal to one replaced by
    zero; construction guarantees exact coordinate matches.
    """
    nv, d = vertices.shape
    on_boundary = np.any((np.abs(vertices) < tol) | (np.abs(vertices - 1.0) < tol), axis=1)
    lookup = {}
    for vid in np.flatnonzero(on_boundary):
        lookup[tuple(np.round(vertices[vid], 12))] = vid
    pairs = []
    for vid in np.flatnonzero(on_boundary):
        img = vertices[vid].copy()
        img[np.abs(img - 1.0) < tol] = 0.0
        if np.allclose(img, vertices[vid], atol=tol):
            continue
        leader = lookup.get(tuple(np.round(img, 12)))
        if leader is None:
            raise MeshError(f"periodic partner missing for vertex {vid}")
        pairs.append((vid, leader))
    return np.array(sorted(pairs), dtype=int).reshape(-1, 2)


# ---------------------------------------------------------------------------
# cell mesh


def _resolution_params(radius, resolution):
    if not 0.0 < radius < 0.5:
        raise MeshError("inclusion radius must lie in (0, 0.5)")
    if 0.5 - radius < 1.0 / resolution:
        raise MeshError(
            "resolution too coarse to separate the interface from the cell boundary"
        )
    # stations scale linearly with the resolution so that interface measures
    # converge at second order; the relative polygon error is r-independent.
    # shells are refined twice as hard as the nominal spacing because the
    # corrector fields concentrate their gradients near the interface
    m = max(2, round(0.75 * resolution))
    core_half = 0.5 * radius
    inner_layers = max(1, round(2.0 * (radius - core_half) * resolution))
    outer_layers = max(1, round(2.0 * (0.5 - radius) * resolution))
    return m, core_half, inner_layers, outer_layers


def _add_shell(blocks, rings, inner, outer, layers):
    """Append to ``blocks`` the rings of a shell blended from the station
    positions ``inner`` to ``outer`` in ``layers`` layers, the last ring
    exactly ``outer``, and their vertex ids to ``rings``."""
    for layer in range(1, layers + 1):
        pos = outer if layer == layers else inner + layer / layers * (outer - inner)
        start = sum(map(len, blocks))
        rings.append(np.arange(start, start + len(pos)))
        blocks.append(pos)


def build_cell_mesh(radius, resolution, dim=2) -> Mesh:
    """Interface-fitted mesh of the unit cell with a centered ball inclusion."""
    if dim not in (2, 3):
        raise MeshError("dimension must be 2 or 3")
    m, core_half, k_in, k_out = _resolution_params(radius, resolution)
    center = np.full(dim, 0.5)

    # core lattice, numbered row-major
    grid = lattice(m + 1, dim)
    core = 0.5 + core_half * (2.0 * grid / m - 1.0)

    # boundary stations at exact fractions, matching the core surface
    if dim == 2:
        stations = _perimeter_walk_2d(m)
    else:
        stations = grid[np.any((grid == 0) | (grid == m), axis=1)]
    boundary = stations / m
    dirs = boundary - center
    unit = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    sphere = center + radius * unit

    blocks, rings = [core], [_lattice_index(stations, m + 1)]
    _add_shell(blocks, rings, core[rings[0]], sphere, k_in)   # core surface -> sphere
    _add_shell(blocks, rings, sphere, boundary, k_out)         # sphere -> boundary
    vertices = np.concatenate(blocks)

    if dim == 2:
        cells, phase, facets = _simplices_2d(vertices, rings, m, k_in)
    else:
        vertices, cells, phase, facets = _simplices_3d(vertices, rings, m, k_in, center, radius)

    return Mesh(
        dim=dim, vertices=vertices, cells=_orient_cells(vertices, cells), phase=phase,
        interface_facets=facets,
        interface_normals=_orient_interface_normals(vertices, facets, center),
        periodic_pairs=_periodic_pairs_from_coords(vertices),
        inclusion_radius=radius, resolution=resolution,
    )


def _perimeter_walk_2d(m):
    """The 4m lattice points (i, j) of the m x m square's perimeter,
    counterclockwise from (0, 0)."""
    k, zero, side = np.arange(m), np.zeros(m, dtype=int), np.full(m, m)
    return np.concatenate([np.stack(ij, axis=1) for ij in
                           ((k, zero), (side, k), (m - k, side), (zero, m - k))])


def _grid_triangles(n):
    """The triangles of the n x n square grid with vertex (i, j) numbered
    i * (n + 1) + j, the squares split along alternating diagonals."""
    cells = []
    for i in range(n):
        for j in range(n):
            a, b = i * (n + 1) + j, (i + 1) * (n + 1) + j
            c, d = b + 1, a + 1
            cells += [(a, b, c), (a, c, d)] if (i + j) % 2 == 0 else [(a, b, d), (b, c, d)]
    return cells


def _split_band(ring_a, ring_b, vertices):
    """Triangulate the quad band between two rings, shorter-diagonal split."""
    n = len(ring_a)
    tris = []
    for j in range(n):
        jn = (j + 1) % n
        a, b = ring_a[j], ring_a[jn]
        c, d = ring_b[jn], ring_b[j]
        if np.linalg.norm(vertices[a] - vertices[c]) <= np.linalg.norm(
            vertices[b] - vertices[d]
        ):
            tris.append((a, b, c))
            tris.append((a, c, d))
        else:
            tris.append((a, b, d))
            tris.append((b, c, d))
    return tris


def _simplices_2d(vertices, rings, m, k_in):
    """Core grid triangles, the bands between consecutive rings, and the
    interface edges on ring ``k_in``."""
    cells = _grid_triangles(m)
    phase = [1] * len(cells)
    for layer in range(len(rings) - 1):
        tris = _split_band(rings[layer], rings[layer + 1], vertices)
        cells.extend(tris)
        phase.extend([1 if layer < k_in else 0] * len(tris))
    ring = rings[k_in]
    facets = np.stack([ring, np.roll(ring, -1)], axis=1)
    return np.array(cells, dtype=int), np.array(phase, dtype=np.uint8), facets


# corners of a unit square, counterclockwise; a hexahedron is the bottom
# square then the top one, and its faces are quads of its corner slots
_QUAD = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])
_CUBE = np.concatenate([np.insert(_QUAD, 2, z, axis=1) for z in (0, 1)])
_HEX_FACES = (
    (0, 1, 2, 3), (4, 5, 6, 7),
    (0, 1, 5, 4), (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7),
)


def _surface_quads_3d(m):
    """Lattice corners (6 m^2, 4, 3) of the unit squares on the surface of
    the m x m x m cube, face by face."""
    squares = lattice(m, 2)[:, None] + _QUAD
    return np.concatenate([np.insert(squares, axis, side, axis=2)
                           for axis in range(3) for side in (0, m)])


def _simplices_3d(vertices, rings, m, k_in, center, radius):
    """The core cubes and the shell hexahedra between consecutive rings, each
    split into 24 tetrahedra through its body and face centres, and the
    interface triangles on ring ``k_in``.  Returns the vertices with the
    centres appended."""
    # the stations are the surface points in lattice order, so ring 0 increases
    quads = np.searchsorted(rings[0], _lattice_index(_surface_quads_3d(m), m + 1))
    hexes = [_lattice_index(lattice(m, 3)[:, None] + _CUBE, m + 1)]
    hex_phase = [1] * len(hexes[0])
    for layer in range(len(rings) - 1):
        hexes.append(np.concatenate([rings[layer][quads], rings[layer + 1][quads]], axis=1))
        hex_phase += [1 if layer < k_in else 0] * len(quads)

    on_sphere = np.zeros(len(vertices), dtype=bool)
    on_sphere[rings[k_in]] = True
    verts = list(vertices)
    face_center = {}

    def face_center_id(face):
        key = tuple(sorted(face))
        vid = face_center.get(key)
        if vid is None:
            pos = (verts[face[0]] + verts[face[1]] + verts[face[2]] + verts[face[3]]) / 4.0
            if all(on_sphere[f] for f in face):
                rel = pos - center
                pos = center + radius * rel / np.linalg.norm(rel)
            vid = len(verts)
            verts.append(pos)
            face_center[key] = vid
        return vid

    cells = []
    for h in np.concatenate(hexes).tolist():
        body = len(verts)
        verts.append(sum(verts[v] for v in h) / 8.0)
        for f in _HEX_FACES:
            face = [h[i] for i in f]
            fc = face_center_id(face)
            for e in range(4):
                cells.append((face[e], face[(e + 1) % 4], fc, body))

    facets = []
    for face in rings[k_in][quads].tolist():
        fc = face_center[tuple(sorted(face))]
        for e in range(4):
            facets.append((face[e], face[(e + 1) % 4], fc))
    return (np.array(verts), np.array(cells, dtype=int),
            np.repeat(np.array(hex_phase, dtype=np.uint8), 24), np.array(facets, dtype=int))


# ---------------------------------------------------------------------------
# uniform macro mesh (no inclusion)


# the 3! monotone lattice paths across a unit cube, one Kuhn tetrahedron each
_KUHN_PATHS = np.array([[np.eye(3, dtype=int)[list(p[:k])].sum(axis=0) for k in range(4)]
                        for p in itertools.permutations(range(3))])


def build_uniform_mesh(resolution, dim=2) -> Mesh:
    """Uniform simplicial mesh of the unit square/cube, all matrix phase."""
    n = int(resolution)
    if dim == 2:
        cells = _grid_triangles(n)
    elif dim == 3:
        cells = _lattice_index(lattice(n, 3)[:, None, None] + _KUHN_PATHS, n + 1).reshape(-1, 4)
    else:
        raise MeshError("dimension must be 2 or 3")
    vertices = lattice(n + 1, dim) / n
    cells = _orient_cells(vertices, np.array(cells, dtype=int))
    return Mesh(
        dim=dim, vertices=vertices, cells=cells,
        phase=np.zeros(len(cells), dtype=np.uint8),
        interface_facets=np.zeros((0, dim), dtype=int),
        interface_normals=np.zeros((0, dim)),
        periodic_pairs=np.zeros((0, 2), dtype=int),
        resolution=n,
    )


# ---------------------------------------------------------------------------
# epsilon tiling


def build_epsilon_mesh(cell: Mesh, eps: float) -> Mesh:
    """Tile the scaled unit cell over the unit square/cube and merge seams."""
    n = round(1.0 / eps)
    if abs(n * eps - 1.0) > 1e-12:
        raise MeshError("1/eps must be an integer")
    d = cell.dim
    nv, nc, nf = len(cell.vertices), len(cell.cells), len(cell.interface_facets)
    ntiles = n**d
    tiles = np.arange(ntiles)
    all_verts = (eps * (cell.vertices + lattice(n, d)[:, None])).reshape(-1, d)

    # seam vertices coincide bitwise by construction; merge exact duplicates,
    # numbered by first occurrence
    _, first, inverse = np.unique(all_verts, axis=0, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    remap = rank[inverse.ravel()]
    shift = (tiles * nv)[:, None, None]

    return Mesh(
        dim=d, vertices=all_verts[first[order]],
        cells=remap[cell.cells + shift].reshape(-1, d + 1),
        phase=np.tile(cell.phase, ntiles),
        interface_facets=remap[cell.interface_facets + shift].reshape(-1, d),
        interface_normals=np.tile(cell.interface_normals, (ntiles, 1)),
        periodic_pairs=np.zeros((0, 2), dtype=int),
        inclusion_radius=cell.inclusion_radius, resolution=cell.resolution,
        eps=eps, cell_tile=np.repeat(tiles, nc), cell_source=np.tile(np.arange(nc), ntiles),
        facet_tile=np.repeat(tiles, nf), facet_source=np.tile(np.arange(nf), ntiles),
    )


def tile_anchors(mesh: Mesh):
    """Macro anchor point (cell corner) of each tile of an epsilon mesh."""
    return mesh.eps * lattice(round(1.0 / mesh.eps), mesh.dim)


# ---------------------------------------------------------------------------
# phase submeshes


@dataclass
class Submesh:
    mesh: Mesh
    vertex_map: np.ndarray   # parent vertex -> submesh vertex (or -1)


def extract_phase_submesh(parent: Mesh, phase: int) -> Submesh:
    cell_ids = np.flatnonzero(parent.phase == phase)
    cells = parent.cells[cell_ids]
    used = np.unique(cells)
    vmap = np.full(len(parent.vertices), -1, dtype=int)
    vmap[used] = np.arange(len(used))
    sub_cells = vmap[cells]
    facets = vmap[parent.interface_facets]
    keep = np.all(facets >= 0, axis=1)
    pairs = parent.periodic_pairs
    if len(pairs):
        ok = (vmap[pairs[:, 0]] >= 0) & (vmap[pairs[:, 1]] >= 0)
        pairs = np.stack([vmap[pairs[ok, 0]], vmap[pairs[ok, 1]]], axis=1)
    mesh = Mesh(
        dim=parent.dim,
        vertices=parent.vertices[used],
        cells=sub_cells,
        phase=parent.phase[cell_ids],
        interface_facets=facets[keep],
        interface_normals=parent.interface_normals[keep],
        periodic_pairs=pairs,
        inclusion_radius=parent.inclusion_radius,
        resolution=parent.resolution,
        eps=parent.eps,
    )
    return Submesh(mesh=mesh, vertex_map=vmap)


# ---------------------------------------------------------------------------
# quality report


@dataclass
class QualityReport:
    min_volume: float
    max_volume: float
    min_aspect: float
    max_aspect: float
    positively_oriented: bool
    degenerate_cells: list

    def summary(self):
        ok = "PASS" if self.positively_oriented and not self.degenerate_cells else "FAIL"
        lines = [
            f"mesh quality: {ok}",
            f"  volumes in [{self.min_volume:.6g}, {self.max_volume:.6g}]",
            f"  aspect ratio in [{self.min_aspect:.6g}, {self.max_aspect:.6g}]",
        ]
        if self.degenerate_cells:
            lines.append(f"  degenerate cells: {self.degenerate_cells}")
        return "\n".join(lines)


def _aspect_ratios(mesh: Mesh):
    """Longest edge over inscribed diameter, the inradius d |K| / (facet measures)."""
    d = mesh.dim
    emax = np.zeros(len(mesh.cells))
    for a, b in itertools.combinations(range(d + 1), 2):
        edge = mesh.vertices[mesh.cells[:, a]] - mesh.vertices[mesh.cells[:, b]]
        emax = np.maximum(emax, np.linalg.norm(edge, axis=1))
    area = np.zeros(len(mesh.cells))
    for facet in itertools.combinations(range(d + 1), d):
        area += _facet_measures(mesh.vertices, mesh.cells[:, facet])
    with np.errstate(divide="ignore", invalid="ignore"):
        inradius = d * np.abs(mesh.cell_volumes()) / area
        return np.where(inradius > 0, emax / (2.0 * inradius), np.inf)


def mesh_quality(mesh: Mesh, degenerate_tol=1e-14) -> QualityReport:
    vols = mesh.cell_volumes()
    aspects = _aspect_ratios(mesh)
    degenerate = np.flatnonzero(np.abs(vols) <= degenerate_tol).tolist()
    finite = aspects[np.isfinite(aspects)]
    return QualityReport(
        min_volume=float(vols.min()),
        max_volume=float(vols.max()),
        min_aspect=float(finite.min()) if len(finite) else np.inf,
        max_aspect=float(finite.max()) if len(finite) else np.inf,
        positively_oriented=bool(np.all(vols > 0.0)),
        degenerate_cells=degenerate,
    )


# ---------------------------------------------------------------------------
# VTK output


def _fmt(x):
    return format(float(x), ".17g")


_VTK_CELL_TYPE = {2: 5, 3: 10}  # triangle, tetrahedron


def write_vtk(path, mesh: Mesh, point_data=None, cell_data=None, title="thermohom"):
    """Legacy ASCII VTK unstructured grid with optional nodal/cell fields."""
    nv, nc = len(mesh.vertices), len(mesh.cells)
    nloc = mesh.dim + 1
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 2.0\n")
        f.write(f"{title}\n")
        f.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {nv} double\n")
        for v in mesh.vertices:
            coords = list(v) + [0.0] * (3 - mesh.dim)
            f.write(" ".join(_fmt(c) for c in coords) + "\n")
        f.write(f"\nCELLS {nc} {nc * (nloc + 1)}\n")
        for c in mesh.cells:
            f.write(f"{nloc} " + " ".join(str(i) for i in c) + "\n")
        f.write(f"\nCELL_TYPES {nc}\n")
        for _ in range(nc):
            f.write(f"{_VTK_CELL_TYPE[mesh.dim]}\n")
        f.write(f"\nCELL_DATA {nc}\n")
        f.write("SCALARS phase int\nLOOKUP_TABLE default\n")
        for p in mesh.phase:
            f.write(f"{int(p)}\n")
        for name, values in (cell_data or {}).items():
            f.write(f"SCALARS {name} double\nLOOKUP_TABLE default\n")
            for x in values:
                f.write(_fmt(x) + "\n")
        if point_data:
            f.write(f"\nPOINT_DATA {nv}\n")
            for name, values in point_data.items():
                values = np.asarray(values)
                if values.ndim == 1:
                    f.write(f"SCALARS {name} double\nLOOKUP_TABLE default\n")
                    for x in values:
                        f.write(_fmt(x) + "\n")
                else:
                    f.write(f"VECTORS {name} double\n")
                    for row in values:
                        coords = list(row) + [0.0] * (3 - values.shape[1])
                        f.write(" ".join(_fmt(c) for c in coords) + "\n")
