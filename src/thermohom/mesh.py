"""Conforming simplicial meshes of the perforated unit cell and its periodic tilings.

The unit cell ``[0, 1]^d`` carries a centered ball-shaped inclusion of radius
``r`` (phase B) inside a connected matrix (phase A).  The built-in generator
is interface-fitted: a structured core block inside the inclusion, a blended
shell out to the spherical interface (every interface vertex lies on the
analytic sphere), and a second blended shell out to the cell boundary whose
outermost nodes sit at exact integer fractions, so that opposite faces of the
cell match bitwise and periodic tilings merge without tolerances.

The same class also represents the periodic macro mesh obtained by tiling the
scaled cell over the unit square/cube, with tile provenance retained so that
oscillatory coefficients can be evaluated cheaply.

Plain-text mesh format (one file per mesh): a header line ``d nv nc nf``
followed by ``nv`` vertex coordinate lines, ``nc`` cell lines (``d+1`` vertex
indices and a phase integer), and ``nf`` interface facet lines (``d`` vertex
indices and an orientation flag ``+1``/``-1`` relative to the canonical
geometric normal of the stored vertex order).
"""

from __future__ import annotations

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
        v = self.vertices[self.interface_facets]
        if self.dim == 2:
            return np.linalg.norm(v[:, 1] - v[:, 0], axis=1)
        cr = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        return 0.5 * np.linalg.norm(cr, axis=1)

    def boundary_vertex_mask(self, tol=1e-12):
        x = self.vertices
        return np.any((np.abs(x) < tol) | (np.abs(x - 1.0) < tol), axis=1)

    def interface_measure(self):
        return float(self.facet_areas().sum())


# ---------------------------------------------------------------------------
# station layout shared by the 2D and 3D builders


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


def _signed_dets(vertices, cells):
    """The determinant of each simplex's edge vectors from its first vertex:
    d! times its signed volume."""
    v = vertices[cells]
    edges = v[:, 1:, :] - v[:, :1, :]
    if vertices.shape[1] == 2:
        return edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0]
    return np.linalg.det(edges)


def _add_shell(verts, rings, inner, outer, layers):
    """Append to ``verts`` the rings of a shell blended from the station
    positions ``inner`` to ``outer`` in ``layers`` layers, the last ring
    exactly ``outer``, and their vertex ids to ``rings``."""
    for layer in range(1, layers + 1):
        pos = outer if layer == layers else inner + layer / layers * (outer - inner)
        rings.append(list(range(len(verts), len(verts) + len(pos))))
        verts.extend(map(tuple, pos))


def _orient_cells(vertices, cells):
    flip = _signed_dets(vertices, cells) < 0.0
    cells = cells.copy()
    cells[flip, -2], cells[flip, -1] = cells[flip, -1].copy(), cells[flip, -2].copy()
    return cells


def _facet_canonical_normals(vertices, facets):
    """Unit normals determined by the stored vertex order alone."""
    v = vertices[facets]
    if facets.shape[1] == 2:
        e = v[:, 1] - v[:, 0]
        normals = np.stack([e[:, 1], -e[:, 0]], axis=1)
    else:
        normals = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    return normals / np.linalg.norm(normals, axis=1)[:, None]


def _orient_interface_normals(vertices, facets, center):
    normals = _facet_canonical_normals(vertices, facets)
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
# 2D builder


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


def _build_cell_mesh_2d(radius, resolution):
    m, core_half, k_in, k_out = _resolution_params(radius, resolution)
    center = np.array([0.5, 0.5])

    # core grid, vertex (i, j) numbered i * (m + 1) + j
    xs = np.array([0.5 + core_half * (2.0 * t / m - 1.0) for t in range(m + 1)])
    verts = [(xs[i], xs[j]) for i in range(m + 1) for j in range(m + 1)]

    # 4m boundary stations at exact fractions, matching the core perimeter
    walk = _perimeter_walk_2d(m)
    boundary = walk / m
    dirs = boundary - center
    unit = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    circle = center + radius * unit

    ring0 = (walk @ [m + 1, 1]).tolist()
    core_perim = np.array([verts[v] for v in ring0])

    rings = [ring0]
    _add_shell(verts, rings, core_perim, circle, k_in)    # core perimeter -> circle
    _add_shell(verts, rings, circle, boundary, k_out)     # circle -> boundary

    vertices = np.array(verts)

    cells = _grid_triangles(m)
    phase = [1] * len(cells)
    for layer in range(len(rings) - 1):
        tris = _split_band(rings[layer], rings[layer + 1], vertices)
        cells.extend(tris)
        phase.extend([1 if layer < k_in else 0] * len(tris))

    cells = np.array(cells, dtype=int)
    phase = np.array(phase, dtype=np.uint8)

    circ_ring = rings[k_in]
    facets = np.array(
        [(circ_ring[j], circ_ring[(j + 1) % len(circ_ring)]) for j in range(len(circ_ring))],
        dtype=int,
    )
    cells = _orient_cells(vertices, cells)
    normals = _orient_interface_normals(vertices, facets, center)
    pairs = _periodic_pairs_from_coords(vertices)
    return Mesh(
        dim=2, vertices=vertices, cells=cells, phase=phase,
        interface_facets=facets, interface_normals=normals, periodic_pairs=pairs,
        inclusion_radius=radius, resolution=resolution,
    )


# ---------------------------------------------------------------------------
# 3D builder


def _surface_stations_3d(m):
    """Lattice triples on the cube surface, deterministic order."""
    stations = []
    for i in range(m + 1):
        for j in range(m + 1):
            for k in range(m + 1):
                if i in (0, m) or j in (0, m) or k in (0, m):
                    stations.append((i, j, k))
    return stations


def _surface_quads_3d(m):
    """Corner lattice triples of the 6 m^2 surface quads."""
    quads = []
    for axis in range(3):
        for side in (0, m):
            u, v = [a for a in range(3) if a != axis]
            for i in range(m):
                for j in range(m):
                    corners = []
                    for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1)):
                        triple = [0, 0, 0]
                        triple[axis] = side
                        triple[u] = i + di
                        triple[v] = j + dj
                        corners.append(tuple(triple))
                    quads.append(tuple(corners))
    return quads


def _build_cell_mesh_3d(radius, resolution):
    m, core_half, k_in, k_out = _resolution_params(radius, resolution)
    center = np.array([0.5, 0.5, 0.5])

    verts = []
    xs = np.array([0.5 + core_half * (2.0 * t / m - 1.0) for t in range(m + 1)])
    core_id = {}
    for i in range(m + 1):
        for j in range(m + 1):
            for k in range(m + 1):
                core_id[(i, j, k)] = len(verts)
                verts.append((xs[i], xs[j], xs[k]))

    stations = _surface_stations_3d(m)
    station_index = {s: idx for idx, s in enumerate(stations)}
    boundary = np.array([(i / m, j / m, k / m) for (i, j, k) in stations])
    dirs = boundary - center
    unit = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    sphere = center + radius * unit

    ring0 = [core_id[s] for s in stations]
    core_surf = np.array([verts[v] for v in ring0])

    rings = [ring0]
    _add_shell(verts, rings, core_surf, sphere, k_in)
    _add_shell(verts, rings, sphere, boundary, k_out)

    on_sphere = np.zeros(len(verts), dtype=bool)
    on_sphere[rings[k_in]] = True

    quads = _surface_quads_3d(m)

    hexes = []
    hex_phase = []
    for i in range(m):
        for j in range(m):
            for k in range(m):
                bottom = [(i, j, k), (i + 1, j, k), (i + 1, j + 1, k), (i, j + 1, k)]
                top = [(a, b, c + 1) for (a, b, c) in bottom]
                hexes.append([core_id[s] for s in bottom + top])
                hex_phase.append(1)
    for layer in range(len(rings) - 1):
        ra, rb = rings[layer], rings[layer + 1]
        ph = 1 if layer < k_in else 0
        for q in quads:
            idx = [station_index[s] for s in q]
            hexes.append([ra[s] for s in idx] + [rb[s] for s in idx])
            hex_phase.append(ph)

    verts = [np.asarray(v, dtype=float) for v in verts]
    face_center = {}
    center_arr = center

    def face_center_id(face):
        key = tuple(sorted(face))
        vid = face_center.get(key)
        if vid is None:
            pos = (verts[face[0]] + verts[face[1]] + verts[face[2]] + verts[face[3]]) / 4.0
            if all(on_sphere[f] for f in face):
                rel = pos - center_arr
                pos = center_arr + radius * rel / np.linalg.norm(rel)
            vid = len(verts)
            verts.append(pos)
            face_center[key] = vid
        return vid

    HEX_FACES = (
        (0, 1, 2, 3), (4, 5, 6, 7),
        (0, 1, 5, 4), (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7),
    )

    cells = []
    phase = []
    for h, ph in zip(hexes, hex_phase):
        body = len(verts)
        verts.append(sum(verts[v] for v in h) / 8.0)
        for f in HEX_FACES:
            face = [h[f[0]], h[f[1]], h[f[2]], h[f[3]]]
            fc = face_center_id(face)
            for e in range(4):
                cells.append((face[e], face[(e + 1) % 4], fc, body))
                phase.append(ph)

    vertices = np.array(verts)
    cells = np.array(cells, dtype=int)
    phase = np.array(phase, dtype=np.uint8)

    sphere_ring = rings[k_in]
    facets = []
    for q in quads:
        face = [sphere_ring[station_index[s]] for s in q]
        fc = face_center[tuple(sorted(face))]
        for e in range(4):
            facets.append((face[e], face[(e + 1) % 4], fc))
    facets = np.array(facets, dtype=int)

    cells = _orient_cells(vertices, cells)
    normals = _orient_interface_normals(vertices, facets, center)
    pairs = _periodic_pairs_from_coords(vertices)
    return Mesh(
        dim=3, vertices=vertices, cells=cells, phase=phase,
        interface_facets=facets, interface_normals=normals, periodic_pairs=pairs,
        inclusion_radius=radius, resolution=resolution,
    )


def build_cell_mesh(radius, resolution, dim=2) -> Mesh:
    """Interface-fitted mesh of the unit cell with a centered ball inclusion."""
    if dim == 2:
        return _build_cell_mesh_2d(radius, resolution)
    if dim == 3:
        return _build_cell_mesh_3d(radius, resolution)
    raise MeshError("dimension must be 2 or 3")


# ---------------------------------------------------------------------------
# uniform macro mesh (no inclusion)


_KUHN_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def build_uniform_mesh(resolution, dim=2) -> Mesh:
    """Uniform simplicial mesh of the unit square/cube, all matrix phase."""
    n = int(resolution)
    if dim == 2:
        vertices = np.array([(i / n, j / n) for i in range(n + 1) for j in range(n + 1)])
        cells = _grid_triangles(n)
    elif dim == 3:
        idx = lambda i, j, k: (i * (n + 1) + j) * (n + 1) + k
        vertices = np.array(
            [(i / n, j / n, k / n)
             for i in range(n + 1) for j in range(n + 1) for k in range(n + 1)]
        )
        cells = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    base = np.array([i, j, k])
                    for perm in _KUHN_PERMS:
                        path = [base.copy()]
                        for ax in perm:
                            nxt = path[-1].copy()
                            nxt[ax] += 1
                            path.append(nxt)
                        cells.append(tuple(idx(*p) for p in path))
    else:
        raise MeshError("dimension must be 2 or 3")
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


def _tile_offsets(n, d):
    """The integer offset of each of the n^d tiles, the last axis fastest."""
    return np.stack(np.meshgrid(*[np.arange(n)] * d, indexing="ij"), axis=-1).reshape(-1, d)


def build_epsilon_mesh(cell: Mesh, eps: float) -> Mesh:
    """Tile the scaled unit cell over the unit square/cube and merge seams."""
    n = round(1.0 / eps)
    if abs(n * eps - 1.0) > 1e-12:
        raise MeshError("1/eps must be an integer")
    d = cell.dim
    nv, nc, nf = len(cell.vertices), len(cell.cells), len(cell.interface_facets)
    ntiles = n**d
    tiles = np.arange(ntiles)
    all_verts = (eps * (cell.vertices + _tile_offsets(n, d)[:, None])).reshape(-1, d)

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
    return mesh.eps * _tile_offsets(round(1.0 / mesh.eps), mesh.dim)


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
    v = mesh.vertices[mesh.cells]
    nloc = mesh.dim + 1
    emax = np.zeros(len(mesh.cells))
    for a in range(nloc):
        for b in range(a + 1, nloc):
            emax = np.maximum(emax, np.linalg.norm(v[:, a] - v[:, b], axis=1))
    vols = np.abs(mesh.cell_volumes())
    with np.errstate(divide="ignore", invalid="ignore"):
        if mesh.dim == 2:
            per = np.zeros(len(mesh.cells))
            for a, b in ((0, 1), (1, 2), (2, 0)):
                per += np.linalg.norm(v[:, a] - v[:, b], axis=1)
            inradius = 2.0 * vols / per
        else:
            area = np.zeros(len(mesh.cells))
            for f in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
                cr = np.cross(v[:, f[1]] - v[:, f[0]], v[:, f[2]] - v[:, f[0]])
                area += 0.5 * np.linalg.norm(cr, axis=1)
            inradius = 3.0 * vols / area
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
# plain text and VTK output


def _fmt(x):
    return format(float(x), ".17g")


def save_mesh(path, mesh: Mesh):
    with open(path, "w") as f:
        f.write(f"{mesh.dim} {len(mesh.vertices)} {len(mesh.cells)} "
                f"{len(mesh.interface_facets)}\n")
        for v in mesh.vertices:
            f.write(" ".join(_fmt(c) for c in v) + "\n")
        for c, p in zip(mesh.cells, mesh.phase):
            f.write(" ".join(str(i) for i in c) + f" {int(p)}\n")
        if len(mesh.interface_facets):
            canonical = _facet_canonical_normals(mesh.vertices, mesh.interface_facets)
            for k, fac in enumerate(mesh.interface_facets):
                flag = 1 if np.dot(canonical[k], mesh.interface_normals[k]) > 0 else -1
                f.write(" ".join(str(i) for i in fac) + f" {flag}\n")


def load_mesh(path) -> Mesh:
    with open(path) as f:
        header = f.readline().split()
        d, nv, nc, nf = (int(x) for x in header)
        vertices = np.array(
            [[float(x) for x in f.readline().split()] for _ in range(nv)]
        )
        cells = np.empty((nc, d + 1), dtype=int)
        phase = np.empty(nc, dtype=np.uint8)
        for i in range(nc):
            row = f.readline().split()
            cells[i] = [int(x) for x in row[:-1]]
            phase[i] = int(row[-1])
        facets = np.empty((nf, d), dtype=int)
        flags = np.empty(nf)
        for i in range(nf):
            row = f.readline().split()
            facets[i] = [int(x) for x in row[:-1]]
            flags[i] = int(row[-1])
    mesh = Mesh(
        dim=d, vertices=vertices, cells=cells, phase=phase,
        interface_facets=facets,
        interface_normals=np.zeros((nf, d)),
        periodic_pairs=np.zeros((0, 2), dtype=int),
    )
    if nf:
        canonical = _facet_canonical_normals(vertices, facets)
        mesh.interface_normals = canonical * flags[:, None]
    try:
        mesh.periodic_pairs = _periodic_pairs_from_coords(vertices)
    except MeshError:
        pass  # imported meshes need not tile periodically
    return mesh


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
