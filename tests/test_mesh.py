import numpy as np
import pytest
from helpers import inclusion_components

from thermohom.mesh import (
    MeshError,
    build_cell_mesh,
    build_epsilon_mesh,
    build_uniform_mesh,
    extract_phase_submesh,
    mesh_quality,
    write_vtk,
)


@pytest.fixture(scope="module")
def cell16():
    return build_cell_mesh(0.25, 16, dim=2)


@pytest.fixture(scope="module")
def cell3d():
    return build_cell_mesh(0.25, 8, dim=3)


def facet_cells(mesh):
    """The cells on each side of every interface facet."""
    cells_of = {}
    for ci, c in enumerate(mesh.cells):
        for drop in range(mesh.dim + 1):
            cells_of.setdefault(tuple(sorted(np.delete(c, drop))), []).append(ci)
    return [cells_of[tuple(sorted(fac))] for fac in mesh.interface_facets]


def assert_facets_separate_phases(mesh):
    for adj in facet_cells(mesh):
        assert len(adj) == 2
        assert sorted(mesh.phase[adj]) == [0, 1]


def assert_normals_point_into_matrix(mesh):
    centroids = mesh.facet_centroids()
    for k, adj in enumerate(facet_cells(mesh)):
        a_cell = adj[0] if mesh.phase[adj[0]] == 0 else adj[1]
        toward_a = mesh.vertices[mesh.cells[a_cell]].mean(axis=0) - centroids[k]
        assert np.dot(mesh.interface_normals[k], toward_a) > 0.0


class TestCellMesh2D:
    def test_total_area_is_one(self, cell16):
        assert abs(cell16.cell_volumes().sum() - 1.0) < 1e-10

    def test_interface_vertices_on_circle(self, cell16):
        ids = np.unique(cell16.interface_facets)
        rho = np.linalg.norm(cell16.vertices[ids] - 0.5, axis=1)
        assert np.max(np.abs(rho - 0.25)) < 1e-10

    def test_inclusion_area_close_to_disk(self, cell16):
        _, area_b = cell16.phase_measures()
        exact = np.pi * 0.25**2
        assert abs(area_b - exact) / exact < 0.02

    def test_phase_measures_sum_to_one(self, cell16):
        a, b = cell16.phase_measures()
        assert abs(a + b - 1.0) < 1e-10

    def test_every_facet_separates_phases(self, cell16):
        assert_facets_separate_phases(cell16)

    def test_normals_point_from_inclusion_into_matrix(self, cell16):
        assert_normals_point_into_matrix(cell16)

    def test_periodic_pairs_are_unit_translations(self, cell16):
        pairs = cell16.periodic_pairs
        assert len(pairs) > 0
        delta = cell16.vertices[pairs[:, 0]] - cell16.vertices[pairs[:, 1]]
        assert np.max(np.abs(delta - np.round(delta))) < 1e-12
        # leaders are never followers
        assert not set(pairs[:, 0]) & set(pairs[:, 1])

    def test_interface_length_convergence_rate(self):
        errors, ns = [], [8, 16, 32, 64]
        for n in ns:
            mesh = build_cell_mesh(0.25, n, dim=2)
            errors.append(abs(mesh.interface_measure() - 2.0 * np.pi * 0.25))
        rate = np.polyfit(np.log(ns), np.log(errors), 1)[0]
        assert -rate >= 1.9

    def test_too_coarse_raises(self):
        with pytest.raises(MeshError):
            build_cell_mesh(0.45, 4, dim=2)


class TestCellMesh3D:
    def test_total_volume_is_one(self, cell3d):
        assert abs(cell3d.cell_volumes().sum() - 1.0) < 1e-10

    def test_interface_vertices_on_sphere(self, cell3d):
        ids = np.unique(cell3d.interface_facets)
        rho = np.linalg.norm(cell3d.vertices[ids] - 0.5, axis=1)
        assert np.max(np.abs(rho - 0.25)) < 1e-10

    def test_inclusion_volume_close_to_ball(self, cell3d):
        _, vol_b = cell3d.phase_measures()
        exact = 4.0 / 3.0 * np.pi * 0.25**3
        # inscribed polyhedron at this coarse smoke resolution
        assert abs(vol_b - exact) / exact < 0.08

    def test_interface_area_convergence_rate(self):
        errors, ns = [], [8, 16, 24]
        for n in ns:
            mesh = build_cell_mesh(0.25, n, dim=3)
            errors.append(abs(mesh.interface_measure() - 4.0 * np.pi * 0.25**2))
        rate = np.polyfit(np.log(ns), np.log(errors), 1)[0]
        assert -rate >= 1.9

    def test_periodic_pairs(self, cell3d):
        pairs = cell3d.periodic_pairs
        delta = cell3d.vertices[pairs[:, 0]] - cell3d.vertices[pairs[:, 1]]
        assert np.max(np.abs(delta - np.round(delta))) < 1e-12

    def test_every_facet_separates_phases(self, cell3d):
        assert_facets_separate_phases(cell3d)

    def test_normals_point_from_inclusion_into_matrix(self, cell3d):
        assert_normals_point_into_matrix(cell3d)

    def test_too_coarse_raises(self):
        with pytest.raises(MeshError):
            build_cell_mesh(0.45, 4, dim=3)

    def test_dimension_four_raises(self):
        with pytest.raises(MeshError, match="dimension must be 2 or 3"):
            build_cell_mesh(0.25, 8, dim=4)


class TestEpsilonMesh:
    def test_tiling_counts(self, cell16):
        eps_mesh = build_epsilon_mesh(cell16, 0.5)
        assert len(eps_mesh.cells) == 4 * len(cell16.cells)
        assert abs(eps_mesh.cell_volumes().sum() - 1.0) < 1e-10

    def test_components_disconnected(self):
        cell = build_cell_mesh(0.25, 8, dim=2)
        eps_mesh = build_epsilon_mesh(cell, 0.25)
        assert inclusion_components(eps_mesh) == 16

    def test_no_duplicate_vertices(self):
        cell = build_cell_mesh(0.25, 8, dim=2)
        eps_mesh = build_epsilon_mesh(cell, 0.5)
        # brute force pair scan on the small mesh
        x = eps_mesh.vertices
        dist = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
        np.fill_diagonal(dist, np.inf)
        assert dist.min() > 0.5 * 1e-6

    def test_boundary_touches_only_matrix(self, cell16):
        eps_mesh = build_epsilon_mesh(cell16, 0.5)
        bmask = eps_mesh.boundary_vertex_mask()
        for c, p in zip(eps_mesh.cells, eps_mesh.phase):
            if p == 1:
                assert not np.any(bmask[c])

    def test_non_integer_eps_rejected(self, cell16):
        with pytest.raises(MeshError):
            build_epsilon_mesh(cell16, 0.3)


class TestQuality:
    def test_all_volumes_positive(self, cell16):
        rep = mesh_quality(cell16)
        assert rep.positively_oriented
        assert rep.min_volume > 0.0
        assert not rep.degenerate_cells

    def test_right_triangle_aspect(self):
        mesh = build_uniform_mesh(4, dim=2)
        rep = mesh_quality(mesh)
        # uniform grid of right isoceles triangles: longest edge / (2 inradius)
        expected = 1.0 + np.sqrt(2.0)
        assert np.isclose(rep.min_aspect, expected)
        assert np.isclose(rep.max_aspect, expected)

    def test_kuhn_tetrahedron_aspect(self):
        rep = mesh_quality(build_uniform_mesh(2, dim=3))
        # every Kuhn tetrahedron has edges h, h sqrt 2, h sqrt 3 and faces of
        # total area h^2 (1 + sqrt 2), so an inradius of h / (2 (1 + sqrt 2))
        expected = np.sqrt(3.0) * (1.0 + np.sqrt(2.0))
        assert np.isclose(rep.min_aspect, expected)
        assert np.isclose(rep.max_aspect, expected)

    def test_degenerate_cell_flagged(self, cell16):
        import copy

        bad = copy.deepcopy(cell16)
        bad.cells[5] = [bad.cells[5][0]] * 3
        rep = mesh_quality(bad)
        assert 5 in rep.degenerate_cells


class TestUniformMesh:
    def test_2d_measures(self):
        mesh = build_uniform_mesh(8, dim=2)
        assert abs(mesh.cell_volumes().sum() - 1.0) < 1e-12
        assert len(mesh.cells) == 2 * 64

    def test_3d_measures(self):
        mesh = build_uniform_mesh(3, dim=3)
        assert abs(mesh.cell_volumes().sum() - 1.0) < 1e-12
        assert len(mesh.cells) == 6 * 27


class TestIO:
    def test_vtk_export(self, tmp_path, cell16):
        path = tmp_path / "cell.vtk"
        write_vtk(path, cell16, point_data={"temp": np.zeros(len(cell16.vertices))})
        text = path.read_text()
        assert "UNSTRUCTURED_GRID" in text
        assert "SCALARS phase int" in text


class TestSubmesh:
    def test_phase_split_covers_cell(self, cell16):
        sub_a = extract_phase_submesh(cell16, 0)
        sub_b = extract_phase_submesh(cell16, 1)
        vol = sub_a.mesh.cell_volumes().sum() + sub_b.mesh.cell_volumes().sum()
        assert abs(vol - 1.0) < 1e-10

    def test_inclusion_boundary_is_interface(self, cell16):
        sub_b = extract_phase_submesh(cell16, 1)
        assert len(sub_b.mesh.interface_facets) == len(cell16.interface_facets)
        ids = np.unique(sub_b.mesh.interface_facets)
        rho = np.linalg.norm(sub_b.mesh.vertices[ids] - 0.5, axis=1)
        assert np.max(np.abs(rho - 0.25)) < 1e-10

    def test_matrix_keeps_periodic_pairs(self, cell16):
        sub_a = extract_phase_submesh(cell16, 0)
        assert len(sub_a.mesh.periodic_pairs) == len(cell16.periodic_pairs)
