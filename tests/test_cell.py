import numpy as np
import pytest
from cell_oracle import ORACLE_TOL, assert_max_close, cell_context, solve_correctors_cg
from helpers import mean_over_matrix

from thermohom.cell import CellContext, solve_correctors
from thermohom.fem import SolverError, assemble_operator
from thermohom.kinematics import (
    IdentityTransform,
    PolynomialAmplitude,
    RadialGrowth,
    default_material,
)
from thermohom.mesh import Mesh, build_cell_mesh, build_uniform_mesh


@pytest.fixture(scope="module")
def ctx16():
    mesh = build_cell_mesh(0.25, 16, dim=2)
    return CellContext(mesh, default_material(2), IdentityTransform(dim=2))


def full_periodic_cell(n):
    """Uniform periodic mesh of the whole cell, no inclusion: all matrix phase."""
    mesh = build_uniform_mesh(n, dim=2)
    from thermohom.mesh import _periodic_pairs_from_coords

    mesh.periodic_pairs = _periodic_pairs_from_coords(mesh.vertices)
    return mesh


class TestEmptyInclusion:
    def test_constant_coefficients_give_zero_correctors(self):
        mesh = full_periodic_cell(8)
        ctx = CellContext(mesh, default_material(2), IdentityTransform(dim=2))
        cors = solve_correctors(ctx, 0.0, np.zeros(2))
        for f in cors.mechanical.values():
            assert np.max(np.abs(f)) < 1e-9
        assert np.max(np.abs(cors.thermal_stress)) < 1e-9
        for f in cors.thermal:
            assert np.max(np.abs(f)) < 1e-9


class TestPerforatedCell:
    def test_zero_mean_and_residuals(self, ctx16):
        cors = solve_correctors(ctx16, 0.0, np.zeros(2))
        space = ctx16.space_a
        for f in cors.thermal:
            assert abs(mean_over_matrix(space, f)) < 1e-10
        for f in cors.mechanical.values():
            for c in range(2):
                assert abs(mean_over_matrix(space, f[c::2])) < 1e-10
        assert all(r <= 1e-10 for r in cors.residuals.values())

    def test_periodic_traces_match(self, ctx16):
        cors = solve_correctors(ctx16, 0.0, np.zeros(2))
        pairs = ctx16.sub_a.mesh.periodic_pairs
        f = cors.thermal[0]
        assert np.max(np.abs(f[pairs[:, 0]] - f[pairs[:, 1]])) < 1e-12

    def test_shear_corrector_antisymmetric_under_reflection(self, ctx16):
        # swapping coordinates maps the (0,1) cell problem onto itself
        cors = solve_correctors(ctx16, 0.0, np.zeros(2))
        tau = cors.mechanical[(0, 1)].reshape(-1, 2)
        verts = ctx16.sub_a.mesh.vertices
        order = np.lexsort((verts[:, 1], verts[:, 0]))
        swapped = np.lexsort((verts[:, 0], verts[:, 1]))
        # tau_12 under (x, y) -> (y, x): components swap; solution invariant
        defect = tau[order][:, [1, 0]] - tau[swapped]
        assert np.max(np.abs(defect)) < 1e-8

    def test_thermal_corrector_coordinate_symmetry(self, ctx16):
        cors = solve_correctors(ctx16, 0.0, np.zeros(2))
        verts = ctx16.sub_a.mesh.vertices
        order = np.lexsort((verts[:, 1], verts[:, 0]))
        swapped = np.lexsort((verts[:, 0], verts[:, 1]))
        defect = cors.thermal[0][order] - cors.thermal[1][swapped]
        assert np.max(np.abs(defect)) < 1e-8

    def test_galerkin_orthogonality(self, ctx16):
        fields = ctx16.matrix_fields(0.0, np.zeros(2))
        cors = solve_correctors(ctx16, 0.0, np.zeros(2), fields=fields)
        stiffness = fields["stiffness"][0]
        mech, pads = cors.mechanical, cors.pads
        from thermohom.fem import assemble_strain_load

        space = ctx16.space_a
        A = assemble_operator(ctx16.sub_a.mesh, "elasticity", stiffness,
                              space=space)
        rng = np.random.default_rng(9)
        pairs = ctx16.periodic_vector
        for (j, k), tau in mech.items():
            S = np.einsum("eqabcd,cd->eqab", stiffness, pads[(j, k)])
            resid = A @ tau + assemble_strain_load(space, S)
            # residual must vanish against periodic zero-mean test fields
            scale = np.linalg.norm(A @ tau) + np.linalg.norm(resid) + 1e-30
            for _ in range(20):
                v = rng.standard_normal(space.n_vector)
                v[pairs[:, 0]] = v[pairs[:, 1]]
                for c in range(2):
                    w = ctx16.vector_weights[c]
                    v -= w * (w @ v) / (w @ w)
                assert abs(resid @ v) / (scale * np.linalg.norm(v)) < 1e-9

    def test_identity_transform_time_freeze(self, ctx16):
        c0 = solve_correctors(ctx16, 0.0, np.zeros(2))
        c1 = solve_correctors(ctx16, 0.7, np.array([0.3, 0.4]))
        assert np.max(np.abs(c0.thermal[0] - c1.thermal[0])) < 1e-9
        assert np.max(np.abs(c0.mechanical[(0, 0)] - c1.mechanical[(0, 0)])) < 1e-9


class TestTransformedCell:
    def test_growth_changes_correctors(self):
        mesh = build_cell_mesh(0.25, 8, dim=2)
        tr = RadialGrowth(dim=2, inclusion_radius=0.25,
                          amplitude=PolynomialAmplitude((0.0, 0.2)))
        ctx = CellContext(mesh, default_material(2), tr)
        c0 = solve_correctors(ctx, 0.0, np.zeros(2))
        c1 = solve_correctors(ctx, 1.0, np.zeros(2))
        assert np.max(np.abs(c1.thermal[0] - c0.thermal[0])) > 1e-6


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", ["identity", "radial_growth", "amplitude_x_slope"])
class TestBlockSolveParity:
    def test_correctors_match_cg_oracle(self, dim, name):
        ctx = cell_context(dim, name)
        t, x = 0.6, np.array([0.7, 0.2, 0.4])[:dim]
        new = solve_correctors(ctx, t, x)
        ref = solve_correctors_cg(ctx, t, x, tol=ORACLE_TOL)
        assert new.residuals.keys() == ref.residuals.keys()
        assert all(r <= 1e-10 for r in new.residuals.values())
        for jk, tau in ref.mechanical.items():
            assert_max_close(new.mechanical[jk], tau)
        assert_max_close(new.thermal_stress, ref.thermal_stress)
        for a, b in zip(new.thermal, ref.thermal):
            assert_max_close(a, b)


class TestBlockSolveTolerance:
    def test_unreachable_tolerance_names_t_and_x(self, ctx16):
        with pytest.raises(SolverError, match=r"t=0\.25, x=\[0\.5, 0\.125\]"):
            solve_correctors(ctx16, 0.25, np.array([0.5, 0.125]), tol=1e-30)
