import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from cell_oracle import (
    ORACLE_TOL,
    PARITY_RTOL,
    assert_max_close,
    cell_context,
    solve_correctors_cg,
)

import thermohom
from thermohom import effective
from thermohom.cell import CellContext, solve_correctors
from thermohom.effective import (
    EffectiveCoefficients,
    EffectiveProvider,
    compute_effective,
    effective_header,
    probe_vectors,
    tabulate_effective,
)
from thermohom.kinematics import (
    IdentityTransform,
    PolynomialAmplitude,
    RadialGrowth,
    default_material,
)
from thermohom.mesh import build_cell_mesh, build_uniform_mesh, _periodic_pairs_from_coords
from thermohom.twoscale import SolverSettings, TwoScaleSolver


def growth(rate=0.1, r=0.25):
    return RadialGrowth(dim=2, inclusion_radius=r,
                        amplitude=PolynomialAmplitude((0.0, rate)))


@pytest.fixture(scope="module")
def provider16():
    mesh = build_cell_mesh(0.25, 16, dim=2)
    ctx = CellContext(mesh, default_material(2), IdentityTransform(dim=2))
    return EffectiveProvider(ctx)


@pytest.fixture(scope="module")
def provider_growth():
    mesh = build_cell_mesh(0.25, 8, dim=2)
    ctx = CellContext(mesh, default_material(2), growth())
    return EffectiveProvider(ctx)


class TestEmptyCellLimit:
    def test_full_cell_reproduces_constituents(self):
        mesh = build_uniform_mesh(8, dim=2)
        mesh.periodic_pairs = _periodic_pairs_from_coords(mesh.vertices)
        mat = default_material(2)
        ctx = CellContext(mesh, mat, IdentityTransform(dim=2))
        eff = EffectiveProvider(ctx, solver_tol=1e-13).at(0.0, np.zeros(2))
        assert np.max(np.abs(eff.stiffness - mat.stiffness_a)) < 1e-10
        assert np.max(np.abs(eff.expansion - mat.expansion_a * np.eye(2))) < 1e-10
        assert np.max(np.abs(eff.conductivity - mat.conductivity_a)) < 1e-10
        assert abs(eff.heat_capacity - mat.density_a * mat.heat_capacity_a) < 1e-10
        assert eff.latent_source == 0.0


class TestPerforatedIdentity:
    def test_structure(self, provider16):
        eff = provider16.at(0.0, np.zeros(2))
        eff.validate(probes=probe_vectors(2))
        assert abs(eff.stiffness[0, 0, 0, 0] - eff.stiffness[1, 1, 1, 1]) < 1e-8
        assert abs(eff.conductivity[0, 1]) < 1e-8

    def test_curvature_force_vanishes_by_symmetry(self, provider16):
        eff = provider16.at(0.0, np.zeros(2))
        assert np.max(np.abs(eff.curvature_force)) < 1e-10

    def test_static_latent_source_vanishes(self, provider16):
        for t in (0.0, 0.4, 1.0):
            eff = provider16.at(t, np.zeros(2))
            assert eff.latent_source == 0.0
            assert eff.interface_speed == 0.0

    def test_voigt_bound_against_matrix_phase(self, provider16):
        # with the identity transformation the bound matrix is |Y_A| K_A exactly
        eff = provider16.at(0.0, np.zeros(2))
        mat_measure_ref = 1.0 - np.pi * 0.25**2
        assert abs(eff.matrix_measure - mat_measure_ref) < 5e-3
        assert np.max(np.abs(eff.voigt_bound - eff.matrix_measure * np.eye(2))) < 1e-12
        for q in probe_vectors(2):
            assert q @ eff.conductivity @ q <= eff.matrix_measure * (q @ q) + 1e-10


class TestRepresentativeInvariance:
    def test_constant_shift_changes_nothing(self, provider16):
        ctx = provider16.ctx
        cors = solve_correctors(ctx, 0.0, np.zeros(2))
        base = compute_effective(ctx, [cors], 0.0, np.zeros((1, 2)))
        cors.thermal[0] = cors.thermal[0] + 3.7
        cors.mechanical[(0, 1)] = cors.mechanical[(0, 1)] + np.tile([0.4, -1.1],
                                                                    ctx.space_a.n_vertices)
        cors.thermal_stress = cors.thermal_stress + np.tile([5.0, 2.0],
                                                            ctx.space_a.n_vertices)
        shifted = compute_effective(ctx, [cors], 0.0, np.zeros((1, 2)))
        for name in ("conductivity", "heat_capacity", "dissipation", "stiffness",
                     "expansion"):
            assert np.max(np.abs(base[name] - shifted[name])) < 1e-10, name


class TestSmallInclusion:
    def test_conductivity_close_to_matrix(self):
        mesh = build_cell_mesh(0.05, 16, dim=2)
        ctx = CellContext(mesh, default_material(2), IdentityTransform(dim=2))
        eff = EffectiveProvider(ctx).at(0.0, np.zeros(2))
        defect = np.linalg.norm(eff.conductivity - np.eye(2), 2)
        assert defect <= 0.02


class TestGrowingInclusion:
    def test_t0_freeze_matches_identity(self, provider16, provider_growth):
        mesh = provider_growth.ctx.mesh
        ctx_id = CellContext(mesh, default_material(2), IdentityTransform(dim=2))
        eff_id = EffectiveProvider(ctx_id).at(0.0, np.zeros(2))
        eff_g = provider_growth.at(0.0, np.zeros(2))
        assert np.max(np.abs(eff_g.stiffness - eff_id.stiffness)) < 1e-10
        assert np.max(np.abs(eff_g.conductivity - eff_id.conductivity)) < 1e-10
        assert abs(eff_g.heat_capacity - eff_id.heat_capacity) < 1e-10
        assert np.max(np.abs(eff_g.dissipation - eff_id.dissipation)) < 1e-10

    def test_matrix_measure_decreases(self, provider_growth):
        measures = [provider_growth.at(t, np.zeros(2)).matrix_measure
                    for t in (0.0, 0.5, 1.0)]
        assert measures[0] > measures[1] > measures[2]

    def test_latent_source_positive_for_growth(self, provider_growth):
        mat = default_material(2)
        eff = provider_growth.at(1.0, np.zeros(2))
        assert eff.interface_speed > 0.0
        assert np.isclose(eff.latent_source, mat.latent_heat * eff.interface_speed)

    def test_structure_holds_under_transformation(self, provider_growth):
        eff = provider_growth.at(1.0, np.zeros(2))
        eff.validate()


def bad_coefficients():
    """A coefficient set at (0.5, (0.25, 0.75)) with an admissible stiffness,
    a non-symmetric indefinite conductivity and a negative heat capacity."""
    eye = np.eye(2)
    return EffectiveCoefficients(
        t=0.5, x=np.array([0.25, 0.75]),
        stiffness=np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye),
        expansion=eye, conductivity=np.array([[1.0, 2.0], [0.0, -1.0]]),
        heat_capacity=-1.0, dissipation=eye, curvature_force=np.zeros(2),
        latent_source=0.0, interface_speed=0.0, source_u=np.zeros(2), source_theta=0.0,
        matrix_measure=0.8, inclusion_measure=0.2, voigt_bound=eye)


class TestValidate:
    def test_violation_names_invariant_and_sample(self):
        with pytest.raises(ValueError, match=r"^effective coefficients at t = 0\.5, "
                           r"x = \[0\.25, 0\.75\]: conductivity not symmetric$"):
            bad_coefficients().validate()

    def test_checks_run_under_optimize(self):
        # the checks are no asserts: `python -O` keeps them
        tests = Path(__file__).resolve().parent
        src = Path(thermohom.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
        run = subprocess.run(
            [sys.executable, "-O", "-c",
             "from test_effective import bad_coefficients; bad_coefficients().validate()"],
            capture_output=True, text=True, env=env, cwd=tests, timeout=120)
        assert run.returncode == 1
        assert "ValueError: effective coefficients at t = 0.5" in run.stderr


class TestTabulation:
    def test_row_count_and_identity_rows(self, provider16):
        times = [0.0, 0.25, 0.5]
        points = [np.array([0.25, 0.25]), np.array([0.75, 0.5])]
        header, rows = tabulate_effective(provider16, times, points)
        assert len(rows) == len(times) * len(points)
        assert len(header) == len(rows[0])
        data = np.array(rows)
        # identity transformation: all physics columns equal across rows
        phys = data[:, 1 + provider16.ctx.dim:]
        spread = np.max(np.abs(phys - phys[0]), axis=0)
        assert np.max(spread) < 1e-10

    def test_growing_measure_column_decreasing(self, provider_growth):
        times = [0.0, 0.5, 1.0]
        header, rows = tabulate_effective(provider_growth, times, [np.zeros(2)])
        col = header.index("matrix_measure")
        vals = [r[col] for r in rows]
        assert vals[0] > vals[1] > vals[2]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", ["identity", "radial_growth", "amplitude_x_slope"])
def test_provider_matches_cg_oracle(dim, name, monkeypatch):
    """EffectiveProvider.at on the block direct solve against the CG oracle,
    at max-norm rtol PARITY_RTOL (1e-9) per quantity.  The oracle replaces
    the provider's batched corrector entry point and must be called."""
    t, x = 0.6, np.array([0.7, 0.2, 0.4])[:dim]
    new = EffectiveProvider(cell_context(dim, name)).at(t, x)
    calls = []

    def oracle(ctx, t, xs, tol=None, fields=None):
        calls.append(len(xs))
        return [solve_correctors_cg(ctx, t, x, tol=ORACLE_TOL) for x in xs]

    monkeypatch.setattr(effective, "solve_correctors_batch", oracle)
    ref = EffectiveProvider(cell_context(dim, name)).at(t, x)
    assert calls == [1]
    for field in ("stiffness", "expansion", "conductivity", "heat_capacity",
                  "dissipation", "curvature_force", "latent_source", "interface_speed",
                  "matrix_measure", "inclusion_measure", "voigt_bound"):
        assert_max_close(np.asarray(getattr(new, field)),
                         np.asarray(getattr(ref, field)), PARITY_RTOL)


class TestProviderCache:
    def test_cache_size_flat_over_graded_growth_run(self):
        tr = RadialGrowth(dim=2, inclusion_radius=0.25,
                          amplitude=PolynomialAmplitude((0.0, 0.1), (0.5, 0.25)))
        ctx = CellContext(build_cell_mesh(0.25, 8, dim=2), default_material(2), tr)
        provider = EffectiveProvider(ctx)
        solver = TwoScaleSolver(build_uniform_mesh(2, dim=2), provider, SolverSettings())
        cache, levels, sizes = provider.geometry, [], []

        def observer(state):
            levels.append(sorted(cache.levels))
            sizes.append([len(level) for level in cache.levels.values()])

        states = solver.run(0.2, 0.01, lambda x: np.cos(np.pi * x[:, 0]), observer=observer)
        assert len(states) == 21
        # the one cache holds the current step pair: t = 0 alone, then the
        # levels before and after the step
        times = [round(s.t, 12) for s in states]
        assert levels == [times[:1]] + [times[n - 1:n + 1] for n in range(1, 21)]
        # the amplitude 0.1 t (1 + (2 x_0 + x_1) / 4) fixes each geometry;
        # the 24 quadrature points take 19 values of 2 x_0 + x_1, and all
        # share the identity at t = 0, so the cache stays flat in the step count
        assert sizes == [[1], [1, 19]] + [[19, 19]] * 19
