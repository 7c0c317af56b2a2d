"""Acceptance suite: every criterion at its stated tolerance, one per test.

Each test prints a single ``[acceptance] criterion N (name): PASS`` line on
success (visible with ``pytest -s`` / ``-v``); tolerances and runtime budgets
are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from thermohom.cell import CellContext
from thermohom.effective import EffectiveProvider, probe_vectors
from thermohom.fem import (
    ConstraintSet,
    P1Space,
    apply_constraints,
    assemble_operator,
    assemble_scalar_load,
    assemble_vector_load,
    solve_spd,
)
from thermohom.kinematics import (
    IdentityTransform,
    PolynomialAmplitude,
    RadialGrowth,
    default_material,
    interface_batch,
    pullback_fields,
    PHASE_A,
    PHASE_B,
)
from thermohom.mesh import build_cell_mesh, build_uniform_mesh
from thermohom.reference import (
    EpsilonSolver,
    apriori_norm_bundle,
    operator_structure_checks,
    two_scale_compare,
)
from thermohom.twoscale import SolverSettings, TwoScaleSolver

# ---------------------------------------------------------------------------
# standard verification configuration (matches configs/standard.cfg)

RADIUS = 0.25
CELL_RESOLUTION = 8
GROWTH_RATE = 0.1
T_FINAL = 0.5
DT = 0.05


def standard_material():
    return default_material(2, expansion_a=0.3, dissipation_a=0.15)


def standard_transform(rate=GROWTH_RATE):
    return RadialGrowth(dim=2, inclusion_radius=RADIUS,
                        amplitude=PolynomialAmplitude((0.0, rate)))


def standard_sources():
    return lambda t: (np.array([3.0, 1.5]), np.zeros(2), 0.0, 0.0)


def standard_theta0(x):
    return 1.0 + 0.5 * np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])


def report(number, name):
    print(f"\n[acceptance] criterion {number} ({name}): PASS")


# ---------------------------------------------------------------------------


class TestCriterion01KinematicsOracle:
    def test_finite_difference_gradient(self):
        start = time.monotonic()
        tr = RadialGrowth(dim=2, inclusion_radius=RADIUS,
                          amplitude=PolynomialAmplitude((0.0, 0.3, -0.1)))
        rng = np.random.default_rng(101)
        n = 1000
        t = rng.uniform(0.0, 1.0, n)
        x = rng.uniform(0.0, 1.0, (n, 2))
        y = 0.5 + rng.uniform(-0.49, 0.49, (n, 2))
        h = 1e-5
        worst = 0.0
        for k in range(n):
            F, J, v = tr.kinematics_batch(t[k], x[k], y[k][None, :])
            F_fd = np.empty((2, 2))
            for c in range(2):
                e = np.zeros(2)
                e[c] = h
                sp = tr.map_points(t[k], x[k], (y[k] + e)[None, :])[0]
                sm = tr.map_points(t[k], x[k], (y[k] - e)[None, :])[0]
                F_fd[:, c] = (sp - sm) / (2.0 * h)
            worst = max(worst, np.max(np.abs(F[0] - F_fd)) / np.max(np.abs(F_fd)))
        elapsed = time.monotonic() - start
        assert worst < 1e-6, f"worst relative gradient error {worst:.3e}"
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
        report(1, "kinematics oracle")


class TestCriterion02InitialFreeze:
    """The map is the identity at t = 0, so every deformation-state
    coefficient equals its static value; velocity-type quantities freeze too
    once the amplitude starts with zero rate."""

    def _check(self, growth, mat, include_rate_quantities):
        identity = IdentityTransform(dim=2, inclusion_radius=RADIUS)
        rng = np.random.default_rng(7)
        x = np.array([0.3, 0.6])
        state_fields = ["stiffness", "expansion", "conductivity", "dissipation"]
        if include_rate_quantities:
            state_fields.append("velocity")
        for _ in range(20):
            y = 0.5 + rng.uniform(-0.49, 0.49, 2)
            for phase in (PHASE_A, PHASE_B):
                tc_g, tc_i = (pullback_fields(*tr.kinematics_batch(0.0, x, y[None]), mat, phase)
                              for tr in (growth, identity))
                for name in state_fields:
                    assert np.max(np.abs(tc_g[name][0] - tc_i[name][0])) < 1e-10
                assert abs(tc_g["heat_capacity"][0] - tc_i["heat_capacity"][0]) < 1e-10
        for ang in np.linspace(0.0, 2 * np.pi, 9, endpoint=False):
            y = 0.5 + RADIUS * np.array([np.cos(ang), np.sin(ang)])
            n0 = np.array([np.cos(ang), np.sin(ang)])
            _, W_g, H_g, _, _ = interface_batch(growth, 0.0, x, y, n0)
            _, W_i, H_i, _, _ = interface_batch(identity, 0.0, x, y, n0)
            assert abs(H_g[0] - H_i[0]) < 1e-10
            if include_rate_quantities:
                assert abs(W_g[0] - W_i[0]) < 1e-10

        cell = build_cell_mesh(RADIUS, CELL_RESOLUTION, dim=2)
        eff_g = EffectiveProvider(CellContext(cell, mat, growth)).at(0.0, x)
        eff_i = EffectiveProvider(CellContext(cell, mat, identity)).at(0.0, x)
        names = ["stiffness", "expansion", "conductivity", "dissipation",
                 "curvature_force", "voigt_bound"]
        for name in names:
            assert np.max(np.abs(np.asarray(getattr(eff_g, name))
                                 - np.asarray(getattr(eff_i, name)))) < 1e-10
        assert abs(eff_g.heat_capacity - eff_i.heat_capacity) < 1e-10
        assert abs(eff_g.matrix_measure - eff_i.matrix_measure) < 1e-10
        if include_rate_quantities:
            assert abs(eff_g.latent_source - eff_i.latent_source) < 1e-10

    def test_transformed_and_effective_coefficients(self):
        mat = standard_material()
        # standard family: all deformation-state coefficients freeze
        self._check(standard_transform(), mat, include_rate_quantities=False)
        # zero initial rate: velocity quantities freeze as well
        slow = RadialGrowth(dim=2, inclusion_radius=RADIUS,
                            amplitude=PolynomialAmplitude((0.0, 0.0, 0.1)))
        self._check(slow, mat, include_rate_quantities=True)
        report(2, "t = 0 / identity freeze")


class TestCriterion03EffectiveStructure:
    def test_structure_at_working_resolution(self):
        start = time.monotonic()
        cell = build_cell_mesh(RADIUS, 16, dim=2)
        mat = standard_material()
        provider = EffectiveProvider(
            CellContext(cell, mat, IdentityTransform(dim=2, inclusion_radius=RADIUS)))
        eff = provider.at(0.0, np.zeros(2))

        C = eff.stiffness
        defect = max(
            np.max(np.abs(C - np.einsum("ijkl->jikl", C))),
            np.max(np.abs(C - np.einsum("ijkl->ijlk", C))),
            np.max(np.abs(C - np.einsum("ijkl->klij", C))),
        )
        assert defect < 1e-10
        from thermohom.kinematics import mandel_matrix

        assert np.linalg.eigvalsh(mandel_matrix(C)).min() > 0.0
        K = eff.conductivity
        assert np.max(np.abs(K - K.T)) < 1e-10
        assert np.linalg.eigvalsh(K).min() > 0.0
        for q in probe_vectors(2, n_random=20):
            assert q @ K @ q <= eff.matrix_measure * (q @ mat.conductivity_a @ q) + 1e-10
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 1 min"
        report(3, "effective tensor structure")


class TestCriterion04SelfConvergence:
    # frozen refined-mesh oracle: scripts/compute_oracles.py with
    # radius 0.25, lambda = mu = 1, identity transformation, resolution 64
    ORACLE_CONDUCTIVITY_11 = 0.67179507513618775
    ORACLE_STIFFNESS_1111 = 1.7933945485711102

    def test_working_resolution_within_one_percent(self):
        cell = build_cell_mesh(RADIUS, 16, dim=2)
        provider = EffectiveProvider(
            CellContext(cell, default_material(2),
                        IdentityTransform(dim=2, inclusion_radius=RADIUS)))
        eff = provider.at(0.0, np.zeros(2))
        gap_k = abs(eff.conductivity[0, 0] - self.ORACLE_CONDUCTIVITY_11) \
            / self.ORACLE_CONDUCTIVITY_11
        gap_c = abs(eff.stiffness[0, 0, 0, 0] - self.ORACLE_STIFFNESS_1111) \
            / self.ORACLE_STIFFNESS_1111
        assert gap_k < 0.01, f"conductivity gap {gap_k:.4%}"
        assert gap_c < 0.01, f"stiffness gap {gap_c:.4%}"
        report(4, "effective self-convergence")


class TestCriterion05FemVerification:
    def test_manufactured_orders(self):
        start = time.monotonic()

        def poisson_error(n):
            mesh = build_uniform_mesh(n, dim=2)
            A = assemble_operator(mesh, "scalar_diffusion", np.eye(2))
            space = P1Space(mesh)
            f = lambda p: 2.0 * np.pi**2 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
            b = assemble_scalar_load(space, f)
            red = apply_constraints(
                A, b, ConstraintSet.dirichlet_only(
                    np.flatnonzero(mesh.boundary_vertex_mask())))
            x_r, _ = solve_spd(red.matrix, red.rhs, tol=1e-12)
            uh = red.recover(x_r)
            vals = np.einsum("qi,ei->eq", space.shape_values, uh[space.cells])
            pts = space.qpoints.reshape(-1, 2)
            uex = (np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])).reshape(
                vals.shape)
            return np.sqrt(np.einsum("eq,q,e->", (vals - uex) ** 2, space.qweights,
                                     space.volumes))

        def elasticity_error(n):
            from thermohom.kinematics import isotropic_stiffness

            lam = mu = 1.0
            mesh = build_uniform_mesh(n, dim=2)
            A = assemble_operator(mesh, "elasticity", isotropic_stiffness(lam, mu, 2))
            space = P1Space(mesh)

            def load(p):
                x, yx = p[:, 0], p[:, 1]
                sx, sy = np.sin(np.pi * x), np.sin(np.pi * yx)
                cx, cy = np.cos(np.pi * x), np.cos(np.pi * yx)
                uxx = -np.pi**2 * sx * sy
                uxy = np.pi**2 * cx * cy
                f = -((lam + 3 * mu) * uxx + (lam + mu) * uxy)
                return np.stack([f, f], axis=1)

            b = assemble_vector_load(space, load)
            red = apply_constraints(
                A, b, ConstraintSet.dirichlet_only(
                    np.flatnonzero(np.repeat(mesh.boundary_vertex_mask(), 2))))
            x_r, _ = solve_spd(red.matrix, red.rhs, tol=1e-12)
            uh = red.recover(x_r)
            vals = np.einsum("qi,eid->eqd", space.shape_values,
                             uh.reshape(-1, 2)[space.cells])
            pts = space.qpoints.reshape(-1, 2)
            s = np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
            uex = np.stack([s, s], axis=1).reshape(vals.shape)
            return np.sqrt(np.einsum("eqd,q,e->", (vals - uex) ** 2,
                                     space.qweights, space.volumes))

        ns = (8, 16, 32)
        for solver_error in (poisson_error, elasticity_error):
            errors = [solver_error(n) for n in ns]
            order = -np.polyfit(np.log(ns), np.log(errors), 1)[0]
            assert order == pytest.approx(2.0, abs=0.2), f"observed order {order}"
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 min"
        report(5, "manufactured-solution orders")


class TestCriterion06OperatorStructure:
    def test_discrete_operator_structure(self):
        start = time.monotonic()
        cell = build_cell_mesh(RADIUS, CELL_RESOLUTION, dim=2)
        for eps in (0.5, 0.25):
            rep = operator_structure_checks(
                cell, standard_material(), standard_transform(), eps,
                t_samples=(0.0, 0.25, 0.5), n_random=100,
            )
            assert rep.elastic_min_rayleigh > 0.0
            assert rep.composition_symmetry_defect < 1e-8, rep.summary()
            assert rep.composition_min_quadform > -1e-10, rep.summary()
            assert np.isfinite(rep.time_difference_bound)
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 min"
        report(6, "operator structure")


class TestCriterion07AprioriUniformity:
    def test_norm_bundles_do_not_grow(self):
        start = time.monotonic()
        cell = build_cell_mesh(RADIUS, CELL_RESOLUTION, dim=2)
        bundles = {}
        for eps in (0.5, 0.125):
            solver = EpsilonSolver(cell, standard_material(), standard_transform(),
                                   eps, sources=standard_sources())
            sol = solver.solve(T_FINAL, DT, standard_theta0)
            bundles[eps] = apriori_norm_bundle(sol).as_array()
        coarse, fine = bundles[0.5], bundles[0.125]
        for name, c, f in zip(
                ("linf_theta", "grad_theta_A", "eps_grad_theta_B", "linf_u",
                 "linf_grad_u_A", "eps_linf_grad_u_B"), coarse, fine):
            assert f <= 1.5 * c + 1e-8, f"{name}: {f:.6g} > 1.5 * {c:.6g}"
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"runtime {elapsed:.1f}s exceeds 10 min"
        report(7, "a priori eps-uniformity")


class TestCriterion08TwoScaleConvergence:
    def test_errors_strictly_decrease(self):
        start = time.monotonic()
        cell = build_cell_mesh(RADIUS, CELL_RESOLUTION, dim=2)
        eps_list = [0.5, 0.25, 0.125]

        decoupled = default_material(
            2, expansion_a=0.0, expansion_b=0.0, dissipation_a=0.0,
            dissipation_b=0.0, surface_tension=0.0, latent_heat=0.0)
        rows_d = two_scale_compare(
            cell, decoupled, IdentityTransform(dim=2, inclusion_radius=RADIUS),
            eps_list, T_FINAL, DT, standard_theta0, macro_resolution=8)
        errs = [r.error_matrix for r in rows_d]
        assert errs[0] > errs[1] > errs[2], f"decoupled errors {errs}"

        rows_c = two_scale_compare(
            cell, standard_material(), standard_transform(), eps_list,
            T_FINAL, DT, standard_theta0, macro_resolution=8,
            sources=standard_sources())
        errs_c = [r.error_matrix for r in rows_c]
        assert errs_c[0] > errs_c[1] > errs_c[2], f"coupled errors {errs_c}"
        elapsed = time.monotonic() - start
        assert elapsed < 900.0, f"runtime {elapsed:.1f}s exceeds 15 min"
        report(8, "two-scale convergence")


class TestCriterion09Conservation:
    def test_heat_content_drift(self):
        cell = build_cell_mesh(RADIUS, CELL_RESOLUTION, dim=2)
        mat = default_material(2, dissipation_a=0.0, dissipation_b=0.0,
                               latent_heat=0.0, surface_tension=0.0)
        provider = EffectiveProvider(
            CellContext(cell, mat, IdentityTransform(dim=2, inclusion_radius=RADIUS)))
        solver = TwoScaleSolver(
            build_uniform_mesh(6, dim=2), provider,
            SolverSettings(fixed_point_tol=1e-12))
        state = solver.init_state(standard_theta0)
        previous = state.heat_content
        worst = 0.0
        for _ in range(100):
            state = solver.macro_step(state, 0.02)
            drift = abs(state.heat_content - previous) / abs(previous)
            worst = max(worst, drift)
            assert drift < 1e-10, f"per-step drift {drift:.3e}"
            previous = state.heat_content
        report(9, f"conservation (worst drift {worst:.2e})")


class TestCriterion10Determinism:
    def test_bitwise_identical_artifacts_across_workers(self, tmp_path):
        from thermohom.cli import main

        cfg_text = f"""\
[run]
dimension = 2
radius = 0.25
cell_resolution = 8
macro_resolution = 4
eps_list = 1/2

[transformation]
family = radial_growth
amplitude_poly = 0.0 {GROWTH_RATE}

[material]
expansion_a = 0.3
dissipation_a = 0.15

[time]
t_final = 0.1
dt = 0.05

[sources]
f_u_a = 3.0 1.5
theta0 = cosine 1.0 0.5 1 1

[output]
directory = {tmp_path / 'out'}
"""
        cfg = tmp_path / "determinism.cfg"
        cfg.write_text(cfg_text)
        for sub, artifact in (("compare", "compare.csv"),
                              ("macro", "diagnostics.csv"),
                              ("effective", "effective.csv")):
            outs = []
            for tag, workers in (("w1", "1"), ("w4", "4")):
                out = tmp_path / f"{sub}_{tag}"
                assert main([sub, "--config", str(cfg), "--out", str(out),
                             "--workers", workers]) == 0
                outs.append((out / artifact).read_bytes())
            assert outs[0] == outs[1], f"{sub}: artifacts differ across workers"
        report(10, "determinism")
