"""Coarse-resolution smoke tests of the full pipeline in three dimensions."""

import numpy as np
import pytest
from twoscale_oracle import StaggeredTwoScaleSolver, state_deviation

from thermohom.cell import CellContext
from thermohom.effective import EffectiveProvider
from thermohom.kinematics import PolynomialAmplitude, RadialGrowth, default_material
from thermohom.mesh import build_cell_mesh, build_uniform_mesh
from thermohom.reference import EpsilonSolver, apriori_norm_bundle, two_scale_compare
from thermohom.twoscale import SolverSettings, TwoScaleSolver


@pytest.fixture(scope="module")
def setting():
    cell = build_cell_mesh(0.25, 4, dim=3)
    tr = RadialGrowth(dim=3, inclusion_radius=0.25,
                      amplitude=PolynomialAmplitude((0.0, 0.1)))
    mat = default_material(3)
    return cell, mat, tr


def theta0(x):
    return 1.0 + 0.1 * np.cos(np.pi * x[:, 0])


def test_effective_coefficients(setting):
    cell, mat, tr = setting
    provider = EffectiveProvider(CellContext(cell, mat, tr))
    eff = provider.at(0.2, np.full(3, 0.5))
    eff.validate()
    assert eff.stiffness.shape == (3, 3, 3, 3)
    assert eff.interface_speed > 0.0


def test_two_scale_step(setting):
    cell, mat, tr = setting
    provider = EffectiveProvider(CellContext(cell, mat, tr))
    solver = TwoScaleSolver(build_uniform_mesh(2, dim=3), provider,
                            SolverSettings(micro_per_element=True))
    states = solver.run(0.05, 0.05, theta0)
    assert len(states) == 2
    assert states[-1].mech_residual < 1e-9
    assert np.all(np.isfinite(states[-1].theta))


@pytest.mark.parametrize("per_element", [True, False])
def test_two_scale_step_matches_staggered_loop(setting, per_element):
    # the exact step against the staggered loop at fixed_point_tol = 1e-14
    # (measured at most 3.5e-14)
    cell, mat, tr = setting
    new, ref = (solver(build_uniform_mesh(2, dim=3),
                       EffectiveProvider(CellContext(cell, mat, tr)),
                       SolverSettings(micro_per_element=per_element)).run(0.05, 0.05, theta0)
                for solver in (TwoScaleSolver, StaggeredTwoScaleSolver))
    assert state_deviation(new[-1], ref[-1]) <= 1e-10


def test_resolved_step(setting):
    cell, mat, tr = setting
    solver = EpsilonSolver(cell, mat, tr, 0.5)
    sol = solver.solve(0.05, 0.05, theta0)
    bundle = apriori_norm_bundle(sol)
    assert np.all(np.isfinite(bundle.as_array()))
    assert bundle.linf_theta == pytest.approx(1.0, abs=0.05)


def test_two_scale_compare(setting):
    cell, mat, tr = setting
    rows = two_scale_compare(
        cell, mat, tr, [0.5], 0.05, 0.05, theta0, macro_resolution=2,
        settings=SolverSettings(micro_per_element=True))
    assert len(rows) == 1
    row = rows[0]
    assert np.isfinite([row.error_matrix, row.error_inclusion]).all()
    # the floor compares the resolved-mesh interpolant of the macro field with
    # the field itself; each resolved element lies in one macro tetrahedron
    # here, where both are affine, so it is at round-off level
    assert row.interp_floor < 1e-12
