"""Parity of EpsilonSolver (one pullback and one set of element blocks per
sample key on the unit cell, gathered per epsilon element and summed through
the cached pattern, the advective dissipation built as a matrix the same
way, one minimum-degree direct solve per heat system) with the per-phase,
per-quadrature-point oracle in ``reference_oracle.py`` and its CG-else-COLAMD
heat path.

Tolerances, max norm relative to the oracle: 1e-12 on every bundle operator
and load, whose entries differ only in the order of their sums and in the
rounding of the cell coordinates against the tiled vertices; 1e-10 on the
temperature and deformation of every step up to the third, well below the
fixed-point tolerance of 1e-8, with the same number of fixed-point
iterations in every step.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from reference_oracle import OracleEpsilonSolver
from thermohom.kinematics import (
    IdentityTransform,
    PolynomialAmplitude,
    RadialGrowth,
    TabulatedTransform,
    default_material,
)
from thermohom.mesh import build_cell_mesh
from thermohom.reference import EpsilonSolver

OPERATOR_RTOL = 1e-12
FIELD_RTOL = 1e-10
DT, STEPS = 0.05, 3
OPERATORS = ("M_c", "A_K", "E", "G_alpha", "G_gamma", "N")
LOADS = ("mech_surface", "heat_surface", "f_theta", "f_u")
MESHES = {2: dict(eps=0.25, resolution=8), 3: dict(eps=0.5, resolution=4)}


def two_anchor_table():
    """Radial growth at rates 0.1 and 0.3 tabulated at the anchors (0.25, 0.5)
    and (0.75, 0.5): the tiles of each half of the unit square share a key."""
    anchors, times, grid_n = np.array([[0.25, 0.5], [0.75, 0.5]]), np.linspace(0, 1, 11), 41
    Y = np.stack(np.meshgrid(*[np.linspace(0.0, 1.0, grid_n)] * 2, indexing="ij"),
                 axis=-1).reshape(-1, 2)
    vals = np.array([[RadialGrowth(dim=2, inclusion_radius=0.25, boundary_margin=0.1,
                                   amplitude=PolynomialAmplitude((0.0, rate))
                                   ).map_points(t, a, Y)
                      for a, rate in zip(anchors, (0.1, 0.3))] for t in times])
    return TabulatedTransform(2, times, anchors, grid_n, vals, inclusion_radius=0.25,
                              boundary_margin=0.1)


def transformation(family, d):
    if family == "identity":
        return IdentityTransform(dim=d)
    if family == "two_anchor_table":
        return two_anchor_table()
    # a slope along x only: tiles in one column share a key, columns differ
    slope = (0.5,) + (0.0,) * (d - 1) if family == "amplitude_x_slope" else ()
    return RadialGrowth(dim=d, inclusion_radius=0.25,
                        amplitude=PolynomialAmplitude((0.0, 0.1), slope))


def sources(d):
    f_u_a, f_u_b = np.linspace(0.3, -0.2, d), np.linspace(-0.1, 0.4, d)
    return lambda t: (f_u_a, f_u_b, 0.5, -0.7)


def theta0(x):
    return 1.0 + 0.1 * np.cos(np.pi * x[:, 0])


def relative(a, b):
    diff = abs(a - b).max() if sp.issparse(a) else np.max(np.abs(a - b))
    scale = abs(b).max() if sp.issparse(b) else np.max(np.abs(b))
    return diff / (scale if scale > 0 else 1.0)


FAMILIES = ("identity", "radial_growth", "amplitude_x_slope")
# a per-tile pullback of a table with one anchor per half of the domain
ALL_CASES = [(f, d) for d in (2, 3) for f in FAMILIES] + [("two_anchor_table", 2)]
# a three-step 3D solve pair takes about 40 s, mostly in the SuperLU
# factorizations and solves that both sides run alike; in 3D the fields are
# compared on the slope case, which has several keys and the advective path;
# the two-anchor table drives a per-tile velocity through N and A_gamma
FIELD_CASES = [(f, 2) for f in FAMILIES] + [("amplitude_x_slope", 3),
                                            ("two_anchor_table", 2)]


def case_id(case):
    return f"{case[0]}-{case[1]}d"


@pytest.fixture(scope="module")
def pair(request):
    family, d = request.param
    cell = build_cell_mesh(0.25, MESHES[d]["resolution"], dim=d)
    args = (cell, default_material(d), transformation(family, d), MESHES[d]["eps"])
    return (family, EpsilonSolver(*args, sources=sources(d)),
            OracleEpsilonSolver(*args, sources=sources(d)))


@pytest.mark.parametrize("pair", ALL_CASES, indirect=True, ids=case_id)
def test_bundles_match_oracle(pair):
    family, solver, oracle = pair
    rng = np.random.default_rng(5)
    times = (0.0, DT, STEPS * DT) if solver.mesh.dim == 2 else (STEPS * DT,)
    for t in times:
        got, ref = solver.bundle(t), oracle.bundle(t)
        for name in OPERATORS + LOADS:
            assert relative(got[name], ref[name]) <= OPERATOR_RTOL, (name, t)
        for _ in range(2):
            u = rng.standard_normal(solver.space.n_vector)
            assert relative(got["A_gamma"] @ u, oracle.advective_dissipation_load(ref, u)
                            ) <= OPERATOR_RTOL, t
        advective = [abs(b["N"]).max() > 0.0 for b in (got, ref)]
        assert advective == [family != "identity"] * 2


@pytest.mark.parametrize("pair", FIELD_CASES, indirect=True, ids=case_id)
def test_fields_after_three_steps_match_oracle(pair):
    _, solver, oracle = pair
    got = solver.solve(STEPS * DT, DT, theta0)
    ref_theta, ref_u, ref_counts = oracle.solve_fields(STEPS * DT, DT, theta0)
    assert len(got.theta) == len(ref_theta) == STEPS + 1
    assert got.fixed_point_iterations == ref_counts
    for k in range(STEPS + 1):
        assert relative(got.theta[k], ref_theta[k]) <= FIELD_RTOL, k
        assert relative(got.u[k], ref_u[k]) <= FIELD_RTOL, k


@pytest.mark.parametrize("pair", ALL_CASES, indirect=True, ids=case_id)
def test_slope_tiles_have_distinct_and_shared_keys(pair):
    family, solver, _ = pair
    keys = [solver.transformation.sample_key(DT, x) for x in solver.coeffs.anchors]
    n_keys = len(set(keys))
    if family == "amplitude_x_slope":
        assert 1 < n_keys < len(keys)
    else:
        assert n_keys == (2 if family == "two_anchor_table" else 1)
