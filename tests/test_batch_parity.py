"""Batched level builds against the per-key oracle in ``key_oracle.py``.

The batched builds sum the same element integrals in another order: every
operator's element blocks go straight into the restricted (or reduced and
augmented) matrix, and its sparsity keeps the entries that cancel to zero.
Tolerance, max norm relative to the oracle: ``BATCH_RTOL`` 1e-12 on the
correctors, every effective quantity and every micro map and state, with
more keys than one batch holds in the x-slope cases.  A key's build inside a
batch equals its batch of one bitwise where the operation order is the same,
which is checked on the correctors and the micro maps.
"""

import re

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from key_oracle import PerKeyMicroModel, correctors, effective

from thermohom import fem
from thermohom.cell import CellContext, solve_correctors, solve_correctors_batch
from thermohom.effective import EffectiveProvider
from thermohom.kinematics import (
    BATCH_ELEMENTS,
    BundleError,
    IdentityTransform,
    PolynomialAmplitude,
    RadialGrowth,
    TabulatedTransform,
    default_material,
    sample_key_groups,
)
from thermohom.mesh import build_cell_mesh
from thermohom.twoscale import MicroModel

BATCH_RTOL = 1e-12
T, DT = 0.6, 0.05
FAMILIES = ("identity", "radial_growth", "amplitude_x_slope", "two_anchor_table")
EFFECTIVE_FIELDS = ("stiffness", "expansion", "conductivity", "heat_capacity",
                    "dissipation", "curvature_force", "latent_source", "interface_speed",
                    "matrix_measure", "inclusion_measure", "voigt_bound")


def two_anchor_table(d):
    """Radial growth at rates 0.1 and 0.3 tabulated at two anchors on the
    line x = (., 0.5, ...): the points of each half share a key."""
    anchors = np.array([[0.25] + [0.5] * (d - 1), [0.75] + [0.5] * (d - 1)])
    times, grid_n = np.linspace(0, 1, 11), (41 if d == 2 else 17)
    Y = np.stack(np.meshgrid(*[np.linspace(0.0, 1.0, grid_n)] * d, indexing="ij"),
                 axis=-1).reshape(-1, d)
    vals = np.array([[RadialGrowth(dim=d, inclusion_radius=0.25, boundary_margin=0.1,
                                   amplitude=PolynomialAmplitude((0.0, rate))
                                   ).map_points(t, a, Y)
                      for a, rate in zip(anchors, (0.1, 0.3))] for t in times])
    return TabulatedTransform(d, times, anchors, grid_n, vals, inclusion_radius=0.25,
                              boundary_margin=0.1)


def transformation(family, d):
    if family == "identity":
        return IdentityTransform(dim=d)
    if family == "two_anchor_table":
        return two_anchor_table(d)
    slope = (0.5, 0.25, 0.1)[:d] if family == "amplitude_x_slope" else ()
    return RadialGrowth(dim=d, inclusion_radius=0.25,
                        amplitude=PolynomialAmplitude((0.0, 0.2), slope))


@pytest.fixture(scope="module", params=[(f, d) for d in (2, 3) for f in FAMILIES],
                ids=[f"{f}-{d}d" for d in (2, 3) for f in FAMILIES])
def case(request):
    """A cell context and more macro points than one batch holds on either
    phase (distinct keys with the x slope, both anchors of the table)."""
    family, d = request.param
    mesh = build_cell_mesh(0.25, 8 if d == 2 else 4, dim=d)
    ctx = CellContext(mesh, default_material(d), transformation(family, d))
    n = BATCH_ELEMENTS // len(ctx.space_b.cells) + 2
    xs = np.column_stack([np.linspace(0.1, 0.9, n)] + [np.full(n, 0.5)] * (d - 1))
    return ctx, xs


def assert_close(new, ref, rtol=BATCH_RTOL):
    new, ref = np.asarray(new, dtype=float), np.asarray(ref, dtype=float)
    assert np.max(np.abs(new - ref)) <= rtol * max(np.max(np.abs(ref)), 1e-300)


def test_correctors_match_per_key_oracle(case):
    ctx, xs = case
    batch = solve_correctors_batch(ctx, T, xs)
    for x, new in zip(xs, batch):
        ref = correctors(ctx, T, x)
        for jk, tau in ref.mechanical.items():
            assert_close(new.mechanical[jk], tau)
        assert_close(new.thermal_stress, ref.thermal_stress)
        for a, b in zip(new.thermal, ref.thermal):
            assert_close(a, b)
        assert new.residuals.keys() == ref.residuals.keys()
    # the batch of one
    one = solve_correctors(ctx, T, xs[-1])
    assert all(np.array_equal(one.mechanical[jk], batch[-1].mechanical[jk])
               for jk in one.mechanical)
    assert np.array_equal(one.thermal, batch[-1].thermal)


def test_effective_coefficients_match_per_key_oracle(case):
    ctx, xs = case
    provider = EffectiveProvider(ctx)
    keys = {ctx.transformation.sample_key(T, x) for x in xs}
    if len(keys) > 1:
        assert len(keys) in (2, len(xs))
    for x, new in zip(xs, provider.at_points(T, xs)):
        ref = effective(ctx, correctors(ctx, T, x), T, x)
        for name in EFFECTIVE_FIELDS:
            assert_close(getattr(new, name), ref[name])


def test_micro_maps_and_states_match_per_key_oracle(case):
    ctx, xs = case
    model, oracle = MicroModel(ctx), PerKeyMicroModel(ctx)
    groups = [sample_key_groups(ctx.transformation, s, xs) for s in (T - DT, T)]
    new = model.level_bundles(T, xs, groups[1], DT)
    ref = oracle.level_bundles(T, xs, groups[1], DT)
    for b, r in zip(new, ref):
        assert_close(b["W"], r["W"])
        assert_close(b["c_tr"], r["c_tr"])
        for name in ("content", "l_J", "L_J"):
            assert_close(b[name], r[name])
    # the batch of one
    (one,) = MicroModel(ctx).level_bundles(T, xs[:1], (np.array([0]), np.array([0])), DT)
    assert np.array_equal(one["W"], new[0]["W"])

    d = ctx.dim
    traces_th = 1.0 + np.cos(np.pi * xs[:, 0])
    traces_u = 0.01 * np.sin(np.pi * xs[:, :d])
    fields = [1.0 + x[0] + model.mesh.vertices[:, 0] * model.mesh.vertices[:, 1]
              for x in xs]
    states = [m.initial_states(T - DT, xs, groups[0], traces_th, traces_u, fields)
              for m in (model, oracle)]
    for a, b in zip(*states):
        assert_close(a, b)
    w0, c0, c_tr = model.responses(T, DT, xs, groups[1], states[0][3])
    w0_ref, c0_ref, c_tr_ref = oracle.responses(T, DT, xs, groups[1], states[1][3])
    assert_close(w0, w0_ref)
    assert_close(c0, c0_ref)
    assert_close(c_tr, c_tr_ref)


def graded_points(n_fail):
    """Points along x whose amplitude -10 t (1 + 20 x) is admissible at the
    first ones only: at t = 0.05, g = -0.5 (1 + 20 x) gives det F <= 0 from
    some x on; the point ``n_fail`` is the first such one."""
    n = BATCH_ELEMENTS // 192 + 4
    xs = np.column_stack([np.linspace(0.0, 0.02, n), np.full(n, 0.5)])
    xs[n_fail:, 0] = np.linspace(0.5, 0.9, n - n_fail)
    return xs


def graded_context():
    tr = RadialGrowth(dim=2, inclusion_radius=0.25,
                      amplitude=PolynomialAmplitude((0.0, -10.0), (20.0, 0.0)))
    return CellContext(build_cell_mesh(0.25, 8, dim=2), default_material(2), tr)


@pytest.mark.parametrize("n_fail", [3, BATCH_ELEMENTS // 192 + 2])
def test_failing_key_in_a_batch_is_named(n_fail):
    # in the middle of the first batch, and of the second; the inclusion
    # stays admissible (J = (1 + g)^2 in 2D), so only the matrix phase fails
    ctx, xs = graded_context(), graded_points(n_fail)
    assert len(ctx.space_a.cells) == 192
    at = re.escape(f"at t = 0.05, x = {xs[n_fail].tolist()}:")
    with pytest.raises(BundleError, match=r"cannot build the effective coefficients "
                       + at) as info:
        EffectiveProvider(ctx).at_points(0.05, xs)
    assert info.match(r"det\(F\) = -")


class NanVelocityRightHalf(IdentityTransform):
    """The identity geometry, with a non-finite cell velocity at x > 0.5."""

    def sample_key(self, t, x):
        return ("nan-right", float(np.asarray(x)[0]))

    def kinematics_batch(self, t, x, y):
        F, J, v = super().kinematics_batch(t, x, y)
        bad = np.broadcast_to(np.atleast_2d(x)[:, 0] > 0.5, (len(y),))
        v[bad] = np.nan
        return F, J, v


def test_non_finite_entries_raise_before_any_lu(monkeypatch):
    ctx = CellContext(build_cell_mesh(0.25, 8, dim=2), default_material(2),
                      NanVelocityRightHalf(dim=2))
    xs = np.column_stack([np.linspace(0.1, 0.9, 12), np.full(12, 0.5)])
    first_bad = int(np.argmax(xs[:, 0] > 0.5))
    factored, original = [], spla.splu

    def splu(A, *args, **kwargs):
        factored.append(bool(np.all(np.isfinite(A.data))))
        return original(A, *args, **kwargs)

    monkeypatch.setattr(fem.spla, "splu", splu)
    model = MicroModel(ctx)
    with pytest.raises(BundleError, match="cannot build the micro bundle " + re.escape(
            f"at t = 0.05, x = {xs[first_bad].tolist()}:")) as info:
        model.level_bundles(0.05, xs, sample_key_groups(ctx.transformation, 0.05, xs),
                            0.05)
    assert info.match("non-finite entries")
    assert factored and all(factored)   # the keys before it, one at a time
