import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermohom.fem import P1Space
from thermohom.kinematics import (
    IdentityTransform,
    InadmissibleTransformError,
    LevelCache,
    MaterialParams,
    PolynomialAmplitude,
    QuinticCutoff,
    RadialGrowth,
    TabulatedTransform,
    default_material,
    interface_batch,
    isotropic_stiffness,
    key_groups,
    mandel_matrix,
    pullback_fields,
    sample_key_groups,
    scaled_coefficients,
    validate_admissibility,
    PHASE_A,
    PHASE_B,
)
from thermohom.mesh import build_cell_mesh, build_uniform_mesh


def radial_growth(dim=2, coeffs=(0.0, 0.1), r=0.25, margin=0.1):
    return RadialGrowth(
        dim=dim,
        inclusion_radius=r,
        amplitude=PolynomialAmplitude(coeffs),
        boundary_margin=margin,
    )


def fd_gradient(tr, t, x, y, h=1e-5):
    d = tr.dim
    F = np.empty((d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        sp = tr.map_points(t, x, (y + e)[None, :])[0]
        sm = tr.map_points(t, x, (y - e)[None, :])[0]
        F[:, k] = (sp - sm) / (2.0 * h)
    return F


def kinematics_at(tr, t, x, y):
    """F, J and v at the single cell point y."""
    F, J, v = tr.kinematics_batch(t, x, np.atleast_2d(y))
    return F[0], J[0], v[0]


def interface_at(tr, t, x, y, n0):
    """Unit normal, normal velocity and mean curvature at the single
    interface point y with reference normal n0."""
    n, W, H, _, _ = interface_batch(tr, t, x, y, n0)
    return n[0], W[0], H[0]


def fields_at(tr, mat, phase, t, x, y):
    """:func:`pullback_fields` at the single cell point y."""
    fields = pullback_fields(*tr.kinematics_batch(t, x, np.atleast_2d(y)), mat, phase)
    return {name: a[0] for name, a in fields.items()}


class TestEvalKinematics:
    def test_identity(self):
        tr = IdentityTransform(dim=2)
        F, J, v = kinematics_at(tr, 0.3, np.array([0.2, 0.7]), np.array([0.4, 0.6]))
        assert np.allclose(F, np.eye(2))
        assert J == 1.0
        assert np.allclose(v, 0.0)

    def test_uniform_growth_inside_plateau(self):
        # where the cutoff is identically one the map is a pure dilation
        tr = radial_growth(coeffs=(0.0, 1.0))
        y = np.array([0.5, 0.5 + 0.2])  # rho = 0.2 < plateau
        F, J, v = kinematics_at(tr, 0.1, np.zeros(2), y)
        assert np.allclose(F, 1.1 * np.eye(2), atol=1e-14)
        assert np.isclose(J, 1.21)
        assert np.allclose(v, 1.0 * (y - 0.5))

    def test_matches_finite_differences_where_cutoff_varies(self):
        tr = radial_growth(coeffs=(0.0, 0.5))
        t, x = 0.4, np.array([0.3, 0.1])
        y = np.array([0.5 + 0.38, 0.5 + 0.05])  # inside the cutoff blend
        F, _, _ = kinematics_at(tr, t, x, y)
        F_fd = fd_gradient(tr, t, x, y)
        assert np.max(np.abs(F - F_fd)) / np.max(np.abs(F_fd)) < 1e-6

    def test_rejects_point_outside_cell(self):
        tr = radial_growth()
        with pytest.raises(InadmissibleTransformError):
            kinematics_at(tr, 0.0, np.zeros(2), np.array([1.2, 0.5]))

    def test_rejects_degenerate_determinant(self):
        tr = radial_growth(coeffs=(0.0, -1.0))
        with pytest.raises(InadmissibleTransformError):
            kinematics_at(tr, 1.0, np.zeros(2), np.array([0.5, 0.6]))

    def test_determinant_equals_det_of_gradient(self):
        tr = radial_growth(coeffs=(0.0, 0.3, -0.1), r=0.2)
        rng = np.random.default_rng(3)
        pts = 0.5 + 0.49 * (rng.random((200, 2)) * 2.0 - 1.0)
        F, J, _ = tr.kinematics_batch(0.7, np.array([0.5, 0.5]), pts)
        assert np.max(np.abs(J - np.linalg.det(F))) < 1e-12


class TestEvalInterface:
    def test_identity_circle_curvature(self):
        tr = IdentityTransform(dim=2, inclusion_radius=0.25)
        y = np.array([0.75, 0.5])
        n0 = np.array([1.0, 0.0])
        n, W, H = interface_at(tr, 0.0, np.zeros(2), y, n0)
        assert np.isclose(H, -4.0)
        assert W == 0.0
        assert np.allclose(n, n0)

    def test_identity_sphere_curvature(self):
        tr = IdentityTransform(dim=3, inclusion_radius=0.25)
        y = np.array([0.5, 0.5, 0.75])
        n0 = np.array([0.0, 0.0, 1.0])
        _, _, H = interface_at(tr, 0.0, np.zeros(3), y, n0)
        assert np.isclose(H, -8.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_identity_fields_are_exact(self, dim):
        # radial growth of zero amplitude: no round-off at any cell point
        mesh = build_cell_mesh(0.25, 8 if dim == 2 else 4, dim=dim)
        y = np.concatenate([P1Space(mesh).qpoints.reshape(-1, dim), mesh.facet_centroids()])
        tr = IdentityTransform(dim=dim)
        for t in (0.0, 0.7):
            F, J, v = tr.kinematics_batch(t, np.full(dim, 0.3), y)
            H = tr.curvature_batch(t, np.full(dim, 0.3), y)
            assert np.array_equal(F, np.broadcast_to(np.eye(dim), F.shape))
            assert np.array_equal(J, np.ones(len(y)))
            assert np.array_equal(v, np.zeros_like(y))
            assert np.array_equal(H, -(dim - 1) / np.linalg.norm(y - 0.5, axis=1))

    def test_identity_takes_no_amplitude_or_cutoff(self):
        with pytest.raises(TypeError, match="amplitude"):
            IdentityTransform(dim=2, amplitude=PolynomialAmplitude((0.0, 0.1)))
        with pytest.raises(TypeError, match="cutoff"):
            IdentityTransform(dim=2, cutoff=QuinticCutoff(0.3, 0.45))

    def test_normal_velocity_radial(self):
        tr = radial_growth(coeffs=(0.0, 0.2))
        r = tr.inclusion_radius
        y = np.array([0.5 + r / np.sqrt(2.0), 0.5 + r / np.sqrt(2.0)])
        n0 = (y - 0.5) / r
        n, W, _ = interface_at(tr, 0.5, np.zeros(2), y, n0)
        # cutoff is one on the interface, so the speed is gdot * r
        assert np.isclose(W, 0.2 * r)
        assert np.isclose(np.linalg.norm(n), 1.0, atol=1e-12)

    def test_dilated_circle_curvature(self):
        # pure dilation near the interface: curvature of the larger circle
        tr = radial_growth(coeffs=(0.0, 1.0))
        y = np.array([0.75, 0.5])
        n0 = np.array([1.0, 0.0])
        _, _, H = interface_at(tr, 0.2, np.zeros(2), y, n0)
        assert np.isclose(H, -1.0 / (0.25 * 1.2))


class TestTransformedCoefficients:
    def test_identity_reduces_to_static(self):
        mat = default_material(2)
        tr = IdentityTransform(dim=2)
        tc = fields_at(tr, mat, PHASE_A, 0.2, np.zeros(2), np.array([0.3, 0.3]))
        assert np.allclose(tc["stiffness"], mat.stiffness_a, atol=1e-12)
        assert np.allclose(tc["conductivity"], mat.conductivity_a, atol=1e-12)
        assert np.allclose(tc["expansion"], mat.expansion_a * np.eye(2), atol=1e-12)
        assert np.isclose(tc["heat_capacity"], mat.density_a * mat.heat_capacity_a)
        assert np.allclose(tc["velocity"], 0.0)

    def test_diagonal_stretch_conductivity(self):
        # F = diag(2, 1), J = 2, K = I  ->  K_ref = diag(0.5, 2)
        mat = default_material(2)
        F = np.array([[2.0, 0.0], [0.0, 1.0]])[None]
        fields = pullback_fields(F, np.array([2.0]), np.zeros((1, 2)), mat, PHASE_A)
        assert np.allclose(fields["conductivity"][0], np.diag([0.5, 2.0]), atol=1e-14)

    def test_random_pullback_against_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            F = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
            if np.linalg.det(F) < 0.2:
                continue
            B = rng.standard_normal((2, 2))
            K = B @ B.T + 0.5 * np.eye(2)
            mat = default_material(2, conductivity_a=K)
            J = np.linalg.det(F)
            fields = pullback_fields(F[None], np.array([J]), np.zeros((1, 2)), mat, PHASE_A)
            oracle = J * np.linalg.inv(F) @ K @ np.linalg.inv(F).T
            assert np.max(np.abs(fields["conductivity"][0] - oracle)) < 1e-12
            assert np.linalg.eigvalsh(fields["conductivity"][0]).min() > 0.0

    def test_stiffness_pullback_is_quadratic_form(self):
        rng = np.random.default_rng(11)
        F = np.eye(2) + 0.2 * rng.standard_normal((2, 2))
        J = np.linalg.det(F)
        mat = default_material(2)
        fields = pullback_fields(F[None], np.array([J]), np.zeros((1, 2)), mat, PHASE_A)
        # oracle: the symmetrizer A, the rank-4 map B -> sym(F^-T B)
        G = np.linalg.inv(F.T)
        eye = np.eye(2)
        A = 0.5 * (np.einsum("ac,bd->abcd", G, eye) + np.einsum("bc,ad->abcd", G, eye))
        B = rng.standard_normal((2, 2))
        D = rng.standard_normal((2, 2))
        lhs = np.einsum("abcd,cd,ab->", fields["stiffness"][0], B, D)
        AB = np.einsum("abcd,cd->ab", A, B)
        AD = np.einsum("abcd,cd->ab", A, D)
        rhs = J * np.einsum("pqrs,rs,pq->", mat.stiffness_a, AB, AD)
        assert np.isclose(lhs, rhs, rtol=1e-12)


class TestScaledCoefficients:
    def test_eps_one_is_identity(self):
        mat = default_material(2)
        s = scaled_coefficients(mat, 1.0)
        assert np.allclose(s.stiffness_b, mat.stiffness_b)
        assert np.allclose(s.conductivity_b, mat.conductivity_b)

    def test_eps_half_conductivity(self):
        mat = default_material(2)
        s = scaled_coefficients(mat, 0.5)
        assert np.allclose(s.conductivity_b, 0.25 * mat.conductivity_b)
        assert np.allclose(s.stiffness_b, 0.25 * mat.stiffness_b)

    def test_eps_tenth_expansion(self):
        mat = default_material(2, expansion_b=3.0)
        s = scaled_coefficients(mat, 0.1)
        assert np.isclose(s.expansion_b, 0.3)
        assert np.isclose(s.dissipation_b, 0.1 * mat.dissipation_b)
        # phase A untouched
        assert np.allclose(s.conductivity_a, mat.conductivity_a)


class TestAdmissibility:
    def test_identity_passes(self):
        report = validate_admissibility(IdentityTransform(dim=2), grid=16)
        assert report.ok
        assert report.min_det == 1.0 and report.max_det == 1.0

    def test_small_growth_passes(self):
        report = validate_admissibility(radial_growth(coeffs=(0.0, 0.1)), grid=16)
        assert report.ok, report.summary()

    def test_degenerate_amplitude_fails_with_location(self):
        report = validate_admissibility(radial_growth(coeffs=(0.0, -1.0)), grid=16)
        assert not report.ok
        assert any("det" in v or "degenerate" in v for v in report.violations)

    @pytest.mark.parametrize("margin", [0.0, 0.1])
    def test_boundary_points_moved_by_the_cutoff_are_a_violation(self, margin):
        # a cutoff reaching past the cell boundary moves the boundary points;
        # they are tested at every margin, zero included
        tr = RadialGrowth(dim=2, inclusion_radius=0.25, boundary_margin=margin,
                          cutoff=QuinticCutoff(0.3, 0.6))
        assert np.max(np.abs(tr.map_points(1.0, np.zeros(2), np.array([[0.5, 0.0]]))
                             - [0.5, 0.0])) > 1e-2
        report = validate_admissibility(tr, grid=16)
        assert not report.ok
        assert report.boundary_fixed_defect > 1e-2
        assert any(v.startswith("boundary points move by") for v in report.violations)

    def test_zero_margin_with_the_default_cutoff_passes(self):
        report = validate_admissibility(radial_growth(margin=0.0), grid=16)
        assert report.ok, report.summary()
        assert report.boundary_fixed_defect == 0.0

    def test_field_bounds_reported_finite(self):
        report = validate_admissibility(radial_growth(coeffs=(0.0, 0.2)), grid=16)
        assert set(report.field_bounds) == {"F", "F_inv", "J", "v", "W", "H"}
        for value in report.field_bounds.values():
            assert np.isfinite(value)
        assert report.field_bounds["H"] > 0.0  # curved interface


class TestInvariants:
    def test_t0_freeze(self):
        mat = default_material(2)
        tr = radial_growth(coeffs=(0.0, 0.4))
        static = fields_at(
            IdentityTransform(dim=2), mat, PHASE_B, 0.0, np.zeros(2), np.array([0.6, 0.4])
        )
        moving = fields_at(tr, mat, PHASE_B, 0.0, np.zeros(2), np.array([0.6, 0.4]))
        assert np.allclose(moving["stiffness"], static["stiffness"], atol=1e-12)
        assert np.allclose(moving["conductivity"], static["conductivity"], atol=1e-12)

    def test_identity_near_boundary(self):
        tr = radial_growth(coeffs=(0.0, 0.5), margin=0.1)
        y = np.array([[0.02, 0.5], [0.5, 0.99], [0.97, 0.97]])
        F, J, v = tr.kinematics_batch(0.8, np.zeros(2), y)
        assert np.allclose(F, np.eye(2)[None], atol=0.0)
        assert np.allclose(v, 0.0, atol=0.0)

    @settings(max_examples=20, deadline=None)
    @given(
        gmax=st.floats(min_value=-0.3, max_value=0.6),
        t=st.floats(min_value=0.0, max_value=1.0),
        ang=st.floats(min_value=0.0, max_value=2.0 * np.pi),
        rho=st.floats(min_value=0.01, max_value=0.49),
    )
    def test_unit_normal_and_det(self, gmax, t, ang, rho):
        tr = radial_growth(coeffs=(0.0, gmax))
        y = 0.5 + rho * np.array([np.cos(ang), np.sin(ang)])
        try:
            F, J, v = tr.kinematics_batch(t, np.zeros(2), y[None, :])
        except InadmissibleTransformError:
            # growth beyond g = gmax t of about 0.21 folds the cutoff blend;
            # the rejection must be real: the central-difference Jacobian of
            # the map is singular or reversed there
            h, x = 1e-6, np.zeros(2)
            jac = np.column_stack([(tr.map_points(t, x, (y + h * e)[None])
                                    - tr.map_points(t, x, (y - h * e)[None]))[0] / (2 * h)
                                   for e in np.eye(2)])
            assert np.linalg.det(jac) <= 1e-6
            return
        assert abs(J[0] - np.linalg.det(F[0])) < 1e-12
        n0 = np.array([np.cos(ang), np.sin(ang)])
        n_raw = np.linalg.solve(F[0].T, n0)
        n = n_raw / np.linalg.norm(n_raw)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12


class TestMaterialValidation:
    def test_rejects_nonsymmetric_conductivity(self):
        with pytest.raises(ValueError):
            default_material(2, conductivity_a=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_negative_expansion(self):
        with pytest.raises(ValueError):
            default_material(2, expansion_a=-1.0)

    def test_mandel_spectrum_isotropic(self):
        C = isotropic_stiffness(1.0, 1.0, 2)
        eigs = np.linalg.eigvalsh(mandel_matrix(C))
        # bulk 2D: lam + mu, shear: 2 mu (twice)
        assert np.allclose(np.sort(eigs), [2.0, 2.0, 4.0])


class TestTabulated:
    def _tabulate(self, tr, times, grid_n):
        axes = [np.linspace(0.0, 1.0, grid_n)] * tr.dim
        Y = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, tr.dim)
        anchors = np.array([[0.5, 0.5]])
        vals = np.empty((len(times), 1, grid_n**tr.dim, tr.dim))
        for i, t in enumerate(times):
            vals[i, 0] = tr.map_points(t, anchors[0], Y)
        return TabulatedTransform(
            tr.dim, times, anchors, grid_n, vals,
            inclusion_radius=tr.inclusion_radius, boundary_margin=tr.boundary_margin,
        )

    def test_curvature_by_surface_differences(self):
        # the finite-difference curvature of the tabulated map must track the
        # closed form of the family it samples
        tr = radial_growth(coeffs=(0.0, 0.4))
        tab = self._tabulate(tr, np.linspace(0.0, 1.0, 11), 161)
        ang = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        pts = 0.5 + 0.25 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        t, x = 0.5, np.array([0.5, 0.5])
        H_ref = tr.curvature_batch(t, x, pts)
        H_tab = tab.curvature_batch(t, x, pts, step=0.01)
        assert np.max(np.abs(H_tab - H_ref) / np.abs(H_ref)) < 0.05

    def test_per_point_anchors_match_per_anchor_calls(self):
        # two anchors tabulating growth rates 0.1 and 0.3; a call with one
        # macro point per cell point must use each point's own anchor
        anchors = np.array([[0.25, 0.5], [0.75, 0.5]])
        times, grid_n = np.linspace(0.0, 1.0, 11), 41
        axes = [np.linspace(0.0, 1.0, grid_n)] * 2
        Y = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        vals = np.array([[radial_growth(coeffs=(0.0, rate)).map_points(t, a, Y)
                          for a, rate in zip(anchors, (0.1, 0.3))] for t in times])
        tab = TabulatedTransform(2, times, anchors, grid_n, vals, inclusion_radius=0.25,
                                 boundary_margin=0.1)
        ang = np.array([0.3, 1.9, 3.5, 5.1])
        y = 0.5 + 0.25 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        x = np.array([[0.2, 0.5], [0.8, 0.5], [0.3, 0.4], [0.7, 0.6]])
        t = 0.5

        def evaluate(x, y):
            return (tab.map_points(t, x, y), *tab.kinematics_batch(t, x, y),
                    tab.curvature_batch(t, x, y))

        per_point = evaluate(x, y)
        for i in range(len(x)):
            for got, one in zip(per_point, evaluate(x[i], y[i:i + 1])):
                assert np.array_equal(got[i], one[0])
        speed = np.linalg.norm(per_point[3], axis=1)
        assert speed[1] == pytest.approx(3.0 * speed[0], rel=0.05)

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError, match="^table times must increase strictly$"):
            self._tabulate(radial_growth(coeffs=(0.0, 0.4)), np.array([0.5, 0.0]), 5)

    def test_roundtrip_radial_growth(self):
        tr = radial_growth(coeffs=(0.0, 0.2))
        tab = self._tabulate(tr, np.linspace(0.0, 1.0, 11), 161)
        pts = 0.5 + 0.3 * (np.random.default_rng(5).random((40, 2)) * 2.0 - 1.0)
        t, x = 0.45, np.array([0.5, 0.5])
        F_ref, J_ref, v_ref = tr.kinematics_batch(t, x, pts)
        F_tab, J_tab, v_tab = tab.kinematics_batch(t, x, pts)
        # limited by the multilinear interpolation of the table
        assert np.max(np.abs(F_tab - F_ref)) < 2e-2
        assert np.max(np.abs(v_tab - v_ref)) < 2e-2
        assert np.max(np.abs(J_tab - J_ref)) < 3e-2


def _numpy_amplitude(amp, t, x):
    """The amplitude and its rate evaluated on 0-d numpy arrays, the
    formula PolynomialAmplitude used before its scalar-t path."""
    t = np.asarray(t, dtype=float)
    p, q = np.zeros_like(t), np.zeros_like(t)
    for k, c in enumerate(amp.coeffs):
        if c != 0.0:
            p = p + c * t**k
            if k >= 1:
                q = q + k * c * t ** (k - 1)
    spatial = 1.0
    if amp.x_slope:
        spatial = 1.0 + np.asarray(x, dtype=float) @ np.asarray(amp.x_slope, dtype=float)
    return p * spatial, q * spatial


def assert_groups_match_keys(tr, t, points):
    """``sample_key_groups`` against the per-point keys: the first point of
    each distinct key in order of appearance, and every point's key number."""
    keys = [tr.sample_key(t, x) for x in points]
    distinct = list(dict.fromkeys(keys))
    first, of = sample_key_groups(tr, t, points)
    assert first.tolist() == [keys.index(k) for k in distinct]
    assert of.tolist() == [distinct.index(k) for k in keys]
    return keys


class TestScalarAmplitude:
    def test_sample_keys_match_numpy_formula_on_graded_hosts(self):
        from thermohom.fem import P1Space
        from thermohom.mesh import build_uniform_mesh

        amp = PolynomialAmplitude((0.0, 0.1), (0.5, 0.25))
        tr = RadialGrowth(dim=2, inclusion_radius=0.25, amplitude=amp)
        hosts = P1Space(build_uniform_mesh(8, dim=2)).qpoints.reshape(-1, 2)
        dt = 0.05
        for t in (0.0, dt, 2 * dt):
            keys = assert_groups_match_keys(tr, t, hosts)
            old = []
            for x in hosts:
                g, gdot = _numpy_amplitude(amp, t, x)
                old.append(("radial_growth", round(float(g), 12), round(float(gdot), 12)))
            assert keys == old
            if t > 0.0:
                assert len(set(keys)) == 129
        # a two-anchor table: every host takes the key of its nearest anchor
        times, grid_n = np.linspace(0.0, 1.0, 3), 3
        Y = np.stack(np.meshgrid(*[np.linspace(0.0, 1.0, grid_n)] * 2, indexing="ij"),
                     axis=-1).reshape(-1, 2)
        tab = TabulatedTransform(2, times, [[0.75, 0.5], [0.25, 0.5]], grid_n,
                                 np.broadcast_to(Y, (3, 2) + Y.shape))
        keys = assert_groups_match_keys(tab, dt, hosts)
        assert {k[2] for k in keys} == {0, 1}

    def test_geometry_keys_on_graded_hosts(self):
        # the geometry key drops the rate: at t = 0 every map is the identity,
        # later the amplitude alone separates the sample keys' geometries
        amp = PolynomialAmplitude((0.0, 0.1), (0.5, 0.25))
        tr = RadialGrowth(dim=2, inclusion_radius=0.25, amplitude=amp)
        hosts = P1Space(build_uniform_mesh(8, dim=2)).qpoints.reshape(-1, 2)
        for t in (0.0, 0.05, 0.1):
            first, of = sample_key_groups(tr, t, hosts)
            geometry = key_groups([tr.geometry_key(t, x) for x in hosts])
            for x in hosts[:5]:
                assert tr.geometry_key(t, x) == tr.sample_key(t, x)[:2]
            if t == 0.0:
                assert len(first) == 129 and len(geometry[0]) == 1
            else:
                assert np.array_equal(geometry[0], first)
                assert np.array_equal(geometry[1], of)
        static = IdentityTransform(dim=2)
        assert static.geometry_key(0.3, hosts[0]) == ("radial_growth", 0.0)

    @pytest.mark.parametrize("coeffs", [(0.0, 0.1), (0.0, 0.3, -0.2, 0.05, 0.01)])
    def test_bitwise_equal_to_numpy_formula(self, coeffs):
        amp = PolynomialAmplitude(coeffs, (0.5, -0.25))
        rng = np.random.default_rng(3)
        anchors = rng.random((50, 2))
        for t in rng.random(200) * 2.0:
            for x in (anchors[0], anchors):
                g, gdot = _numpy_amplitude(amp, t, x)
                assert np.array_equal(amp.value(t, x), g)
                assert np.array_equal(amp.rate(t, x), gdot)


class TestLevelCache:
    def test_hits_and_misses_count_distinct_keys(self):
        cache, built = LevelCache(), []

        def build(missing):
            built.append(list(missing))
            return [f"value {i}" for i in missing]

        assert cache.get_many(0.0, ["a", "b", "a"], build) == ["value 0", "value 1", "value 0"]
        assert (cache.hits, cache.misses) == (0, 2)
        # a key cached at the other level is reused; a value the request
        # rejects is built again
        cache.get_many(0.1, ["a", "c"], build)
        assert (cache.hits, cache.misses) == (1, 3)
        cache.get_many(0.1, ["a", "c"], build, valid=lambda v: v != "value 1")
        assert (cache.hits, cache.misses) == (2, 4)
        assert built == [[0, 1], [1], [1]]
        # a new level drops every level but the most recently opened one
        cache.get(0.2, "a", lambda: "built")
        assert sorted(cache.levels) == [0.1, 0.2]
