import numpy as np
import pytest
from micro_oracle import EinsumMicroModel

from thermohom.cell import CellContext
from thermohom.config import TableSource
from thermohom.effective import EffectiveProvider
from thermohom.fem import SolverError
from thermohom.kinematics import (
    IdentityTransform,
    PolynomialAmplitude,
    RadialGrowth,
    default_material,
)
from thermohom.mesh import build_cell_mesh, build_uniform_mesh
from thermohom.twoscale import FixedPointError, SolverSettings, TwoScaleSolver


def make_solver(material=None, transform=None, cell_n=8, macro_n=4, sources=None,
                **settings):
    material = material if material is not None else default_material(2)
    transform = transform if transform is not None else IdentityTransform(dim=2)
    cell = build_cell_mesh(0.25, cell_n, dim=2)
    ctx = CellContext(cell, material, transform)
    provider = EffectiveProvider(ctx, sources=sources)
    macro = build_uniform_mesh(macro_n, dim=2)
    return TwoScaleSolver(macro, provider, SolverSettings(**settings))


def growth(rate=0.1, x_slope=()):
    return RadialGrowth(dim=2, inclusion_radius=0.25,
                        amplitude=PolynomialAmplitude((0.0, rate), x_slope))


# MicroModel applies precomputed sparse maps where the oracle assembles every
# load with einsum, so sums run in another order.  The two differ by a few
# ulps (measured at most 3e-15); 1e-12 stays far below cg_tol and
# fixed_point_tol.
PARITY_RTOL = 1e-12


def assert_micro_close(new, ref, rtol=PARITY_RTOL):
    """Max-norm relative agreement of two micro states."""
    for a, b in ((new.theta, ref.theta), (new.u, ref.u)):
        assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))
    assert abs(new.heat_content - ref.heat_content) <= rtol * abs(ref.heat_content)


class TestInitState:
    def test_constant_initial_data(self):
        solver = make_solver()
        state = solver.init_state(lambda x: np.full(len(x), 2.5))
        assert np.allclose(state.theta, 2.5)
        for m in state.micro:
            assert np.allclose(m.theta, 2.5)
        mat = default_material(2)
        expected = mat.density_b * mat.heat_capacity_b * 2.5
        content = state.micro[0].heat_content / solver.provider.at(
            0.0, np.zeros(2)).inclusion_measure
        assert np.isclose(content, expected, rtol=1e-10)

    def test_zero_initial_data(self):
        solver = make_solver(material=default_material(2, latent_heat=0.0))
        state = solver.init_state(lambda x: np.zeros(len(x)))
        assert np.allclose(state.theta, 0.0)
        assert np.allclose(state.u, 0.0, atol=1e-12)

    def test_mismatched_micro_trace_enforced(self):
        solver = make_solver()
        bad = lambda x, yb: np.full(len(yb), 9.0)  # inconsistent inclusion data
        state = solver.init_state(lambda x: np.full(len(x), 1.0), micro_theta0=bad)
        bd = solver.micro_model.boundary_scalar
        for m in state.micro:
            assert np.max(np.abs(m.theta[bd] - 1.0)) < 1e-12


class TestSteadyState:
    def test_constant_temperature_is_steady(self):
        mat = default_material(2, dissipation_a=0.0, dissipation_b=0.0)
        solver = make_solver(material=mat)
        state = solver.init_state(lambda x: np.full(len(x), 1.0))
        nxt = solver.macro_step(state, 0.05)
        assert np.max(np.abs(nxt.theta - 1.0)) < 1e-10
        assert nxt.fixed_point_iterations <= 3


class TestConservation:
    def test_heat_content_conserved(self):
        mat = default_material(2, dissipation_a=0.0, dissipation_b=0.0,
                               latent_heat=0.0, surface_tension=0.0)
        solver = make_solver(material=mat, cg_tol=1e-13, fixed_point_tol=1e-12)
        theta0 = lambda x: 1.0 + 0.5 * np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])
        state = solver.init_state(theta0)
        total0 = state.heat_content
        for _ in range(10):
            state = solver.macro_step(state, 0.02)
            drift = abs(state.heat_content - total0) / abs(total0)
            assert drift < 1e-10
            assert state.trace_defect < 1e-10  # micro traces track the macro field
            assert state.mech_residual < 1e-10
            total0 = state.heat_content

    def test_heat_flows_from_hot_inclusions(self):
        # inclusions initialized hotter than the matrix: macro temperature rises
        mat = default_material(2, dissipation_a=0.0, dissipation_b=0.0,
                               latent_heat=0.0, surface_tension=0.0)
        solver = make_solver(material=mat)
        state = solver.init_state(
            lambda x: np.zeros(len(x)),
            micro_theta0=lambda x, yb: np.ones(len(yb)),
        )
        t0 = state.heat_content
        state = solver.macro_step(state, 0.05)
        assert state.theta.mean() > 1e-4
        assert abs(state.heat_content - t0) / abs(t0) < 1e-8


class TestDecoupling:
    def test_temperature_invariant_under_elastic_loads(self):
        mat = default_material(
            2, expansion_a=0.0, expansion_b=0.0, dissipation_a=0.0,
            dissipation_b=0.0, surface_tension=0.0, latent_heat=0.0,
        )

        def run(load):
            sources = lambda t: (np.array([load, 0.0]), np.zeros(2), 0.0, 0.0)
            solver = make_solver(material=mat, sources=sources)
            theta0 = lambda x: np.cos(np.pi * x[:, 0])
            states = solver.run(0.1, 0.05, theta0)
            return states[-1].theta

        a = run(0.0)
        b = run(2.0)
        assert np.array_equal(a, b)


class TestEnergyStability:
    def test_heat_energy_non_increasing(self):
        mat = default_material(2, dissipation_a=0.0, dissipation_b=0.0,
                               latent_heat=0.0, surface_tension=0.0)
        solver = make_solver(material=mat)
        from thermohom.fem import assemble_operator

        fields = solver.effective_fields(0.0)
        M_c = assemble_operator(solver.mesh, "mass", fields["heat_capacity"],
                                space=solver.space)
        theta0 = lambda x: np.cos(np.pi * x[:, 0]) * np.cos(2 * np.pi * x[:, 1])
        state = solver.init_state(theta0)
        energy = state.theta @ (M_c @ state.theta)
        for _ in range(6):
            state = solver.macro_step(state, 0.05)
            e_next = state.theta @ (M_c @ state.theta)
            assert e_next <= energy * (1.0 + 1e-12)
            energy = e_next


class TestLatentHeatBalance:
    def test_uniform_cooling_matches_tabulated_sources(self):
        # single-dof balance: for one short step the uniform temperature drops
        # by dt * W / c_eff; the inclusion content only responds in an
        # O(sqrt(dt)) boundary layer, which the tolerance absorbs
        mat = default_material(
            2, expansion_a=0.0, expansion_b=0.0, dissipation_a=0.0,
            dissipation_b=0.0, surface_tension=0.0, latent_heat=0.5,
        )
        solver = make_solver(material=mat, transform=growth(0.2), cell_n=16,
                             fixed_point_tol=1e-12)
        dt = 1e-4
        state = solver.init_state(lambda x: np.full(len(x), 1.0))
        nxt = solver.macro_step(state, dt)
        eff = solver.provider.at(dt, np.zeros(2))
        predicted = -dt * eff.latent_source / eff.heat_capacity
        observed = nxt.theta.mean() - 1.0
        assert observed == pytest.approx(predicted, rel=5e-2)


class TestTimeOrder:
    def test_first_order_in_dt(self):
        mat = default_material(2)
        theta0 = lambda x: 1.0 + np.cos(np.pi * x[:, 0])

        def solve(dt):
            solver = make_solver(material=mat, transform=growth(0.2),
                                 fixed_point_tol=1e-11)
            states = solver.run(0.2, dt, theta0)
            return states[-1].theta

        dts = [0.1, 0.05, 0.025, 0.0125]
        sols = [solve(dt) for dt in dts]
        diffs = [np.linalg.norm(a - b) for a, b in zip(sols, sols[1:])]
        order = np.polyfit(np.log(dts[:-1]), np.log(diffs), 1)[0]
        assert order == pytest.approx(1.0, abs=0.2)


class TestRunLoop:
    def test_zero_horizon_only_initial_state(self):
        solver = make_solver()
        states = solver.run(0.0, 0.05, lambda x: np.zeros(len(x)))
        assert len(states) == 1
        assert states[0].t == 0.0

    def test_step_count(self):
        solver = make_solver(material=default_material(
            2, dissipation_a=0.0, dissipation_b=0.0))
        states = solver.run(0.21, 0.05, lambda x: np.zeros(len(x)))
        assert len(states) == 1 + 5  # ceil(0.21/0.05)
        assert states[-1].t == pytest.approx(0.21)

    def test_stalled_loop_raises_named_error(self):
        solver = make_solver(fixed_point_max_iter=1, fixed_point_tol=1e-30)
        with pytest.raises(FixedPointError, match=r"two-scale solver.*t = 0\.05"):
            solver.run(0.05, 0.05, lambda x: np.cos(np.pi * x[:, 0]))

    def test_macro_elasticity_cg_failure_names_solver_and_t(self):
        # init_state's macro elasticity CG fails first; it has no direct fallback
        solver = make_solver(cg_max_iter=1)
        with pytest.raises(SolverError, match=r"two-scale solver: macro elasticity CG "
                                              r"failed at t = 0: conjugate gradients"):
            solver.run(0.05, 0.05, lambda x: np.cos(np.pi * x[:, 0]))

    def test_deterministic_rerun(self):
        mat = default_material(2)
        theta0 = lambda x: np.cos(np.pi * x[:, 0])

        def run():
            solver = make_solver(material=mat, transform=growth(0.1))
            return solver.run(0.1, 0.05, theta0)[-1]

        s1, s2 = run(), run()
        assert np.array_equal(s1.theta, s2.theta)
        assert np.array_equal(s1.u, s2.u)


class TestMicroParity:
    @pytest.mark.parametrize("transform", [
        lambda: IdentityTransform(dim=2),
        lambda: growth(0.1),
        lambda: growth(0.1, x_slope=(0.5, 0.25)),
    ], ids=["identity", "radial_growth", "amplitude_x_slope"])
    @pytest.mark.parametrize("per_element", [False, True])
    def test_step_and_initial_state_match_einsum_oracle(self, transform, per_element):
        sources = lambda t: (np.zeros(2), np.array([0.7 + t, -0.4]), 0.0, 1.3 - 2.0 * t)
        solver = make_solver(transform=transform(), macro_n=2, sources=sources,
                             micro_per_element=per_element)
        model = solver.micro_model
        oracle = EinsumMicroModel(model.ctx, sources=sources)
        micro_theta0 = lambda x, yb: 1.0 + x[0] + yb[:, 0] * yb[:, 1]
        state = solver.init_state(lambda x: 1.0 + np.cos(np.pi * x[:, 0]),
                                  micro_theta0=micro_theta0)
        traces_th, traces_u = solver.traces_at_hosts(state.theta, state.u)
        dt = 0.05
        for i, x in enumerate(solver.host_points):
            ref = oracle.initial_state(0.0, x, traces_th[i], traces_u[i],
                                       theta_field=micro_theta0(x, model.mesh.vertices))
            new = state.micro[i]
            assert_micro_close(new, ref)
            # two steps with a lagged deformation that differs from prev.u, so
            # the old and new dissipation loads both enter
            for k in (1, 2):
                th, u, lag = traces_th[i] + 0.2 * k, 0.9 * traces_u[i], 1.1 * ref.u + 0.01
                new = model.step(k * dt, dt, x, th, u, new, u_lag=lag)
                ref = oracle.step(k * dt, dt, x, th, u, ref, u_lag=lag)
                assert_micro_close(new, ref)


class TestTimeDependentSources:
    def test_ramped_sources_on_static_geometry_match_oracle(self):
        # one sample key serves every time level, so a bundle that froze the
        # source loads of the t it was built at would drift from the oracle
        f_u_b = TableSource([0.0, 0.2], [[0.0, 0.0], [2.0, -1.0]])
        f_th_b = TableSource([0.0, 0.2], [[0.0], [3.0]])
        sources = lambda t: (np.zeros(2), f_u_b(t), 0.0, float(f_th_b(t)[0]))
        theta0 = lambda x: 1.0 + 0.5 * np.cos(np.pi * x[:, 0])

        def run(oracle):
            solver = make_solver(macro_n=2, sources=sources)
            if oracle:
                solver.micro_model = EinsumMicroModel(solver.provider.ctx, sources=sources)
            return solver.run(0.2, 0.05, theta0)

        new, ref = run(False), run(True)
        assert len(new) == len(ref) == 5
        # the staggered loop passes the ulp-level differences through a
        # contraction at fixed_point_tol = 1e-8; 1e-10 stays far below it
        for a, b in zip(new, ref):
            assert a.fixed_point_iterations == b.fixed_point_iterations
            assert np.max(np.abs(a.theta - b.theta)) <= 1e-10 * np.max(np.abs(b.theta))
            assert np.max(np.abs(a.u - b.u)) <= 1e-10 * np.max(np.abs(b.u))
            for m, r in zip(a.micro, b.micro):
                assert_micro_close(m, r, rtol=1e-10)


class TestMicroCache:
    def test_cache_size_flat_over_long_growth_run(self):
        solver = make_solver(transform=growth(0.1), macro_n=2)
        model = solver.micro_model
        sizes = []

        def observer(state):
            sizes.append(len({id(b) for level in model.cache.levels.values()
                              for b in level.values()}))

        solver.run(0.2, 0.01, lambda x: np.cos(np.pi * x[:, 0]), observer=observer)
        assert len(sizes) == 21
        assert sizes == [1] + [2] * 20      # the bundles of the current step pair
