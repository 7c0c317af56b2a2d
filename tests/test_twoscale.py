from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import SuperLU

from micro_oracle import EinsumMicroModel
from twoscale_oracle import StaggeredTwoScaleSolver, state_deviation

from thermohom import twoscale
from thermohom.cell import CellContext
from thermohom.config import TableSource, parse_config
from thermohom.effective import EffectiveProvider
from thermohom.fem import Factor, SolverError
from thermohom.kinematics import (
    IdentityTransform,
    PolynomialAmplitude,
    RadialGrowth,
    TabulatedTransform,
    default_material,
    sample_key_groups,
)
from thermohom.mesh import build_cell_mesh, build_uniform_mesh
from thermohom.twoscale import BundleError, MicroModel, SolverSettings, TwoScaleSolver


def make_solver(material=None, transform=None, cell_n=8, macro_n=4, sources=None,
                solver=TwoScaleSolver, **settings):
    material = material if material is not None else default_material(2)
    transform = transform if transform is not None else IdentityTransform(dim=2)
    cell = build_cell_mesh(0.25, cell_n, dim=2)
    ctx = CellContext(cell, material, transform)
    provider = EffectiveProvider(ctx, sources=sources)
    macro = build_uniform_mesh(macro_n, dim=2)
    return solver(macro, provider, SolverSettings(**settings))


def growth(rate=0.1, x_slope=()):
    return RadialGrowth(dim=2, inclusion_radius=0.25,
                        amplitude=PolynomialAmplitude((0.0, rate), x_slope))


# MicroModel applies precomputed sparse maps and solves the coupled step in
# one block, where the oracle assembles every load with einsum and iterates
# its lagged step to 1e-14, so sums run in another order.  The two differ by
# a few ulps (measured at most 3e-15).
PARITY_RTOL = 1e-12
# The exact step against the staggered loop at fixed_point_tol = 1e-14:
# measured at most 3.3e-15 on every field and content.
STEP_RTOL = 1e-10


def assert_micro_close(new, ref, rtol=PARITY_RTOL):
    """Max-norm relative agreement of one host's (theta, u, content) with an
    oracle record."""
    theta, u, content = new
    for a, b in ((theta, ref.theta), (u, ref.u)):
        assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))
    assert abs(content - ref.heat_content) <= rtol * abs(ref.heat_content)


def host_row(state, i):
    return state.micro_theta[i], state.micro_u[i], state.micro_content[i]


class TestInitState:
    def test_constant_initial_data(self):
        solver = make_solver()
        state = solver.init_state(lambda x: np.full(len(x), 2.5))
        assert np.allclose(state.theta, 2.5)
        assert np.allclose(state.micro_theta, 2.5)
        mat = default_material(2)
        expected = mat.density_b * mat.heat_capacity_b * 2.5
        content = state.micro_content[0] / solver.provider.at(
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
        assert np.max(np.abs(state.micro_theta[:, bd] - 1.0)) < 1e-12


class TestSteadyState:
    def test_constant_temperature_is_steady(self):
        mat = default_material(2, dissipation_a=0.0, dissipation_b=0.0)
        solver = make_solver(material=mat)
        state = solver.init_state(lambda x: np.full(len(x), 1.0))
        nxt = solver.macro_step(state, 0.05)
        assert np.max(np.abs(nxt.theta - 1.0)) < 1e-10
        assert nxt.fixed_point_iterations == 1


class TestConservation:
    def test_heat_content_conserved(self):
        mat = default_material(2, dissipation_a=0.0, dissipation_b=0.0,
                               latent_heat=0.0, surface_tension=0.0)
        solver = make_solver(material=mat, fixed_point_tol=1e-12)
        theta0 = lambda x: 1.0 + 0.5 * np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])
        state = solver.init_state(theta0)
        total0 = state.heat_content
        for _ in range(10):
            state = solver.macro_step(state, 0.02)
            drift = abs(state.heat_content - total0) / abs(total0)
            assert drift < 1e-10
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
        M_c = solver.level(0.0)["M_c"]
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

    def test_time_levels(self):
        assert twoscale.time_levels(0.0, 0.05) == [0.0]
        assert twoscale.time_levels(0.21, 0.05) == [0.0, 0.05, 0.1, 0.15000000000000002,
                                                    0.2, 0.21]
        for t_final, dt, n in ((0.5, 0.05, 10), (2.0, 0.02, 100), (6 * 0.05, 0.05, 6),
                               (0.3, 0.05, 6), (1.0, 0.3, 4), (1.0, 1 / 3, 3),
                               (0.7, 0.07, 10), (0.05, 0.05, 1)):
            levels = twoscale.time_levels(t_final, dt)
            assert len(levels) == n + 1 and levels[-1] == t_final
            # every step is exact: a level plus its step lands on the next
            assert all(a + (b - a) == b for a, b in zip(levels, levels[1:]))

    def test_states_sit_on_the_time_levels(self):
        solver = make_solver(transform=growth(0.1), macro_n=2)
        states = solver.run(0.5, 0.05, lambda x: np.cos(np.pi * x[:, 0]))
        assert [s.t for s in states] == twoscale.time_levels(0.5, 0.05)
        assert states[-1].t == 0.5

    def test_step_count(self):
        solver = make_solver(material=default_material(
            2, dissipation_a=0.0, dissipation_b=0.0))
        states = solver.run(0.21, 0.05, lambda x: np.zeros(len(x)))
        assert len(states) == 1 + 5  # ceil(0.21/0.05)
        assert states[-1].t == pytest.approx(0.21)

    def test_second_run_on_one_solver_repeats_the_first(self):
        # on a static geometry the next run's t = 0 finds the last step's
        # bundle in the cache, which has no elasticity LU of its own
        solver = make_solver(macro_n=2)
        theta0 = lambda x: np.cos(np.pi * x[:, 0])
        first, second = (solver.run(0.1, 0.05, theta0)[-1] for _ in range(2))
        assert np.array_equal(first.theta, second.theta)
        assert np.array_equal(first.u, second.u)

    def test_macro_operators_built_once_per_time_level(self, monkeypatch):
        solver = make_solver(transform=growth(0.1), macro_n=2)
        build, calls = solver.macro_operators, []
        monkeypatch.setattr(solver, "macro_operators",
                            lambda fields: calls.append(fields) or build(fields))
        states = solver.run(0.15, 0.05, lambda x: np.cos(np.pi * x[:, 0]))
        assert len(states) == 4 and len(calls) == len(states)   # steps + 1
        # each step builds its new level and finds its old one
        assert (solver._levels.misses, solver._levels.hits) == (len(states), len(states) - 1)

    def test_deterministic_rerun(self):
        mat = default_material(2)
        theta0 = lambda x: np.cos(np.pi * x[:, 0])

        def run():
            solver = make_solver(material=mat, transform=growth(0.1))
            return solver.run(0.1, 0.05, theta0)[-1]

        s1, s2 = run(), run()
        assert np.array_equal(s1.theta, s2.theta)
        assert np.array_equal(s1.u, s2.u)


TRANSFORMS = {
    "identity": lambda: IdentityTransform(dim=2),
    "radial_growth": lambda: growth(0.1),
    "amplitude_x_slope": lambda: growth(0.1, x_slope=(0.5, 0.25)),
}


def ramp_sources(t):
    return np.array([3.0, 1.5]), np.array([0.7 + t, -0.4]), 0.0, 1.3 - 2.0 * t


class TestMicroParity:
    @pytest.mark.parametrize("transform", list(TRANSFORMS.values()), ids=list(TRANSFORMS))
    @pytest.mark.parametrize("per_element", [False, True])
    def test_step_and_initial_state_match_einsum_oracle(self, transform, per_element):
        solver = make_solver(transform=transform(), macro_n=2, sources=ramp_sources,
                             micro_per_element=per_element)
        model = solver.micro_model
        oracle = EinsumMicroModel(model.ctx, sources=ramp_sources)
        micro_theta0 = lambda x, yb: 1.0 + x[0] + yb[:, 0] * yb[:, 1]
        state = solver.init_state(lambda x: 1.0 + np.cos(np.pi * x[:, 0]),
                                  micro_theta0=micro_theta0)
        traces_th, traces_u = solver.traces_at_hosts(state.theta, state.u)
        dt = 0.05
        one = (np.array([0]), np.array([0]))    # the grouping of a single host
        for i, x in enumerate(solver.host_points):
            ref = oracle.initial_state(0.0, x, traces_th[i], traces_u[i],
                                       theta_field=micro_theta0(x, model.mesh.vertices))
            new, load = host_row(state, i), state.micro_load[i:i + 1]
            assert_micro_close(new, ref)
            # two coupled steps, each against the lagged oracle step iterated
            # to its fixed point; the condensed content response must give the
            # content of the step
            for k in (1, 2):
                th, u = traces_th[i] + 0.2 * k, 0.9 * traces_u[i]
                w0, c0, c_tr = model.responses(k * dt, dt, x[None], one, load)
                (b_new,) = model.level_bundles(k * dt, x[None], one, dt)
                new = model.step(b_new, w0[0], th, u)
                load = model.heat_loads([b_new], one[1], new[0][None], new[1][None])
                ref = oracle.coupled_step(k * dt, dt, x, th, u, ref)
                assert_micro_close(new, ref)
                content = c0[0] + c_tr[0] @ np.concatenate([[th], u])
                assert abs(content - new[2]) <= PARITY_RTOL * abs(new[2])

    @pytest.mark.parametrize("per_element", [False, True])
    def test_block_states_and_responses_match_per_host_oracle(self, per_element):
        # hosts are solved per sample key as blocks; from t = 0.05 on, the x
        # slope gives this host set several key groups with distinct operators
        solver = make_solver(transform=TRANSFORMS["amplitude_x_slope"](), macro_n=4,
                             sources=ramp_sources, micro_per_element=per_element)
        model, xs = solver.micro_model, solver.host_points
        oracle = EinsumMicroModel(model.ctx, sources=ramp_sources)
        t, dt = 0.05, 0.05
        groups = [sample_key_groups(model.ctx.transformation, s, xs) for s in (t, t + dt)]
        assert len(groups[0][0]) > 1
        traces_th = 1.0 + np.cos(np.pi * xs[:, 0])
        traces_u = 0.01 * np.sin(np.pi * xs)
        fields = [1.0 + x[0] + model.mesh.vertices[:, 0] * model.mesh.vertices[:, 1]
                  for x in xs]
        theta, u, content, load = model.initial_states(t, xs, groups[0], traces_th, traces_u,
                                                       fields)
        _, c0, c_tr = model.responses(t + dt, dt, xs, groups[1], load)
        for i, x in enumerate(xs):
            ref = oracle.initial_state(t, x, traces_th[i], traces_u[i], theta_field=fields[i])
            assert_micro_close((theta[i], u[i], content[i]), ref)
            # the content after a step with zero traces, then with the host's
            for traces in (np.zeros(3), np.concatenate([[traces_th[i]], traces_u[i]])):
                after = oracle.coupled_step(t + dt, dt, x, traces[0], traces[1:], ref).heat_content
                assert abs(c0[i] + c_tr[i] @ traces - after) <= PARITY_RTOL * abs(after)


@dataclass(frozen=True)
class MergingAmplitude:
    """g(t, x) = 0.2 t + [x_0 > 0.5] 10 t (0.1 - t)^2: two values and rates
    on either side of x_0 = 0.5 at t = 0.05, one of each everywhere at 0.1."""

    def value(self, t, x):
        return 0.2 * t + self._right(x) * 10.0 * t * (0.1 - t) ** 2

    def rate(self, t, x):
        return 0.2 + self._right(x) * 10.0 * (0.1 - t) * (0.1 - 3.0 * t)

    @staticmethod
    def _right(x):
        return (np.asarray(x, dtype=float)[..., 0] > 0.5).astype(float)


class TestMergedKeys:
    def test_new_key_over_two_old_keys_matches_per_host_oracle(self):
        # the one sample key at t = 0.1 holds the hosts of both keys at 0.05:
        # one block solve over hosts whose heat loads come from two geometries
        tr = RadialGrowth(dim=2, inclusion_radius=0.25, amplitude=MergingAmplitude())
        solver = make_solver(transform=tr, macro_n=2, sources=ramp_sources)
        model, xs = solver.micro_model, solver.host_points
        oracle = EinsumMicroModel(model.ctx, sources=ramp_sources)
        t, dt = 0.05, 0.05
        old, new = (sample_key_groups(tr, s, xs) for s in (t, t + dt))
        assert len(old[0]) == 2 and len(new[0]) == 1
        traces_th = 1.0 + np.cos(np.pi * xs[:, 0])
        traces_u = 0.01 * np.sin(np.pi * xs)
        fields = [1.0 + x[0] + model.mesh.vertices[:, 0] * model.mesh.vertices[:, 1]
                  for x in xs]
        *_, load = model.initial_states(t, xs, old, traces_th, traces_u, fields)
        w0, _, _ = model.responses(t + dt, dt, xs, new, load)
        (b_new,) = model.level_bundles(t + dt, xs, new, dt)
        for i, x in enumerate(xs):
            ref = oracle.initial_state(t, x, traces_th[i], traces_u[i], theta_field=fields[i])
            th, u = traces_th[i] + 0.2, 0.9 * traces_u[i]
            assert_micro_close(model.step(b_new, w0[i], th, u),
                               oracle.coupled_step(t + dt, dt, x, th, u, ref))


class TestStaggeredParity:
    """The exact step against the staggered loop it replaced."""

    @pytest.mark.parametrize("transform", list(TRANSFORMS.values()), ids=list(TRANSFORMS))
    @pytest.mark.parametrize("per_element", [False, True])
    def test_exact_step_matches_staggered_loop(self, transform, per_element):
        theta0 = lambda x: 1.0 + 0.5 * np.cos(np.pi * x[:, 0])
        runs = [make_solver(transform=transform(), macro_n=2, sources=ramp_sources,
                            solver=solver, micro_per_element=per_element
                            ).run(0.1, 0.05, theta0)
                for solver in (TwoScaleSolver, StaggeredTwoScaleSolver)]
        new, ref = runs
        assert [s.fixed_point_iterations for s in new] == [0, 1, 1]
        for a, b in zip(new, ref, strict=True):
            assert a.t == b.t and state_deviation(a, b) <= STEP_RTOL
            assert a.mech_residual < 1e-12


class TestTimeDependentSources:
    def test_ramped_sources_on_static_geometry_match_oracle(self):
        # one sample key serves every time level, so a bundle that froze the
        # source loads of the t it was built at would drift from the oracle
        f_u_b = TableSource([0.0, 0.2], [[0.0, 0.0], [2.0, -1.0]])
        f_th_b = TableSource([0.0, 0.2], [[0.0], [3.0]])
        sources = lambda t: (np.zeros(2), f_u_b(t), 0.0, float(f_th_b(t)[0]))
        theta0 = lambda x: 1.0 + 0.5 * np.cos(np.pi * x[:, 0])
        new, ref = (make_solver(macro_n=2, sources=sources, solver=solver).run(
            0.2, 0.05, theta0) for solver in (TwoScaleSolver, StaggeredTwoScaleSolver))
        assert len(new) == len(ref) == 5
        for a, b in zip(new, ref):
            assert a.t == b.t and state_deviation(a, b) <= STEP_RTOL


@dataclass(frozen=True)
class NanVelocityAfterStart(IdentityTransform):
    """The identity at t = 0, a non-finite cell velocity afterwards."""

    def sample_key(self, t, x):
        return ("nan-velocity", t > 0.0)

    def kinematics_batch(self, t, x, y):
        F, J, v = super().kinematics_batch(t, x, y)
        return F, J, v + (np.nan if t > 0.0 else 0.0)


class TestBundleFailures:
    # amplitude -40 t reaches g = -2 at the first step: J < 0 in the blend
    def test_effective_coefficients_name_solver_t_and_x(self):
        solver = make_solver(transform=growth(-40.0))
        with pytest.raises(BundleError, match=r"two-scale solver: cannot build the "
                           r"effective coefficients at t = 0\.05, x = \[") as info:
            solver.run(0.05, 0.05, lambda x: np.cos(np.pi * x[:, 0]))
        assert info.match(r"det\(F\) = -")

    def test_micro_bundle_names_solver_t_and_x(self):
        # the inclusion itself stays admissible at g = -2 (J = (1 + g)^2 in 2D),
        # so a non-finite velocity makes its bundle fail instead
        model = make_solver(transform=NanVelocityAfterStart(dim=2), macro_n=2).micro_model
        with pytest.raises(BundleError, match=r"two-scale solver: cannot build the micro "
                           r"bundle at t = 0\.05, x = \[0\.25, 0\.5\]") as info:
            model.bundle(0.05, np.array([0.25, 0.5]), 0.05)
        assert info.match("non-finite entries")

    def test_singular_micro_block_names_solver_t_and_x(self, monkeypatch):
        # every inclusion field zero: the coupled block of the step is zero
        original = twoscale.key_fields
        monkeypatch.setattr(twoscale, "key_fields", lambda *args: {
            name: a * 0.0 for name, a in original(*args).items()})
        model = make_solver(macro_n=2).micro_model
        with pytest.raises(SolverError, match=r"^two-scale solver: micro block at t = 0\.05, "
                           r"x = \[0\.25, 0\.5\]: singular factor .*exactly singular"):
            model.bundle(0.05, np.array([0.25, 0.5]), 0.05)

    def test_singular_macro_block_names_the_step_and_t(self, monkeypatch):
        solver = make_solver(macro_n=2)
        state = solver.init_state(lambda x: np.cos(np.pi * x[:, 0]))
        original = TwoScaleSolver._build_level

        def build_level(self, t):
            # no stiffness and no thermal stress: the mechanics rows vanish
            level = original(self, t)
            return dict(level, E=level["E"] * 0.0, G_alpha=level["G_alpha"] * 0.0)

        monkeypatch.setattr(TwoScaleSolver, "_build_level", build_level)
        with pytest.raises(SolverError, match=r"^two-scale solver: macro step at t = 0\.05: "
                           r"singular factor \("):
            solver.macro_step(state, 0.05)


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
        # the blocks of the last two steps; the state at t = 0 takes none
        assert sizes == [0, 1] + [2] * 19


class CountingTransform:
    """A transformation that counts its ``sample_key`` calls."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def sample_key(self, t, x):
        self.calls += 1
        return self.inner.sample_key(t, x)


class CountingFactor:
    """A :class:`~thermohom.fem.Factor` that logs each solve: whether it ran
    inside ``MicroModel.step`` (the flag list is not empty then)."""

    def __init__(self, factor, log, inside_step):
        self.factor, self.log, self.inside_step = factor, log, inside_step

    def solve(self, rhs):
        self.log.append(bool(self.inside_step))
        return self.factor.solve(rhs)


def standard_solver(slope, steps, wrap=lambda tr: tr):
    """standard.cfg with ``amplitude_x_slope = slope`` and t_final after
    ``steps`` steps: the config and its solver, whose transformation is
    ``wrap`` of the config's."""
    cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "standard.cfg")
    cfg.amplitude_x_slope, cfg.t_final = slope, steps * cfg.dt
    ctx = CellContext(build_cell_mesh(cfg.radius, cfg.cell_resolution), cfg.material(),
                      wrap(cfg.transformation()))
    provider = EffectiveProvider(ctx, sources=cfg.sources(),
                                 latent_in_source=cfg.latent_heat_in_weff,
                                 solver_tol=cfg.corrector_tol)
    return cfg, TwoScaleSolver(build_uniform_mesh(cfg.macro_resolution), provider,
                               cfg.settings())


@pytest.fixture(scope="module", params=[((), 1200), ((0.5, 0.25), 2700)],
                ids=["standard", "x_slope"])
def standard_run(request):
    """A 2-step standard.cfg run (1 sample key per time level, or 129 with
    the x slope) with a counting transformation and every stepping bundle's
    factor wrapped in a :class:`CountingFactor` once its trace responses are
    solved: the solver, the transformation, the states, the zero-trace block
    solves of each step and the sample-key call bound."""
    slope, bound = request.param
    cfg, solver = standard_solver(slope, 2, CountingTransform)
    tr = solver.provider.ctx.transformation
    log, inside_step, solves = [], [], []
    maps, step = MicroModel._maps, MicroModel.step

    def counted_maps(self, t, xs, dt):
        bundles = maps(self, t, xs, dt)     # one batch of keys
        for b in bundles if dt is not None else ():
            b["factor"] = CountingFactor(b["factor"], log, inside_step)
        return bundles

    def flagged_step(self, *args):
        inside_step.append(True)
        try:
            return step(self, *args)
        finally:
            inside_step.pop()

    def observer(state):
        solves.append(log[:])
        log.clear()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MicroModel, "_maps", counted_maps)
        mp.setattr(MicroModel, "step", flagged_step)
        states = solver.run(cfg.t_final, cfg.dt, cfg.theta0_profile(), observer=observer)
    return solver, tr, states, solves, bound


class TestSampleKeyCalls:
    # a 2-step standard.cfg run keys every quadrature point once per time
    # level (3 x 384), the provider and the micro bundles once per key:
    # 1 key per level, or 129 with the x slope
    def test_two_step_standard_run(self, standard_run):
        solver, tr, states, _, bound = standard_run
        assert len(states) == 3 and solver.n_hosts == 384
        assert tr.calls <= bound


class TestMicroSolves:
    def test_one_block_solve_per_key_pair_and_none_per_host(self, standard_run):
        # each step solves K once per new-level sample key, for the block of
        # the key's hosts, whatever their keys at the old level; the per-host
        # completion never solves
        solver, tr, states, solves, _ = standard_run
        assert solves[0] == []                      # the initial state
        for k in (1, 2):
            keys = sample_key_groups(tr.inner, states[k].t, solver.host_points)[0]
            assert len(solves[k]) == len(keys) < solver.n_hosts
            assert not any(solves[k])


@pytest.fixture(scope="module")
def graded_run():
    """A 3-step standard.cfg run with the x slope (129 sample keys per time
    level, all of one geometry at t = 0): the solver, the states, the
    :class:`~thermohom.fem.Factor` counts of each level by the prefix of
    their ``where``, every ``MicroModel._maps`` batch as (t, dt, keys), and
    after each level the entries of the cached micro bundles and whether any
    of their values is a factor."""
    cfg, solver = standard_solver((0.5, 0.25), 3)
    factors, maps, held = [Counter()], [], []
    cache = solver.micro_model.cache
    factor, build = Factor.__init__, MicroModel._maps

    def counted_factor(self, A, where, spd=False):
        factors[-1][where.split(" at ")[0]] += 1
        factor(self, A, where, spd)

    def counted_maps(self, t, xs, dt):
        maps.append((t, dt, len(xs)))
        return build(self, t, xs, dt)

    def observer(state):
        factors.append(Counter())
        bundles = [b for level in cache.levels.values() for b in level.values()]
        held.append(({frozenset(b) for b in bundles},
                     any(isinstance(v, (Factor, SuperLU)) for b in bundles for v in b.values())))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Factor, "__init__", counted_factor)
        mp.setattr(MicroModel, "_maps", counted_maps)
        states = solver.run(cfg.t_final, cfg.dt, cfg.theta0_profile(), observer=observer)
    return solver, states, factors[:-1], maps, held


class TestGeometryKeys:
    """The cell problems and the micro maps at t = 0 see (t, x) only
    through the deformed cell, so they are solved once per geometry key; at
    t = 0 the graded amplitude's 129 sample keys share one geometry."""

    def test_t0_factors_each_family_once(self, graded_run):
        solver, states, factors, _, _ = graded_run
        assert len(factors) == len(states) == 4
        assert factors[0] == {"cell correctors": 2, "two-scale solver: macro elasticity": 1,
                              "two-scale solver: micro elasticity": 1}
        assert factors[1] == {"cell correctors": 258, "two-scale solver: micro block": 129,
                              "two-scale solver: macro step": 1}
        # later levels solve the cells of the geometries the level before
        # lacks: an amplitude g(t, x) can recur at another t and x
        tr, pts = solver.provider.ctx.transformation, solver.space.qpoints.reshape(-1, 2)
        geometries = [{tr.geometry_key(s.t, x) for x in pts} for s in states]
        assert len(geometries[0]) == 1 and len(geometries[1]) == 129
        for n, step in enumerate(factors[1:], start=1):
            new = len(geometries[n] - geometries[n - 1])
            assert step == {"cell correctors": 2 * new, "two-scale solver: micro block": 129,
                            "two-scale solver: macro step": 1}
        assert len(geometries[3] - geometries[2]) == 121

    def test_micro_maps_built_once_per_level_and_key(self, graded_run):
        # one batch without dt at t = 0; then the bundles with dt of each new
        # level, one per sample key, and nothing for an old level: the states
        # carry their heat loads
        solver, states, _, maps, _ = graded_run
        tr = solver.provider.ctx.transformation
        n_keys = [len(sample_key_groups(tr, s.t, solver.host_points)[0]) for s in states]
        assert n_keys == [129] * 4
        assert maps[0] == (0.0, None, 1)
        assert all(dt is not None for _, dt, _ in maps[1:])
        times = [t for t, _, _ in maps[1:]]
        assert times == sorted(times)
        assert {s.t: sum(n for t, _, n in maps[1:] if t == s.t) for s in states[1:]} == {
            s.t: 129 for s in states[1:]}
        model, provider = solver.micro_model, solver.provider
        # the t = 0 maps bypass the cache; each step builds its 129 blocks
        # (a miss each) and its micro sweep finds them (a hit each)
        assert (model.cache.misses, model.cache.hits) == (3 * 129, 3 * 129)
        # a geometry lookup per chunk of at most 8 keys and a hit is a
        # distinct key found: t = 0 has 17 chunks of one geometry (1 miss, 16
        # hits); the steps meet 129, 129 and 121 geometries their level
        # before lacks, and 8 that it has
        assert provider.geometry.misses == 1 + 129 + 129 + 121
        assert provider.geometry.hits == 16 + 8

    def test_no_cached_bundle_keeps_a_factor(self, graded_run):
        # a moving cell releases each key's factor once its step has solved
        # its hosts; the bundles keep their maps and trace responses
        _, states, _, _, held = graded_run
        assert len(held) == len(states) == 4
        stepping = frozenset({"dt", "prev", "content", "l_J", "L_J", "W", "c_tr"})
        assert [entries for entries, _ in held] == [set()] + [{stepping}] * 3
        assert not any(factor for _, factor in held)

    def test_t0_keys_match_one_point_evaluations(self):
        cfg, solver = standard_solver((0.5, 0.25), 0)
        state = solver.init_state(cfg.theta0_profile())
        provider = solver.provider
        ctx, tr = provider.ctx, provider.ctx.transformation
        pts = solver.space.qpoints.reshape(-1, 2)
        first, _ = sample_key_groups(tr, 0.0, pts)
        assert len(first) == 129
        # 17 chunks of at most 8 keys, one geometry: one cell solve
        assert (provider.geometry.misses, provider.geometry.hits) == (1, 16)
        for x, eff in zip(pts[first], provider.at_points(0.0, pts[first])):
            one = EffectiveProvider(ctx, sources=provider.sources,
                                    latent_in_source=provider.latent_in_source,
                                    solver_tol=provider.solver_tol).at(0.0, x)
            for f in fields(eff):
                assert np.array_equal(getattr(eff, f.name), getattr(one, f.name)), f.name

        # the micro states at each key's first host against the host alone;
        # a content is a row of one matrix-vector product over the block, and
        # BLAS sums a row in an order that depends on its place in the block
        hosts = solver.host_points
        traces_th, traces_u = solver.traces_at_hosts(state.theta, state.u)
        one = (np.array([0]), np.array([0]))
        for i in sample_key_groups(tr, 0.0, hosts)[0]:
            theta, u, content, _ = MicroModel(ctx, sources=provider.sources).initial_states(
                0.0, hosts[i:i + 1], one, traces_th[i:i + 1], traces_u[i:i + 1])
            assert np.array_equal(state.micro_theta[i], theta[0])
            assert np.array_equal(state.micro_u[i], u[0])
            assert abs(state.micro_content[i] - content[0]) <= 4e-16 * abs(content[0])

    def test_tabulated_keys_share_no_bundle(self):
        # a two-anchor identity table: the geometry key is the sample key, so
        # the two anchors' hosts take one map each, even at t = 0
        Y = np.stack(np.meshgrid(*[np.linspace(0.0, 1.0, 3)] * 2, indexing="ij"),
                     axis=-1).reshape(-1, 2)
        tab = TabulatedTransform(2, np.linspace(0.0, 1.0, 3), [[0.75, 0.5], [0.25, 0.5]],
                                 3, np.broadcast_to(Y, (3, 2) + Y.shape))
        solver = make_solver(transform=tab, macro_n=2)
        xs = solver.host_points
        for t in (0.0, 0.05):
            assert all(tab.geometry_key(t, x) == tab.sample_key(t, x) for x in xs)
        groups = sample_key_groups(tab, 0.0, xs)
        assert len(groups[0]) == 2
        model, maps, built = solver.micro_model, MicroModel._maps, []
        model._maps = lambda t, xs, dt: built.append(len(xs)) or maps(model, t, xs, dt)
        model.initial_states(0.0, xs, groups, np.ones(len(xs)), np.zeros((len(xs), 2)))
        # one batch of the two geometries' maps, outside the cache
        assert built == [2] and model.cache.misses == 0


class TestMicroFactors:
    def test_static_cell_factors_its_block_once(self, monkeypatch):
        # the identity keeps every geometry key, so each step reuses the one
        # factor of the micro block and the cache keeps it
        solver = make_solver(macro_n=2)
        counts, factor = Counter(), Factor.__init__

        def counted_factor(self, A, where, spd=False):
            counts[where.split(" at ")[0]] += 1
            factor(self, A, where, spd)

        monkeypatch.setattr(Factor, "__init__", counted_factor)
        states = solver.run(0.25, 0.05, lambda x: np.cos(np.pi * x[:, 0]))
        assert len(states) == 6
        assert counts["two-scale solver: micro block"] == 1
        assert counts["two-scale solver: macro step"] == 5
        cache = solver.micro_model.cache
        assert len({id(b) for level in cache.levels.values() for b in level.values()
                    if "factor" in b}) == 1

    def test_breached_zero_trace_solve_names_the_micro_block_t_and_x(self, monkeypatch):
        # the trace responses are solved exactly, then every solution is off
        # by a relative 1e-6: the first zero-trace block solve raises
        class Inaccurate:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, B):
                return self.lu.solve(B) * (1.0 + 1e-6)

        build = MicroModel._maps

        def inaccurate_maps(self, t, xs, dt):
            bundles = build(self, t, xs, dt)
            for b in bundles if dt is not None else ():
                b["factor"].lu = Inaccurate(b["factor"].lu)
            return bundles

        monkeypatch.setattr(MicroModel, "_maps", inaccurate_maps)
        solver = make_solver(macro_n=2)
        with pytest.raises(SolverError, match=r"^two-scale solver: micro block at t = 0\.05, "
                           r"x = \[[-0-9.e]+, [-0-9.e]+\]: relative residual \S+ exceeds "
                           r"RESIDUAL_MAX 1e-10$"):
            solver.run(0.05, 0.05, lambda x: np.cos(np.pi * x[:, 0]))
