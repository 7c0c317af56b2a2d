import dataclasses
import tracemalloc
import weakref
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from thermohom import fem, reference
from thermohom.cell import CellContext
from thermohom.effective import EffectiveProvider
from thermohom.fem import Factor, P1Space, SolverError, assemble_operator
from thermohom.kinematics import (
    PHASE_A,
    PHASE_B,
    IdentityTransform,
    PolynomialAmplitude,
    RadialGrowth,
    default_material,
)
from thermohom.mesh import build_cell_mesh, build_epsilon_mesh, build_uniform_mesh
from thermohom.reference import (
    BundleError,
    EpsilonSolution,
    EpsilonSolver,
    apriori_norm_bundle,
    macro_transfer,
    operator_structure_checks,
    two_scale_compare,
)
from thermohom.twoscale import FixedPointError, SolverSettings, TwoScaleSolver, time_levels


def growth(rate=0.1):
    return RadialGrowth(dim=2, inclusion_radius=0.25,
                        amplitude=PolynomialAmplitude((0.0, rate)))


def decoupled_material():
    return default_material(
        2, expansion_a=0.0, expansion_b=0.0, dissipation_a=0.0,
        dissipation_b=0.0, surface_tension=0.0, latent_heat=0.0,
    )


@pytest.fixture(scope="module")
def cell8():
    return build_cell_mesh(0.25, 8, dim=2)


def held_over_shortened_steps(sol):
    """A one-step solution's state held over the steps 0.05, 0.05 and 0.02 of
    ``t_final`` 0.12, ``dt`` 0.05; its time integrals are 0.12 / 0.05 times
    the one step's."""
    return EpsilonSolution(
        eps=sol.eps, times=[0.0, 0.05, 0.1, 0.12], theta=sol.theta[:1] + 3 * sol.theta[1:],
        u=sol.u[:1] + 3 * sol.u[1:], mesh=sol.mesh, fixed_point_iterations=[1] * 3)


class TestEpsilonSolver:
    def test_constant_state_static_transform(self, cell8):
        mat = default_material(2, dissipation_a=0.0, dissipation_b=0.0)
        solver = EpsilonSolver(cell8, mat, IdentityTransform(dim=2), 0.5)
        sol = solver.solve(0.2, 0.05, lambda x: np.full(len(x), 3.0))
        for th in sol.theta:
            assert np.max(np.abs(th - 3.0)) < 1e-10

    def test_times_are_the_time_levels(self, cell8):
        # six additions of 0.05 give 0.3; the run ends at t_final itself
        t_final = 6 * 0.05
        sol = EpsilonSolver(cell8, default_material(2), growth(), 0.5).solve(
            t_final, 0.05, lambda x: np.cos(np.pi * x[:, 0]))
        assert sol.times == time_levels(t_final, 0.05)
        assert sol.times[-1] == t_final

    def test_decoupled_heat_ignores_elastic_loads(self, cell8):
        mat = decoupled_material()
        theta0 = lambda x: np.cos(np.pi * x[:, 0])

        def run(load):
            sources = lambda t: (np.array([load, 0.0]), np.zeros(2), 0.0, 0.0)
            solver = EpsilonSolver(cell8, mat, IdentityTransform(dim=2), 0.5,
                                   sources=sources)
            return solver.solve(0.1, 0.05, theta0)

        a, b = run(0.0), run(3.0)
        for ta, tb in zip(a.theta, b.theta):
            assert np.array_equal(ta, tb)
        assert not np.array_equal(a.u[-1], b.u[-1])

    def test_stalled_loop_raises_named_error(self, cell8):
        settings = SolverSettings(fixed_point_max_iter=1, fixed_point_tol=1e-30)
        solver = EpsilonSolver(cell8, default_material(2), growth(), 0.5,
                               settings=settings)
        with pytest.raises(FixedPointError, match=r"resolved solver.*t = 0\.05"):
            solver.solve(0.05, 0.05, lambda x: np.cos(np.pi * x[:, 0]))

    def test_one_elasticity_factor_alive_at_a_time(self, cell8, monkeypatch):
        """One time level is alive at a time: no earlier elasticity factor is
        alive when one is built, and neither an earlier level's bundle nor
        any factor is alive when a level is built, since a step carries only
        ``M_c theta`` and ``G_gamma^T u`` from the level before."""
        factors, bundles, at_factor, at_bundle = [], [], [], []

        def alive(refs):
            return [ref() is not None for ref in refs]

        class Recording(Factor):
            def __init__(self, A, where, spd=False):
                at_factor.append(alive(factors))
                super().__init__(A, where, spd)
                factors.append(weakref.ref(self))

        class Bundle(dict):      # a plain dict takes no weak reference
            pass

        operators = EpsilonSolver._operators

        def recording_operators(solver, t):
            at_bundle.append((alive(bundles), alive(factors)))
            b = Bundle(operators(solver, t))
            bundles.append(weakref.ref(b))
            return b

        monkeypatch.setattr(fem, "Factor", Recording)
        monkeypatch.setattr(EpsilonSolver, "_operators", recording_operators)
        solver = EpsilonSolver(cell8, default_material(2), growth(), 0.25)
        solver.solve(0.15, 0.05, lambda x: np.cos(np.pi * x[:, 0]))
        assert at_factor == [[False] * k for k in range(4)]
        assert at_bundle == [([False] * k, [False] * k) for k in range(4)]

    def test_warm_bundle_peak_memory(self, cell8):
        """Built on warm scatters, a bundle allocates at most twice the bytes
        of the arrays it returns: its operators come from per-key cell blocks
        one form at a time, with no field over the epsilon mesh's quadrature
        points (measured 1.6x; a gather of every field onto those points
        measures 2.8x)."""
        slope = RadialGrowth(dim=2, inclusion_radius=0.25,
                             amplitude=PolynomialAmplitude((0.0, 0.1), (0.5, 0.0)))
        sources = lambda t: (np.array([0.3, -0.2]), np.array([-0.1, 0.4]), 0.5, -0.7)
        solver = EpsilonSolver(cell8, default_material(2), slope, 0.25, sources=sources)
        solver.bundle(0.0)
        tracemalloc.start()
        try:
            b = solver.bundle(0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = {id(a): a.nbytes for v in b.values()
                    for a in ((v.data, v.indices, v.indptr) if sp.issparse(v) else (v,))}
        assert peak <= 2 * sum(returned.values())

    def test_manufactured_diffusion_convergence(self):
        # manufactured theta = exp(-t) cos(pi x) cos(pi y): phase-wise bulk
        # sources plus the interface flux-jump load (the smooth field does not
        # satisfy the eps^2-scaled transmission condition by itself)
        import scipy.sparse.linalg as spla

        from thermohom.fem import assemble_interface_load, assemble_scalar_load

        mat = decoupled_material()
        tr = IdentityTransform(dim=2)
        eps = 0.5
        t_final, dt = 0.05, 1e-3

        def profile(p):
            return np.cos(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])

        def grad_profile(p):
            gx = -np.pi * np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])
            gy = -np.pi * np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
            return np.stack([gx, gy], axis=1)

        errors = []
        resolutions = (4, 8, 16)
        for n in resolutions:
            cell = build_cell_mesh(0.25, n, dim=2)
            solver = EpsilonSolver(cell, mat, tr, eps)
            mesh = solver.mesh
            lhs = None
            theta = profile(mesh.vertices)
            b = solver.bundle(0.0)
            lhs = (b["M_c"] / dt + b["A_K"]).tocsc()
            lu = spla.splu(lhs)
            sa = P1Space(mesh, element_mask=mesh.phase == PHASE_A)
            sb = P1Space(mesh, element_mask=mesh.phase == PHASE_B)
            load_a = assemble_scalar_load(sa, profile)
            load_b = assemble_scalar_load(sb, profile)
            centroids = mesh.facet_centroids()
            jump = -(1.0 - eps**2) * np.einsum(
                "fd,fd->f", grad_profile(centroids), mesh.interface_normals)
            load_jump = assemble_interface_load(mesh, None, values=jump)
            smooth = 2.0 * np.pi**2

            t = 0.0
            while t < t_final - 1e-12:
                t += dt
                amp = np.exp(-t)
                rhs = (b["M_c"] @ theta) / dt
                rhs += amp * ((smooth - 1.0) * load_a
                              + (eps**2 * smooth - 1.0) * load_b + load_jump)
                theta = lu.solve(rhs)
            exact = np.exp(-t_final) * profile(mesh.vertices)
            M = assemble_operator(mesh, "mass", 1.0)
            diff = theta - exact
            errors.append(np.sqrt(diff @ (M @ diff)))
        order = -np.polyfit(np.log(resolutions), np.log(errors), 1)[0]
        assert order > 1.8


@dataclass(frozen=True)
class NanVelocityAfterStart(IdentityTransform):
    """The identity at t = 0, a non-finite cell velocity afterwards."""

    def sample_key(self, t, x):
        return ("nan-velocity", t > 0.0)

    def kinematics_batch(self, t, x, y):
        F, J, v = super().kinematics_batch(t, x, y)
        return F, J, v + (np.nan if t > 0.0 else 0.0)


# the resolved elasticity solved in symmetric mode against COLAMD with
# partial pivoting, per column in max norm relative to the COLAMD solution
# (measured: at most 2.5e-14 in 2D at eps 1/8, 3.8e-15 in 3D at eps 1/2)
FACTOR_RTOL = 1e-12


@pytest.mark.parametrize("d,eps", [(2, 1 / 8), (3, 1 / 2)], ids=["2d", "3d"])
def test_elasticity_factor_matches_colamd(d, eps):
    cell = build_cell_mesh(0.25, 8 if d == 2 else 4, dim=d)
    solver = EpsilonSolver(cell, default_material(d), RadialGrowth(
        dim=d, inclusion_radius=0.25, amplitude=PolynomialAmplitude((0.0, 0.1))), eps)
    b = solver.bundle(0.05)
    R = solver.mech_basis.restriction
    E = solver.mech_basis.reduce_matrix(b["E"]).tocsc()
    theta = np.cos(np.pi * solver.mesh.vertices[:, 0])
    B = np.column_stack([R.T @ (b["G_alpha"] @ theta + b["mech_surface"]),
                         np.random.default_rng(2).standard_normal((E.shape[0], 2))])
    got = solver.mech_basis.factor(b["E"], "test")(R @ B)
    ref = R @ spla.splu(E, permc_spec="COLAMD").solve(B)
    assert np.all(np.max(np.abs(got - ref), axis=0)
                  <= FACTOR_RTOL * np.max(np.abs(ref), axis=0))


class TestBundleFailures:
    @pytest.mark.parametrize("cause, detail", [
        ("inadmissible", r"det\(F\) = -"),
        ("non_finite", "non-finite entries"),
    ], ids=["inadmissible", "non_finite"])
    def test_solve_names_solver_and_t(self, cell8, cause, detail):
        # amplitude -40 t reaches g = -2 at the first step: J < 0 in the blend
        tr = growth(-40.0) if cause == "inadmissible" else NanVelocityAfterStart(dim=2)
        solver = EpsilonSolver(cell8, default_material(2), tr, 0.5)
        with pytest.raises(BundleError, match=r"resolved solver.*t = 0\.05") as info:
            solver.solve(0.05, 0.05, lambda x: np.cos(np.pi * x[:, 0]))
        assert info.match(detail)

    @pytest.mark.parametrize("fault", [
        lambda x: x * (1.0 + 1e-6),          # an inaccurate solve
        lambda x: np.full_like(x, np.nan),   # what a singular matrix returns
    ], ids=["perturbed", "nan"])
    def test_bad_heat_solve_names_solver_and_t(self, cell8, monkeypatch, fault):
        original = spla.spsolve
        monkeypatch.setattr(reference.spla, "spsolve",
                            lambda A, b, **kwargs: fault(original(A, b, **kwargs)))
        solver = EpsilonSolver(cell8, default_material(2), growth(), 0.5)
        with pytest.raises(SolverError, match=r"^resolved solver: heat at t = 0\.05: "
                           r"relative residual \S+ exceeds RESIDUAL_MAX 1e-10$"):
            solver.solve(0.1, 0.05, lambda x: np.cos(np.pi * x[:, 0]))


class TestNormBundle:
    def test_constant_one_zero_displacement(self, cell8):
        # hand evaluation: theta = 1, u = 0 gives (|Omega|^(1/2), 0, 0, 0, 0, 0)
        from thermohom.mesh import build_epsilon_mesh

        mesh = build_epsilon_mesh(cell8, 0.5)
        ones = np.ones(len(mesh.vertices))
        zeros = np.zeros(2 * len(mesh.vertices))
        sol = EpsilonSolution(
            eps=0.5, times=[0.0, 0.05], theta=[ones, ones], u=[zeros, zeros],
            mesh=mesh, fixed_point_iterations=[1],
        )
        nb = apriori_norm_bundle(sol)
        assert nb.linf_theta == pytest.approx(1.0, abs=1e-10)
        # zero norms sit at the sqrt of the quadratic-form rounding floor
        assert np.max(np.abs(nb.as_array()[1:])) < 1e-6

    def test_shortened_last_step_weighs_its_length(self, cell8):
        one = EpsilonSolver(cell8, default_material(2), growth(), 0.5).solve(
            0.05, 0.05, lambda x: np.cos(np.pi * x[:, 0]))
        held = held_over_shortened_steps(one)
        # the gradient norms are time integrals, the others maxima over t
        scale = np.sqrt([1.0, 0.12 / 0.05, 0.12 / 0.05, 1.0, 1.0, 1.0])
        assert np.allclose(apriori_norm_bundle(held).as_array(),
                           scale * apriori_norm_bundle(one).as_array(), rtol=1e-12, atol=0.0)

    def test_zero_solution(self, cell8):
        mat = decoupled_material()
        solver = EpsilonSolver(cell8, mat, IdentityTransform(dim=2), 0.5)
        sol = solver.solve(0.1, 0.05, lambda x: np.zeros(len(x)))
        assert np.max(np.abs(apriori_norm_bundle(sol).as_array())) < 1e-12

    def test_random_field_matches_dense_quadrature(self, cell8):
        from thermohom.mesh import build_epsilon_mesh

        mesh = build_epsilon_mesh(cell8, 0.5)
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(len(mesh.vertices))
        M = assemble_operator(mesh, "mass", 1.0)
        fast = theta @ (M @ theta)
        # dense quadrature oracle: high-order rule per element
        space = P1Space(mesh)
        # degree-4 rule on triangles (6 points)
        pts = np.array([
            [0.44594849091597, 0.44594849091597, 0.10810301816807],
            [0.44594849091597, 0.10810301816807, 0.44594849091597],
            [0.10810301816807, 0.44594849091597, 0.44594849091597],
            [0.09157621350977, 0.09157621350977, 0.81684757298046],
            [0.09157621350977, 0.81684757298046, 0.09157621350977],
            [0.81684757298046, 0.09157621350977, 0.09157621350977],
        ])
        w = np.array([0.22338158967801] * 3 + [0.10995174365532] * 3)
        vals = np.einsum("qi,ei->eq", pts, theta[mesh.cells])
        slow = np.einsum("eq,q,e->", vals**2, w, space.volumes)
        assert np.isclose(fast, slow, rtol=1e-12)


class TestOperatorStructure:
    def test_identity_transform_time_frozen(self, cell8):
        rep = operator_structure_checks(
            cell8, default_material(2), IdentityTransform(dim=2), 0.5,
            t_samples=(0.0, 0.5), n_random=20,
        )
        assert rep.passed
        assert rep.time_difference_bound < 1e-10
        assert rep.elastic_min_rayleigh > 0.0

    def test_growth_transform_structure(self, cell8):
        rep = operator_structure_checks(
            cell8, default_material(2), growth(0.1), 0.5,
            t_samples=(0.0, 0.5, 1.0), n_random=20,
        )
        assert rep.passed, rep.summary()
        assert rep.composition_symmetry_defect < 1e-8
        assert rep.composition_min_quadform > -1e-10
        assert np.isfinite(rep.time_difference_bound)

    @pytest.mark.parametrize("static", [True, False], ids=["identity", "growth"])
    def test_matches_solve_block_oracle(self, cell8, static):
        # the reduced solve lifted by R is bitwise the multiplier block
        # solve of the reduced system, offset included, under one factor
        from reference_oracle import operator_structure_checks as oracle_checks
        args = (cell8, default_material(2),
                IdentityTransform(dim=2) if static else growth(0.1), 0.5)
        kwargs = dict(t_samples=(0.0, 0.5, 1.0), n_random=20)
        assert operator_structure_checks(*args, **kwargs) == oracle_checks(*args, **kwargs)

    def test_zero_dissipation_kills_composition(self, cell8):
        mat = default_material(2, dissipation_a=0.0, dissipation_b=0.0)
        rep = operator_structure_checks(
            cell8, mat, IdentityTransform(dim=2), 0.5,
            t_samples=(0.0,), n_random=10,
        )
        assert rep.composition_symmetry_defect == 0.0


class TestTraceEstimate:
    def test_eps_scaled_trace_constant_transfers(self, cell8):
        # fit C on the coarsest tiling, reuse it (with a fitting margin) on
        # the finer ones: eps ||th||^2_Gamma <= C (||th||^2 + eps^2 ||grad th||^2)
        from thermohom.mesh import build_epsilon_mesh
        from helpers import interface_trace_norm

        from thermohom.reference import gradient_matrices

        rng = np.random.default_rng(11)

        def ratios(eps, n_fields=40):
            mesh = build_epsilon_mesh(cell8, eps)
            M = assemble_operator(mesh, "mass", 1.0)
            G = gradient_matrices(mesh)
            A_full = G["scalar_a"] + G["scalar_b"]
            out = []
            for _ in range(n_fields):
                th = rng.standard_normal(len(mesh.vertices))
                # include smooth fields too: nodal noise alone is atypical
                th += 3.0 * np.cos(np.pi * mesh.vertices[:, 0])
                trace2 = eps * interface_trace_norm(mesh, th) ** 2
                bulk2 = th @ (M @ th) + eps**2 * (th @ (A_full @ th))
                out.append(trace2 / bulk2)
            return np.array(out)

        fitted = ratios(0.5).max() * 1.1  # fitting margin, documented
        for eps in (0.25, 0.125):
            assert ratios(eps).max() <= fitted


class TestMacroInterpolation:
    def test_reproduces_nodal_field(self):
        mesh = build_uniform_mesh(4, dim=2)
        rng = np.random.default_rng(0)
        field = rng.standard_normal(len(mesh.vertices))
        vals = macro_transfer(mesh, mesh.vertices) @ field
        assert np.max(np.abs(vals - field)) < 1e-12

    def test_exact_on_linears(self):
        mesh = build_uniform_mesh(8, dim=2)
        field = 2.0 * mesh.vertices[:, 0] - 0.7 * mesh.vertices[:, 1] + 0.3
        rng = np.random.default_rng(1)
        pts = rng.random((100, 2))
        vals = macro_transfer(mesh, pts) @ field
        exact = 2.0 * pts[:, 0] - 0.7 * pts[:, 1] + 0.3
        assert np.max(np.abs(vals - exact)) < 1e-12

    def test_exact_on_affine_fields_3d(self):
        mesh = build_uniform_mesh(4, dim=3)
        coef, c0 = np.array([2.0, -0.7, 1.3]), 0.3
        field = mesh.vertices @ coef + c0
        pts = np.random.default_rng(1).random((200, 3))
        vals = macro_transfer(mesh, pts) @ field
        assert np.max(np.abs(vals - (pts @ coef + c0))) < 1e-12

    def test_matches_p1_field_inside_each_tetrahedron_3d(self):
        # a generic nodal field is only piecewise affine, so this checks that
        # every point is located in the simplex that holds it
        mesh = build_uniform_mesh(2, dim=3)
        space = P1Space(mesh)
        field = np.random.default_rng(4).standard_normal(len(mesh.vertices))
        bary = np.random.default_rng(5).dirichlet(np.ones(4), size=len(mesh.cells))
        pts = np.einsum("ei,eid->ed", bary, mesh.vertices[space.cells])
        exact = np.einsum("ei,ei->e", bary, field[space.cells])
        vals = macro_transfer(mesh, pts) @ field
        assert np.max(np.abs(vals - exact)) < 1e-12

    @pytest.mark.parametrize("dim, n", [(2, 3), (3, 2)])
    def test_locates_points_on_a_mirrored_mesh(self, dim, n):
        # the uniform mesh mirrored in x on the same vertices: each box keeps
        # its vertices, but its square (2D, odd n) or cube (3D) is split along
        # the other diagonal
        mesh = build_uniform_mesh(n, dim=dim)
        at = np.rint(mesh.vertices * n).astype(int)
        at[:, 0] = n - at[:, 0]
        mirror = np.ravel_multi_index(at.T, (n + 1,) * dim)
        mesh = dataclasses.replace(mesh, cells=mirror[mesh.cells][:, [1, 0, *range(2, dim + 1)]])
        space = P1Space(mesh)
        field = np.random.default_rng(6).standard_normal(len(mesh.vertices))
        exact = np.einsum("qi,ei->eq", space.shape_values, field[space.cells])
        vals = macro_transfer(mesh, space.qpoints.reshape(-1, dim)) @ field
        assert np.max(np.abs(vals - exact.ravel())) < 1e-12


class TestTwoScaleCompare:
    @pytest.mark.parametrize("dim, macro_n, eps, cell_n, per_element", [
        (2, 4, 0.25, 8, False), (3, 2, 0.5, 4, False), (3, 2, 0.5, 4, True)])
    def test_affine_fields_leave_no_error(self, dim, macro_n, eps, cell_n, per_element):
        # each level's own affine field, given on the resolved mesh, the macro
        # mesh and every host's inclusion vertices in the tile holding the
        # host: a wrong host, tile or micro vertex, or a mislocated macro
        # point, leaves an error of order one
        cell = build_cell_mesh(0.25, cell_n, dim=dim)
        tr, mat = IdentityTransform(dim=dim), default_material(dim)
        hom_solver = TwoScaleSolver(build_uniform_mesh(macro_n, dim=dim),
                                    EffectiveProvider(CellContext(cell, mat, tr)),
                                    SolverSettings(micro_per_element=per_element))
        rng = np.random.default_rng(dim)
        fields = [(rng.standard_normal(dim), rng.standard_normal()) for _ in range(3)]
        f = lambda k, x: x @ fields[k][0] + fields[k][1]
        tiles = np.floor(hom_solver.host_points / eps)
        micro_x = eps * (hom_solver.micro_model.ctx.sub_b.mesh.vertices + tiles[:, None])
        states = [SimpleNamespace(theta=f(k, hom_solver.mesh.vertices),
                                  micro_theta=f(k, micro_x)) for k in range(3)]
        mesh = build_epsilon_mesh(cell, eps)
        sol = EpsilonSolution(eps=eps, times=[0.0, 0.05, 0.1],
                              theta=[f(k, mesh.vertices) for k in range(3)], u=None,
                              mesh=mesh, fixed_point_iterations=[1, 1])
        row = reference._compare_one(sol, hom_solver, states)
        assert max(row.error_matrix, row.error_inclusion, row.interp_floor) <= 1e-14

    def test_constant_solution_all_errors_vanish(self, cell8):
        mat = default_material(2, dissipation_a=0.0, dissipation_b=0.0,
                               latent_heat=0.0, surface_tension=0.0)
        rows = two_scale_compare(
            cell8, mat, IdentityTransform(dim=2), [0.5], 0.1, 0.05,
            lambda x: np.full(len(x), 2.0), macro_resolution=4,
        )
        assert rows[0].error_matrix < 1e-9
        assert rows[0].error_inclusion < 1e-9

    def test_shortened_last_step_weighs_its_length(self, cell8):
        mat, tr = decoupled_material(), IdentityTransform(dim=2)
        theta0 = lambda x: np.cos(np.pi * x[:, 0])
        provider = EffectiveProvider(CellContext(cell8, mat, tr))
        hom_solver = TwoScaleSolver(build_uniform_mesh(4, dim=2), provider, SolverSettings())
        hom = hom_solver.run(0.05, 0.05, theta0)
        one = EpsilonSolver(cell8, mat, tr, 0.5).solve(0.05, 0.05, theta0)
        rows = [reference._compare_one(sol, hom_solver, states) for sol, states in
                ((one, hom), (held_over_shortened_steps(one), hom[:1] + 3 * hom[1:]))]
        got = np.array([[r.error_matrix, r.error_inclusion, r.interp_floor] for r in rows])
        assert np.all(got[0] > 0.0)
        assert np.allclose(got[1], np.sqrt(0.12 / 0.05) * got[0], rtol=1e-12, atol=0.0)

    def test_one_row_per_eps(self, cell8):
        mat = decoupled_material()
        rows = two_scale_compare(
            cell8, mat, IdentityTransform(dim=2), [0.5, 0.25], 0.05, 0.05,
            lambda x: np.cos(np.pi * x[:, 0]), macro_resolution=4,
        )
        assert len(rows) == 2
        assert rows[0].eps == 0.5 and rows[1].eps == 0.25
