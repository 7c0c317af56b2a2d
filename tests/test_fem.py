import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from helpers import (
    augmented,
    augmented_matrix,
    coo_assemble_operator,
    dense_oracle_solve,
    element_scatter_oracle,
    export_coordinate_text,
    solve_block,
    solve_direct,
    symmetry_defect,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hilbert

from thermohom.cell import CellContext
from thermohom.fem import (
    ConstraintError,
    ConstraintSet,
    ElementScatter,
    FORMS,
    RESIDUAL_MAX,
    Factor,
    P1Space,
    SolverError,
    apply_constraints,
    assemble_gradient_load,
    assemble_interface_load,
    assemble_operator,
    assemble_scalar_load,
    assemble_strain_load,
    assemble_vector_load,
    key_einsum,
    scatter_load,
    solve_spd,
    vector_mass,
    weak_form,
)
from thermohom.kinematics import isotropic_stiffness
from thermohom.mesh import Mesh, build_cell_mesh, build_epsilon_mesh, build_uniform_mesh
from thermohom.twoscale import MicroModel


def reference_triangle():
    return Mesh(
        dim=2,
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        cells=np.array([[0, 1, 2]]),
        phase=np.zeros(1, dtype=np.uint8),
        interface_facets=np.zeros((0, 2), dtype=int),
        interface_normals=np.zeros((0, 2)),
        periodic_pairs=np.zeros((0, 2), dtype=int),
    )


class TestAssembly:
    def test_reference_triangle_stiffness(self):
        # hand-integrated P1 stiffness for the unit right triangle, K = I
        A = assemble_operator(reference_triangle(), "scalar_diffusion", np.eye(2))
        expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        assert np.allclose(A.toarray(), expected, atol=1e-14)

    def test_diffusion_interior_row_sums_vanish(self):
        mesh = build_uniform_mesh(8, dim=2)
        A = assemble_operator(mesh, "scalar_diffusion", np.eye(2))
        interior = ~mesh.boundary_vertex_mask()
        sums = np.asarray(A.sum(axis=1)).ravel()
        assert np.max(np.abs(sums[interior])) < 1e-12

    def test_mass_total(self):
        mesh = build_uniform_mesh(8, dim=2)
        M = assemble_operator(mesh, "mass", 1.0)
        assert abs(M.sum() - 1.0) < 1e-10

    def test_mass_total_3d(self):
        mesh = build_uniform_mesh(3, dim=3)
        M = assemble_operator(mesh, "mass", 1.0)
        assert abs(M.sum() - 1.0) < 1e-10

    def test_symmetry_of_symmetric_forms(self):
        mesh = build_cell_mesh(0.25, 8, dim=2)
        for kind, coeff in (
            ("scalar_diffusion", np.eye(2)),
            ("mass", 2.0),
            ("elasticity", isotropic_stiffness(1.0, 1.0, 2)),
        ):
            A = assemble_operator(mesh, kind, coeff)
            assert symmetry_defect(A) < 1e-12

    def test_elasticity_annihilates_rigid_motions(self):
        mesh = build_uniform_mesh(6, dim=2)
        A = assemble_operator(mesh, "elasticity", isotropic_stiffness(1.2, 0.8, 2))
        x = mesh.vertices
        translations = [np.tile([1.0, 0.0], len(x)), np.tile([0.0, 1.0], len(x))]
        rotation = np.stack([-x[:, 1], x[:, 0]], axis=1).ravel()
        for k in translations + [rotation]:
            assert np.max(np.abs(A @ k)) < 1e-10

    def test_diffusion_annihilates_constants(self):
        mesh = build_cell_mesh(0.25, 8, dim=2)
        A = assemble_operator(mesh, "scalar_diffusion", np.eye(2))
        assert np.max(np.abs(A @ np.ones(A.shape[0]))) < 1e-10

    def test_coupling_matrix_matches_quadrature(self):
        # <G theta, v> = int theta alpha : grad v on a single element
        mesh = reference_triangle()
        alpha = np.array([[2.0, 0.5], [0.0, 1.0]])
        G = assemble_operator(mesh, "coupling", alpha)
        theta = np.array([1.0, 2.0, 3.0])
        space = P1Space(mesh)
        v = np.array([0.3, -0.1], )
        # affine test field v(x) = B x with gradient B
        B = np.array([[0.25, -0.5], [1.5, 0.75]])
        vvec = (mesh.vertices @ B.T).ravel()
        lhs = vvec @ (G @ theta)
        # exact: int theta dx * (alpha : B); theta mean = 2, area = 1/2
        rhs = 0.5 * 2.0 * np.einsum("ad,ad->", alpha, B)
        assert np.isclose(lhs, rhs, rtol=1e-12)

    def test_advection_matrix_matches_quadrature(self):
        mesh = reference_triangle()
        wfield = np.array([0.7, -0.2])
        N = assemble_operator(mesh, "advection", wfield)
        theta = np.array([1.0, 2.0, 3.0])
        g = np.array([0.4, 1.1])
        test = mesh.vertices @ g  # affine scalar test function
        lhs = test @ (N @ theta)
        rhs = 0.5 * 2.0 * (wfield @ g)  # int theta * w . grad(test)
        assert np.isclose(lhs, rhs, rtol=1e-12)

    def test_advective_dissipation_matches_quadrature(self):
        # int (gamma : grad u) v . grad(test) on a single element, constant
        # v and gamma, affine u = B x and test function g . x
        mesh = reference_triangle()
        space = P1Space(mesh)
        v, gamma = np.array([0.7, -0.2]), np.array([[2.0, 0.5], [-0.3, 1.0]])
        pattern = space.pattern("dissipation")
        A = pattern.matrix(pattern.data(weak_form(
            space, "advective_dissipation", np.broadcast_to(v, (1, 3, 2)),
            np.broadcast_to(gamma, (1, 3, 2, 2)))[None])[0])
        assert A.shape == (3, 6)
        B = np.array([[0.25, -0.5], [1.5, 0.75]])
        g = np.array([0.4, 1.1])
        lhs = (mesh.vertices @ g) @ (A @ (mesh.vertices @ B.T).ravel())
        rhs = 0.5 * np.sum(gamma * B) * (v @ g)
        assert np.isclose(lhs, rhs, rtol=1e-12)


KIND_VALUE_SHAPES = {
    "mass": lambda d: (),
    "scalar_diffusion": lambda d: (d, d),
    "elasticity": lambda d: (d, d, d, d),
    "advection": lambda d: (d,),
    "coupling": lambda d: (d, d),
}
KIND_LAYOUTS = {"mass": "scalar", "scalar_diffusion": "scalar", "advection": "scalar",
                "elasticity": "vector", "coupling": "coupling"}


def coo_matrix_of(row_dofs, col_dofs, shape, blocks):
    """The CSR matrix of (e, rows, cols) element blocks through a fresh COO."""
    r = np.repeat(row_dofs, col_dofs.shape[1], axis=1).ravel()
    c = np.tile(col_dofs, (1, row_dofs.shape[1])).ravel()
    return sp.coo_matrix((blocks.ravel(), (r, c)), shape=shape).tocsr()


def selection(rows, n, n_cols, cols=None):
    """The (n x n_cols) matrix with a unit entry at (rows[i], cols[i]),
    cols defaulting to 0, 1, ..."""
    cols = np.arange(len(rows)) if cols is None else cols
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n_cols))


class TestCachedPattern:
    """The element-block scatters against fresh COO assemblies: the CSR
    operators through the pattern cached on the space against
    ``helpers.coo_assemble_operator``, the restricted CSC systems against
    ``R^T A R``."""

    @pytest.fixture(scope="class", params=[(2, False), (2, True), (3, False), (3, True)],
                    ids=["2d", "2d-mask", "3d", "3d-mask"])
    def space(self, request):
        d, masked = request.param
        mesh = build_cell_mesh(0.25, 8 if d == 2 else 4, dim=d)
        return P1Space(mesh, element_mask=mesh.phase == 1 if masked else None)

    @staticmethod
    def coefficient(space, kind, seed=0):
        shape = (len(space.cells), len(space.qweights)) + KIND_VALUE_SHAPES[kind](space.dim)
        return np.random.default_rng(seed).standard_normal(shape)

    @pytest.mark.parametrize("kind", sorted(KIND_VALUE_SHAPES))
    def test_matches_coo_scatter(self, space, kind):
        coeff = self.coefficient(space, kind)
        got = assemble_operator(space.mesh, kind, coeff, space=space)
        ref = coo_assemble_operator(space, kind, coeff)
        assert got.shape == ref.shape
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        # entries that cancel have no relative precision: the absolute floor
        # is the same 1e-14 relative to the largest entry
        scale = np.max(np.abs(ref.data))
        assert np.allclose(got.data, ref.data, rtol=1e-14, atol=1e-14 * scale)

    @pytest.mark.parametrize("kind", sorted(KIND_VALUE_SHAPES))
    def test_second_call_reuses_pattern(self, space, kind):
        first = assemble_operator(space.mesh, kind, self.coefficient(space, kind, 1),
                                  space=space)
        pattern = space.pattern(KIND_LAYOUTS[kind])
        second = assemble_operator(space.mesh, kind, self.coefficient(space, kind, 2),
                                   space=space)
        assert space.pattern(KIND_LAYOUTS[kind]) is pattern
        for A in (first, second):
            assert np.shares_memory(A.indices, pattern.indices)
            assert np.shares_memory(A.indptr, pattern.indptr)
        assert not np.array_equal(first.data, second.data)

    @pytest.mark.parametrize("kind", sorted(KIND_VALUE_SHAPES))
    def test_non_finite_coefficient_raises(self, space, kind):
        coeff = self.coefficient(space, kind)
        coeff[len(coeff) // 2, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            assemble_operator(space.mesh, kind, coeff, space=space)

    # the CSC scatters of the cell correctors (augmented periodic zero-mean
    # systems) and of the micro blocks against R^T A R of a fresh COO
    # assembly, with the multipliers of helpers.augmented_matrix; positive
    # integer blocks make every sum exact whatever its order, so structure
    # and data must match bitwise

    @pytest.fixture(scope="class", params=[2, 3], ids=["2d", "3d"])
    def ctx(self, request):
        d = request.param
        return CellContext(build_cell_mesh(0.25, 8 if d == 2 else 4, dim=d), None, None)

    @staticmethod
    def integer_blocks(dofs, k, seed=0):
        n = dofs.shape[1]
        return np.random.default_rng(seed).integers(1, 10, (k, len(dofs), n, n)) * 1.0

    @staticmethod
    def assert_bitwise(got, ref):
        ref = ref.tocsc()
        ref.sum_duplicates()       # canonical: sorted indices, none repeated
        assert got.format == "csc" and got.shape == ref.shape
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name

    @staticmethod
    def assert_keys_are_batches_of_one(scatter, dofs, k=3):
        n = dofs.shape[1]
        blocks = np.random.default_rng(1).standard_normal((k, len(dofs), n, n))
        data = scatter.data(blocks)
        for i in range(k):
            assert scatter.data(blocks[i:i + 1])[0].tobytes() == data[i].tobytes()

    @pytest.mark.parametrize("family", ["thermal", "elastic"])
    def test_cell_scatter_is_augmented_reduced_matrix(self, ctx, family):
        space = ctx.space_a
        basis, scatter, dofs, n = (
            (ctx.scalar_basis, ctx.thermal_scatter, space.scalar_dofs(), space.n_scalar)
            if family == "thermal" else
            (ctx.vector_basis, ctx.elastic_scatter, space.vector_dofs(), space.n_vector))
        blocks = self.integer_blocks(dofs, 2)
        data = scatter.data(blocks)
        for i in range(len(blocks)):
            A = coo_matrix_of(dofs, dofs, (n, n), blocks[i])
            self.assert_bitwise(scatter.matrix(data[i]),
                                augmented_matrix(basis.reduce_matrix(A), basis.constraints))
        self.assert_keys_are_batches_of_one(scatter, dofs)

    def test_micro_scatters_are_restricted_products(self, ctx):
        model = MicroModel(ctx)
        space, d = model.space, ctx.dim
        dofs = space.layout("coupled")[0]
        n = space.n_scalar + space.n_vector
        heat = selection(model.interior_scalar, n, len(model.interior_scalar))
        mech = selection(space.n_scalar + model.interior_vector, n,
                         len(model.interior_vector))
        R = selection(model._unknowns, n, len(model._unknowns))
        T = selection(model._boundary, n, 1 + d, model._trace_of)
        blocks = self.integer_blocks(dofs, 2)
        for name, ref in (("prev", lambda A: heat.T @ A), ("mech", lambda A: mech.T @ A),
                          ("K", lambda A: R.T @ A @ R), ("trace", lambda A: R.T @ A @ T)):
            scatter = model._scatter[name]
            data = scatter.data(blocks)
            for i in range(len(blocks)):
                A = coo_matrix_of(dofs, dofs, (n, n), blocks[i])
                self.assert_bitwise(scatter.matrix(data[i]), ref(A))
            self.assert_keys_are_batches_of_one(scatter, dofs)



class TestScatterBuild:
    """``ElementScatter.of`` against ``helpers.element_scatter_oracle``, its
    build through repeated int64 rows and columns and ``np.unique``: the
    structure, the slots and the data of every scatter the program builds
    must be bitwise equal."""

    @staticmethod
    def assert_same_scatter(got, args, kwargs=None):
        ref = element_scatter_oracle(*args, **(kwargs or {}))
        assert got.shape == ref.shape and got.csc == ref.csc
        for name in ("indptr", "indices", "slot"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert (got.fixed is None) == (ref.fixed is None)
        if ref.fixed is not None:
            assert np.array_equal(got.fixed, ref.fixed)
        blocks = np.random.default_rng(3).standard_normal((2, got.slot.size))
        assert np.array_equal(got.data(blocks), ref.data(blocks))

    @pytest.mark.parametrize("d,masked", [(2, False), (2, True), (3, False)],
                             ids=["2d", "2d-mask", "3d"])
    @pytest.mark.parametrize("layout", ["scalar", "vector", "coupling", "dissipation",
                                        "coupled"])
    def test_layouts_match_oracle(self, d, masked, layout):
        mesh = build_cell_mesh(0.25, 8 if d == 2 else 4, dim=d)
        space = P1Space(mesh, element_mask=mesh.phase == 1 if masked else None)
        args = space.layout(layout)
        self.assert_same_scatter(ElementScatter.of(*args), args)

    @pytest.mark.parametrize("d", [2, 3])
    def test_cell_and_micro_scatters_match_oracle(self, d, monkeypatch):
        """The augmented cell scatters (with the multiplier entries in
        ``fixed``) and the four CSC scatters of the micro blocks, each
        against the oracle on the arguments the program passed."""
        built, original = [], ElementScatter.of

        def of(*args, **kwargs):
            built.append((original(*args, **kwargs), args, kwargs))
            return built[-1][0]

        monkeypatch.setattr(ElementScatter, "of", staticmethod(of))
        ctx = CellContext(build_cell_mesh(0.25, 8 if d == 2 else 4, dim=d), None, None)
        model = MicroModel(ctx)
        expected = [ctx.thermal_scatter, ctx.elastic_scatter, *model._scatter.values()]
        assert all(any(s is got for got, _, _ in built) for s in expected)
        assert sum(got.fixed is not None for got, _, _ in built) == 2
        for got, args, kwargs in built:
            self.assert_same_scatter(got, args, kwargs)

    def test_vector_layout_build_memory(self):
        """The build of the resolved vector layout at 2D eps 1/8 (829 440
        block entries) peaks at 19 MiB under tracemalloc; the oracle's
        repeated int64 rows and columns and ``np.unique`` peak at 55 MiB."""
        space = P1Space(build_epsilon_mesh(build_cell_mesh(0.25, 8, dim=2), 1 / 8))
        args = space.layout("vector")
        tracemalloc.start()
        try:
            ElementScatter.of(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2**20


class TestInterfaceLoad:
    def test_constant_density_circumference(self):
        mesh = build_cell_mesh(0.25, 16, dim=2)
        load = assemble_interface_load(mesh, lambda c, n: np.ones(len(c)))
        assert abs(load.sum() - 2.0 * np.pi * 0.25) / (2.0 * np.pi * 0.25) < 0.005

    def test_closed_surface_normal_integral_vanishes(self):
        mesh = build_cell_mesh(0.25, 16, dim=2)
        load = assemble_interface_load(mesh, lambda c, n: 3.0 * n)
        comps = load.reshape(-1, 2).sum(axis=0)
        assert np.max(np.abs(comps)) < 1e-10

    def test_zero_density(self):
        mesh = build_cell_mesh(0.25, 8, dim=2)
        load = assemble_interface_load(mesh, lambda c, n: np.zeros(len(c)))
        assert np.all(load == 0.0)

    def test_sphere_area_3d(self):
        mesh = build_cell_mesh(0.25, 8, dim=3)
        load = assemble_interface_load(mesh, lambda c, n: np.ones(len(c)))
        exact = 4.0 * np.pi * 0.25**2
        assert abs(load.sum() - exact) / exact < 0.05


class TestConstraints:
    def test_no_constraints_identity(self):
        A = sp.eye(5, format="csr")
        b = np.arange(5.0)
        red = apply_constraints(A, b, ConstraintSet())
        assert red.matrix.shape == (5, 5)
        assert np.allclose(red.recover(np.ones(5)), np.ones(5))

    def test_all_dirichlet_but_one(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
        b = np.array([1.0, 2.0])
        cs = ConstraintSet.dirichlet_only(np.array([0]), np.array([5.0]))
        red = apply_constraints(A, b, cs)
        x_r, _ = solve_spd(red.matrix, red.rhs)
        x = red.recover(x_r)
        assert np.isclose(x[0], 5.0)
        assert np.isclose(3.0 * x[1], 2.0 - 5.0)

    def test_periodic_chain_circulant(self):
        # 4-element ring: open chain with the last node identified to the first
        main = np.array([1.0, 2.0, 2.0, 2.0, 1.0])
        A = sp.diags([main, -np.ones(4), -np.ones(4)], [0, -1, 1], format="csr")
        b = np.zeros(5)
        cs = ConstraintSet(periodic=np.array([[4, 0]]))
        red = apply_constraints(A, b, cs)
        expected = np.array([
            [2.0, -1.0, 0.0, -1.0],
            [-1.0, 2.0, -1.0, 0.0],
            [0.0, -1.0, 2.0, -1.0],
            [-1.0, 0.0, -1.0, 2.0],
        ])
        assert np.allclose(red.matrix.toarray(), expected)

    def test_pinned_follower_rejected(self):
        A = sp.eye(3, format="csr")
        cs = ConstraintSet(
            dirichlet_dofs=np.array([1]),
            dirichlet_values=np.array([0.0]),
            periodic=np.array([[1, 0]]),
        )
        with pytest.raises(ConstraintError):
            apply_constraints(A, np.zeros(3), cs)

    def test_projected_cg_matches_augmented_direct(self):
        # zero-mean constrained Neumann problem: projection == multiplier
        mesh = build_uniform_mesh(6, dim=2)
        A = assemble_operator(mesh, "scalar_diffusion", np.eye(2))
        space = P1Space(mesh)
        rhs = assemble_scalar_load(space, lambda p: np.cos(np.pi * p[:, 0]))
        weights = assemble_scalar_load(space, 1.0)
        cs = ConstraintSet(zero_mean_weights=[weights])
        red = apply_constraints(A, rhs, cs)
        x_cg, info = solve_spd(red.matrix, red.rhs, tol=1e-12,
                               constraints=red.constraints)
        A_aug, b_aug = augmented(red)
        x_direct = solve_direct(red.matrix, red.rhs, constraints=red.constraints)
        assert info.converged
        assert abs(weights @ x_cg) < 1e-10
        assert np.max(np.abs(x_cg - x_direct)) < 1e-8

    @pytest.mark.parametrize("zero_mean", [False, True])
    def test_block_solve_matches_columnwise_direct(self, zero_mean):
        mesh = build_uniform_mesh(6, dim=2)
        A = assemble_operator(mesh, "scalar_diffusion", np.eye(2))
        space = P1Space(mesh)
        B = np.column_stack([
            assemble_scalar_load(space, lambda p: np.cos(np.pi * p[:, 0])),
            assemble_scalar_load(space, lambda p: p[:, 1] - 0.5),
        ])
        if zero_mean:
            cs = ConstraintSet(zero_mean_weights=[assemble_scalar_load(space, 1.0)])
        else:
            bdofs = np.flatnonzero(mesh.boundary_vertex_mask())
            cs = ConstraintSet.dirichlet_only(bdofs, 0.5)
        X, residuals = solve_block(apply_constraints(A, B, cs))
        assert X.shape == B.shape and np.all(residuals < 1e-12)
        for c in range(B.shape[1]):
            red = apply_constraints(A, B[:, c], cs)
            x = red.recover(solve_direct(red.matrix, red.rhs, constraints=red.constraints))
            assert np.max(np.abs(X[:, c] - x)) < 1e-12 * np.max(np.abs(x))


class TestSolvers:
    def test_identity_single_iteration(self):
        A = sp.eye(10, format="csr")
        b = np.linspace(0.0, 1.0, 10)
        x, info = solve_spd(A, b)
        assert np.allclose(x, b)
        assert info.iterations <= 1

    def test_diagonal(self):
        A = sp.diags([np.full(6, 2.0)], [0], format="csr")
        x, _ = solve_spd(A, np.ones(6))
        assert np.allclose(x, 0.5)

    def test_random_spd_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        B = rng.standard_normal((50, 50))
        A = sp.csr_matrix(B @ B.T + 50.0 * np.eye(50))
        b = rng.standard_normal(50)
        x, info = solve_spd(A, b, tol=1e-12)
        x_dense = dense_oracle_solve(A, b)
        assert np.max(np.abs(x - x_dense)) < 1e-8

    def test_indefinite_detected(self):
        A = sp.csr_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(SolverError):
            solve_spd(A, np.array([1.0, 1.0]))

    def test_max_iter_reports_history(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((30, 30))
        A = sp.csr_matrix(B @ B.T + 0.01 * np.eye(30))
        with pytest.raises(SolverError) as err:
            solve_spd(A, rng.standard_normal(30), tol=1e-14, max_iter=3)
        assert len(err.value.residuals) >= 3

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_spd_solutions_verify(self, seed):
        rng = np.random.default_rng(seed)
        n = 20
        B = rng.standard_normal((n, n))
        A = sp.csr_matrix(B @ B.T + n * np.eye(n))
        b = rng.standard_normal(n)
        x, _ = solve_spd(A, b, tol=1e-12)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-10



class TestFactor:
    """The one sparse factor: one SuperLU call, in symmetric mode with
    diagonal pivots only for an SPD matrix and partially pivoted otherwise,
    every solve's relative residual checked, and named errors with no
    retry."""

    SYMMETRIC = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))
    PIVOTED = dict(permc_spec="MMD_AT_PLUS_A")

    @pytest.fixture
    def splu_calls(self, monkeypatch):
        calls, original = [], spla.splu

        def splu(A, **kwargs):
            calls.append(kwargs)
            return original(A, **kwargs)

        monkeypatch.setattr(spla, "splu", splu)
        return calls

    @staticmethod
    def assert_solved(A, B, Z):
        assert np.allclose(Z, spla.spsolve(A, B), rtol=1e-12, atol=1e-12 * np.abs(Z).max())
        assert np.max(np.linalg.norm(A @ Z - B, axis=0) / np.linalg.norm(B, axis=0)) \
            <= RESIDUAL_MAX

    def test_elasticity_block_solve(self, splu_calls):
        mesh = build_cell_mesh(0.25, 8, dim=2)
        E = assemble_operator(mesh, "elasticity", isotropic_stiffness(1.0, 1.0, 2))
        cs = ConstraintSet.dirichlet_only(
            np.flatnonzero(np.repeat(mesh.boundary_vertex_mask(), 2)))
        A = apply_constraints(E, np.ones(E.shape[0]), cs).matrix.tocsc()
        B = np.random.default_rng(0).standard_normal((A.shape[0], 4))
        self.assert_solved(A, B, Factor(A, "test", spd=True).solve(B))
        assert splu_calls == [self.SYMMETRIC]

    def test_pivoted_solve_of_indefinite_cell_system(self, splu_calls):
        # a zero-mean cell problem with its multiplier: symmetric indefinite
        mesh = build_cell_mesh(0.25, 8, dim=2)
        space = P1Space(mesh)
        A = assemble_operator(mesh, "scalar_diffusion", np.eye(2))
        K = augmented_matrix(A, [assemble_scalar_load(space, 1.0)])
        B = np.random.default_rng(1).standard_normal((K.shape[0], 3))
        self.assert_solved(K, B, Factor(K, "test").solve(B))
        assert splu_calls == [self.PIVOTED]

    def test_zero_diagonal_pivot_of_indefinite_matrix_is_named(self, splu_calls):
        # eigenvalues +-1: with a zero diagonal SuperLU can only pivot off it
        A = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(SolverError, match=r"^resolved solver: elasticity at t = 0\.25: "
                           r"zero pivot in the symmetric-mode factor"):
            Factor(A, "resolved solver: elasticity at t = 0.25", spd=True)
        assert splu_calls == [self.SYMMETRIC]

    def test_exactly_singular_factor_is_named(self, splu_calls):
        A = sp.csc_matrix(np.ones((2, 2)))
        with pytest.raises(SolverError, match=r"^two-scale solver: micro elasticity at "
                           r"t = 0, x = \[0\.5, 0\.5\]: zero pivot .*exactly singular"):
            Factor(A, "two-scale solver: micro elasticity at t = 0, x = [0.5, 0.5]",
                   spd=True)
        with pytest.raises(SolverError, match=r"^two-scale solver: macro step at "
                           r"t = 0\.05: singular factor .*exactly singular"):
            Factor(A, "two-scale solver: macro step at t = 0.05")
        assert splu_calls == [self.SYMMETRIC, self.PIVOTED]

    def test_residual_above_bound_is_named(self, splu_calls):
        # SPD with condition number about 1e17: the solve is inaccurate
        A = sp.csc_matrix(hilbert(14))
        b = np.random.default_rng(0).standard_normal(14)
        factor = Factor(A, "operator checks: elasticity at eps = 0.5, t = 1", spd=True)
        with pytest.raises(SolverError, match=r"^operator checks: elasticity at eps = 0\.5, "
                           r"t = 1: relative residual \S+ exceeds RESIDUAL_MAX "
                           r"1e-10$") as err:
            factor.solve(b)
        assert err.value.residuals[0] > RESIDUAL_MAX
        assert splu_calls == [self.SYMMETRIC]


def l2_error_scalar(mesh, uh, exact):
    space = P1Space(mesh)
    vals = np.einsum("qi,eqi->eq", space.shape_values, uh[space.cells][:, None, :]
                     * np.ones((1, len(space.qweights), 1)))
    uex = exact(space.qpoints.reshape(-1, 2)).reshape(vals.shape)
    err2 = np.einsum("eq,q,e->", (vals - uex) ** 2, space.qweights, space.volumes)
    return np.sqrt(err2)


class TestManufactured:
    def solve_poisson(self, n):
        mesh = build_uniform_mesh(n, dim=2)
        A = assemble_operator(mesh, "scalar_diffusion", np.eye(2))
        space = P1Space(mesh)
        f = lambda p: 2.0 * np.pi**2 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
        b = assemble_scalar_load(space, f)
        bdofs = np.flatnonzero(mesh.boundary_vertex_mask())
        red = apply_constraints(A, b, ConstraintSet.dirichlet_only(bdofs))
        x_r, _ = solve_spd(red.matrix, red.rhs, tol=1e-12)
        return mesh, red.recover(x_r)

    def test_poisson_l2_order_two(self):
        exact = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
        errors, ns = [], [8, 16, 32]
        for n in ns:
            mesh, uh = self.solve_poisson(n)
            errors.append(l2_error_scalar(mesh, uh, exact))
        order = np.polyfit(np.log(ns), np.log(errors), 1)[0]
        assert -order == pytest.approx(2.0, abs=0.2)

    def solve_elasticity(self, n):
        lam, mu = 1.0, 1.0
        mesh = build_uniform_mesh(n, dim=2)
        C = isotropic_stiffness(lam, mu, 2)
        A = assemble_operator(mesh, "elasticity", C)
        space = P1Space(mesh)

        def load(p):
            x, y = p[:, 0], p[:, 1]
            sx, sy = np.sin(np.pi * x), np.sin(np.pi * y)
            cx, cy = np.cos(np.pi * x), np.cos(np.pi * y)
            # u = (sin(pi x) sin(pi y), sin(pi x) sin(pi y))
            uxx = -np.pi**2 * sx * sy
            uxy = np.pi**2 * cx * cy
            f1 = -((lam + 2 * mu) * uxx + mu * uxx + (lam + mu) * uxy)
            f2 = -((lam + 2 * mu) * uxx + mu * uxx + (lam + mu) * uxy)
            return np.stack([f1, f2], axis=1)

        b = assemble_vector_load(space, load)
        bdofs = np.flatnonzero(np.repeat(mesh.boundary_vertex_mask(), 2))
        red = apply_constraints(A, b, ConstraintSet.dirichlet_only(bdofs))
        x_r, _ = solve_spd(red.matrix, red.rhs, tol=1e-12)
        return mesh, red.recover(x_r)

    def test_elasticity_l2_order_two(self):
        def exact(p):
            s = np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
            return np.stack([s, s], axis=1)

        errors, ns = [], [8, 16, 32]
        for n in ns:
            mesh, uh = self.solve_elasticity(n)
            space = P1Space(mesh)
            vals = np.einsum("qi,eid->eqd", space.shape_values,
                             uh.reshape(-1, 2)[space.cells])
            uex = exact(space.qpoints.reshape(-1, 2)).reshape(vals.shape)
            err2 = np.einsum("eqd,q,e->", (vals - uex) ** 2, space.qweights,
                             space.volumes)
            errors.append(np.sqrt(err2))
        order = np.polyfit(np.log(ns), np.log(errors), 1)[0]
        assert -order == pytest.approx(2.0, abs=0.2)


class TestExport:
    def test_coordinate_text_roundtrip(self, tmp_path):
        A = assemble_operator(reference_triangle(), "scalar_diffusion", np.eye(2))
        path = tmp_path / "matrix.txt"
        export_coordinate_text(path, A)
        lines = path.read_text().strip().split("\n")
        n, m, nnz = (int(x) for x in lines[0].split())
        assert (n, m) == A.shape and nnz == A.nnz
        back = np.zeros((n, m))
        for line in lines[1:]:
            i, j, v = line.split()
            back[int(i), int(j)] = float(v)
        assert np.allclose(back, A.toarray())


class TestKorn:
    def test_epsilon_uniform_korn_ratio(self):
        # the V_u-type norm is controlled by phase-weighted symmetric gradients,
        # uniformly over the geometric sequence
        rng = np.random.default_rng(1)
        sups = []
        cell = build_cell_mesh(0.25, 8, dim=2)
        sym_identity = 0.5 * (
            np.einsum("ac,bd->abcd", np.eye(2), np.eye(2))
            + np.einsum("ad,bc->abcd", np.eye(2), np.eye(2))
        )
        for eps in (0.5, 0.25, 0.125):
            mesh = build_epsilon_mesh(cell, eps)
            mask_a = mesh.phase == 0
            mask_b = mesh.phase == 1
            M = vector_mass(mesh, 1.0)
            grad_a = assemble_operator(mesh, "elasticity",
                                       np.einsum("ac,bd->abcd", np.eye(2), np.eye(2)),
                                       element_mask=mask_a)
            grad_b = assemble_operator(mesh, "elasticity",
                                       np.einsum("ac,bd->abcd", np.eye(2), np.eye(2)),
                                       element_mask=mask_b)
            sym_a = assemble_operator(mesh, "elasticity", sym_identity, element_mask=mask_a)
            sym_b = assemble_operator(mesh, "elasticity", sym_identity, element_mask=mask_b)
            free = np.repeat(~mesh.boundary_vertex_mask(), 2)
            best = 0.0
            for _ in range(100):
                v = rng.standard_normal(M.shape[0]) * free
                num = np.sqrt(v @ (M @ v)) + np.sqrt(v @ (grad_a @ v)) + eps * np.sqrt(
                    v @ (grad_b @ v)
                )
                den = np.sqrt(v @ (sym_a @ v)) + eps * np.sqrt(v @ (sym_b @ v))
                best = max(best, num / den)
            sups.append(best)
        assert max(sups) / min(sups) <= 3.0


class TestEinsumPaths:
    @pytest.mark.parametrize("d", [2, 3])
    def test_cached_path_is_bitwise_optimize_true(self, d):
        rng = np.random.default_rng(17)
        e, nq, n = 11, d + 1, d + 1
        G = rng.standard_normal((e, n, d))
        N = rng.random((nq, n))
        w, vol = rng.random(nq), rng.random(e)
        cases = {
            "scalar_diffusion": ("eia,eqab,ejb,q,e->eij",
                                 G, rng.standard_normal((e, nq, d, d)), G, w, vol),
            "mass": ("eq,qi,qj,q,e->eij", rng.random((e, nq)), N, N, w, vol),
            "elasticity": ("eqacbd,eic,ejd,q,e->eiajb",
                           rng.standard_normal((e, nq, d, d, d, d)), G, G, w, vol),
            "coupling": ("eqac,eic,qj,q,e->eiaj",
                         rng.standard_normal((e, nq, d, d)), G, N, w, vol),
            "pullback": ("m,map,mcr,pbrd->mabcd", vol, rng.standard_normal((e, d, d)),
                         rng.standard_normal((e, d, d)),
                         rng.standard_normal((d, d, d, d))),
        }
        for subscripts, *operands in cases.values():
            ref = np.einsum(subscripts, *operands, optimize=True)
            for _ in range(2):    # plans the path, then reuses it
                assert np.array_equal(key_einsum(subscripts, *operands), ref)

    @pytest.fixture(scope="class", params=[2, 3], ids=["2d", "3d"])
    def space(self, request):
        d = request.param
        mesh = build_cell_mesh(0.25, 4, dim=d)
        return P1Space(mesh, element_mask=mesh.phase == 1)

    # the forms built with a key axis alone (micro blocks, cell blocks, l_J);
    # the gradient load is built with a key and a load axis only
    @pytest.mark.parametrize("name", ["mass", "scalar_diffusion", "elasticity",
                                      "advection", "coupling", "advective_dissipation",
                                      "scalar_load"])
    def test_each_key_is_bitwise_its_batch_of_one(self, space, name):
        subscripts, operands, _ = FORMS[name]
        specs = subscripts.split("->")[0].split(",")
        rng = np.random.default_rng(23)
        k, e, nq, d = 5, len(space.cells), len(space.qweights), space.dim
        coeffs = [rng.standard_normal((k, e, nq) + (d,) * (len(spec) - 2))
                  for spec, o in zip(specs, operands) if o == "c"]
        batch = weak_form(space, name, *coeffs)
        assert batch.shape[0] == k
        for i in range(k):
            one = weak_form(space, name, *(c[i:i + 1] for c in coeffs))
            assert np.array_equal(batch[i], one[0])
            alone = weak_form(space, name, *(c[i] for c in coeffs))
            assert np.allclose(batch[i], alone, rtol=1e-13, atol=1e-13 * np.abs(alone).max())

    @pytest.mark.parametrize("name", ["strain_load", "gradient_load"])
    def test_load_with_two_batch_axes(self, space, name):
        # key and load index, as the cell correctors build their loads
        rng = np.random.default_rng(29)
        k, p, e, nq, d = 5, 4, len(space.cells), len(space.qweights), space.dim
        vector = name == "strain_load"
        S = rng.standard_normal((k, p, e, nq, d) + ((d,) if vector else ()))
        loads = weak_form(space, name, S)
        assert loads.shape == (k, p, e, d + 1) + ((d,) if vector else ())
        dofs, n = ((space.vector_dofs(), space.n_vector) if vector
                   else (space.scalar_dofs(), space.n_scalar))
        vectors = scatter_load(dofs, n, loads).reshape(k, p, n)
        for i in range(k):
            one = weak_form(space, name, S[i:i + 1])[0]
            assert np.array_equal(loads[i], one)
            assert np.array_equal(vectors[i], scatter_load(dofs, n, one))
        assemble = assemble_strain_load if vector else assemble_gradient_load
        for i, j in np.ndindex(k, p):
            ref = assemble(space, S[i, j])
            assert np.allclose(vectors[i, j], ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())
