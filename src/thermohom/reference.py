"""Resolved solver on the periodic fine mesh plus the verification harness.

This side of the suite discretizes the fixed-domain thermoelastic system
directly on the eps-periodic mesh: inclusion-phase stiffness and conductivity
carry eps^2, thermal expansion and dissipation carry eps, the interface loads
carry their own powers of eps, and all coefficients oscillate with the cell
variable.  The harness assembles discrete versions of the operators the
analysis reasons about (elastic form, thermal-stress coupling, their
Schur-type composition), computes the a priori norm bundles, and compares the
resolved temperature against the homogenized two-scale solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import (
    FORMS,
    ConstraintSet,
    P1Space,
    assemble_interface_load,
    assemble_operator,
    check_residuals,
    constraint_basis,
    scatter_load,
    vector_mass,
    weak_form,
)
from .kinematics import (
    PHASE_A,
    PHASE_B,
    key_fields,
    key_interface,
    sample_key_groups,
    scaled_coefficients,
    zero_sources,
)
from .cell import CellContext
from .effective import EffectiveProvider
from .mesh import build_epsilon_mesh, build_uniform_mesh, lattice, tile_anchors
from .twoscale import (BundleError, FixedPointError, SolverSettings, TwoScaleSolver,
                       time_levels)


# ---------------------------------------------------------------------------
# oscillatory coefficient evaluation


class EpsilonCoefficients:
    """Transformed coefficients on an epsilon mesh, once per sample key.

    Every tile is the unit cell scaled by eps, and the transformation acts on
    it with the tile anchor (cell corner) as its macro argument, matching the
    periodic lattice construction of the moving geometry.  Tiles with the
    same sample key therefore share their pulled-back fields, and a tile's P1
    element blocks are its key's unit-cell blocks times eps^(d - g), g the
    number of gradients in the form: :meth:`element_blocks` builds them once
    per key and gathers them per element, :meth:`surface_loads` the interface
    loads per facet.
    """

    def __init__(self, mesh, cell_mesh, material, transformation):
        self.mesh, self.cell = mesh, cell_mesh
        self.eps = mesh.eps
        self.material = material
        self.scaled = scaled_coefficients(material, mesh.eps)
        self.transformation = transformation
        self.anchors = tile_anchors(mesh)
        self._spaces = [(phase, P1Space(cell_mesh, element_mask=cell_mesh.phase == phase))
                        for phase in (PHASE_A, PHASE_B)]

    def key_groups(self, t):
        """The anchor of each sample key's first tile at t, and the key
        number of every tile (:func:`sample_key_groups` of the anchors)."""
        first, tile_key = sample_key_groups(self.transformation, t, self.anchors)
        return self.anchors[first], tile_key

    def key_fields(self, t, groups):
        """Pulled-back, eps-scaled coefficient fields of each phase on the
        unit cell, as (k, e_phase, nq, ...) arrays over the k keys of the
        :meth:`key_groups` of t, plus the advective flux c v."""
        out = []
        for phase, space in self._spaces:
            f = key_fields(space, self.transformation, self.scaled, phase, t, groups[0])
            f["velocity"] *= self.eps  # cell velocity is O(eps)
            f["flux"] = f["heat_capacity"][..., None] * f["velocity"]
            out.append(f)
        return out

    def element_blocks(self, form, names, fields, groups):
        """The element blocks (or loads) of ``form`` over the epsilon mesh,
        from the :meth:`key_fields` named ``names``: one set per key on each
        phase of the unit cell, gathered through each element's tile key and
        source element."""
        cell = None
        for (_, space), f in zip(self._spaces, fields):
            blocks = weak_form(space, form, *(f[name] for name in names))
            if cell is None:
                cell = np.empty((len(blocks), len(self.cell.cells)) + blocks.shape[2:])
            cell[:, space.elements] = blocks
        cell *= self.eps ** (self.mesh.dim - FORMS[form][1].count("G"))
        return cell[groups[1][self.mesh.cell_tile], self.mesh.cell_source]

    def surface_loads(self, t, latent_factor, groups):
        """Curvature load (vector dofs) and latent-heat load (scalar dofs),
        from the interface fields at the unit cell's facets once per key of
        the :meth:`key_groups` of t, gathered into the facet order of the
        epsilon mesh through ``mesh.facet_tile`` and ``mesh.facet_source``.

        The eps-level surface densities are eps * (J sigma0 H F^{-1} n0) and
        eps * latent * (J W): one power of eps from the interface fields and
        the rest absorbed by the prescribed scalings of the jump conditions.
        """
        key_anchor, tile_key = groups
        cell, mesh = self.cell, self.mesh
        speed, stress = key_interface(self.transformation, t, key_anchor,
                                      cell.facet_centroids(), cell.interface_normals,
                                      self.eps * self.material.surface_tension)
        at = tile_key[mesh.facet_tile], mesh.facet_source
        mech = assemble_interface_load(mesh, None, values=stress[at])
        heat = assemble_interface_load(mesh, None,
                                       values=self.eps * latent_factor * speed[at])
        return mech, heat


# ---------------------------------------------------------------------------
# resolved solver


# every operator of a resolved bundle and the J-weighted unit source load:
# (name, form of fem.FORMS, fields of EpsilonCoefficients.key_fields)
BUNDLE_FORMS = (
    ("M_c", "mass", ("heat_capacity",)),
    ("A_K", "scalar_diffusion", ("conductivity",)),
    ("E", "elasticity", ("stiffness",)),
    ("G_alpha", "coupling", ("expansion",)),
    ("G_gamma", "coupling", ("dissipation",)),
    ("N", "advection", ("flux",)),
    ("A_gamma", "advective_dissipation", ("velocity", "dissipation")),
    ("l_J", "scalar_load", ("jacobian",)),
)


@dataclass
class EpsilonSolution:
    eps: float
    times: list          # the time levels; np.diff gives the steps taken
    theta: list          # nodal temperature per level
    u: list              # nodal deformation per level
    mesh: object
    fixed_point_iterations: list


class EpsilonSolver:
    """Implicit-Euler staggered solve of the resolved system on the
    eps-periodic mesh.

    A bundle holds everything one time level contributes: the heat-capacity
    mass ``M_c``, the conductivity ``A_K``, the advection ``N``, the
    elasticity ``E``, the thermal-stress and dissipation couplings
    ``G_alpha`` and ``G_gamma``, the advective dissipation map ``A_gamma``
    (u -> int (gamma : grad u) v . grad phi_i), the interface loads and the
    bulk source loads at t.  Each operator is one row of :data:`BUNDLE_FORMS`,
    summed from :meth:`EpsilonCoefficients.element_blocks` through the
    space's cached scatter, one form at a time; the sources at t scale the
    unit load ``l_J`` phase by phase.  A failure to build one raises
    :class:`BundleError` naming t.

    :meth:`bundle` builds a level afresh on every call, and :meth:`solve`
    holds one level at a time: the previous level enters a step only through
    ``M_c theta`` and ``G_gamma^T u``, so its bundle, its elasticity factor
    and its heat matrix are released before the next level is built.
    """

    def __init__(self, cell_mesh, material, transformation, eps,
                 settings: SolverSettings | None = None, sources=None,
                 latent_in_load=True):
        self.material = material
        self.transformation = transformation
        self.eps = float(eps)
        self.settings = settings if settings is not None else SolverSettings()
        self.sources = sources if sources is not None else zero_sources(cell_mesh.dim)
        self.latent_in_load = latent_in_load

        self.mesh = build_epsilon_mesh(cell_mesh, eps)
        self.coeffs = EpsilonCoefficients(self.mesh, cell_mesh, material, transformation)
        self.space = P1Space(self.mesh)
        bdofs = np.flatnonzero(np.repeat(self.mesh.boundary_vertex_mask(),
                                         self.mesh.dim))
        self.mech_basis = constraint_basis(self.space.n_vector,
                                           ConstraintSet.dirichlet_only(bdofs))

    def _latent_factor(self):
        f = self.settings.latent_sign
        return f * self.material.latent_heat if self.latent_in_load else f

    def bundle(self, t):
        """The operators and loads of the time level t, built afresh."""
        try:
            return self._operators(t)
        except ValueError as exc:  # inadmissible map, non-finite entries
            raise BundleError(f"resolved solver: cannot build the operators at "
                              f"t = {t:.6g}: {exc}") from exc

    def _operators(self, t):
        coeffs, mesh, space = self.coeffs, self.mesh, self.space
        groups = coeffs.key_groups(t)
        fields = coeffs.key_fields(t, groups)
        out = {}
        for name, form, names in BUNDLE_FORMS:
            blocks = coeffs.element_blocks(form, names, fields, groups)
            if form.endswith("_load"):
                out[name] = blocks
            else:
                p = space.pattern(FORMS[form][2])
                out[name] = p.matrix(p.data(blocks[None])[0])
            del blocks                 # one form's blocks alive at a time
        out["mech_surface"], out["heat_surface"] = coeffs.surface_loads(
            t, self._latent_factor(), groups)

        # the phase sources at t scale each element's unit load
        f_u_a, f_u_b, f_th_a, f_th_b = self.sources(t)
        in_a, l_J = (mesh.phase == PHASE_A)[:, None], out.pop("l_J")
        out["f_theta"] = scatter_load(space.cells, space.n_scalar,
                                      l_J * np.where(in_a, f_th_a, f_th_b))[0]
        out["f_u"] = scatter_load(space.vector_dofs(), space.n_vector,
                                  l_J[:, :, None] * np.where(in_a, f_u_a, f_u_b)[:, None])[0]
        return out

    # -- time stepping -----------------------------------------------------------

    def solve(self, t_final, dt, theta0, observer=None) -> EpsilonSolution:
        s = self.settings
        mesh = self.mesh
        theta = np.asarray(theta0(mesh.vertices), dtype=float)
        b = self.bundle(0.0)
        u = self.mech_basis.factor(b["E"], "resolved solver: elasticity at t = 0")(
            b["G_alpha"] @ theta + b["f_u"] + b["mech_surface"])

        times = time_levels(t_final, dt)
        thetas, us, fp_counts = [theta.copy()], [u.copy()], []
        for t, t_new in zip(times, times[1:]):
            step = t_new - t
            # the finished level enters the step only through M_c theta and
            # G_gamma^T u; its bundle, factor and heat matrix go before the
            # next level is built
            old_c, old_gamma = b["M_c"] @ theta, b["G_gamma"].T @ u
            b = solve_u = heat_lhs = None
            b = self.bundle(t_new)
            heat_lhs = (b["M_c"] / step + b["N"] + b["A_K"]).tocsc()
            base = old_c / step + b["f_theta"] - b["heat_surface"] + old_gamma / step
            solve_u = self.mech_basis.factor(
                b["E"], f"resolved solver: elasticity at t = {t_new:.6g}")
            mech_rhs0 = b["f_u"] + b["mech_surface"]

            theta_k, u_k = theta.copy(), u.copy()
            for it in range(1, s.fixed_point_max_iter + 1):
                rhs = (base - (b["G_gamma"].T @ u_k) / step
                       - b["A_gamma"] @ u_k)
                # structurally symmetric: minimum degree on A^T + A
                theta_next = spla.spsolve(heat_lhs, rhs, permc_spec="MMD_AT_PLUS_A")
                check_residuals(heat_lhs, theta_next, rhs,
                                f"resolved solver: heat at t = {t_new:.6g}")
                u_next = solve_u(b["G_alpha"] @ theta_next + mech_rhs0)
                d_theta = np.linalg.norm(theta_next - theta_k) / max(
                    1.0, np.linalg.norm(theta_next))
                d_u = np.linalg.norm(u_next - u_k) / max(1.0, np.linalg.norm(u_next))
                theta_k, u_k = theta_next, u_next
                if d_theta + d_u < s.fixed_point_tol:
                    break
            else:
                raise FixedPointError(
                    f"resolved solver: staggered loop did not converge within "
                    f"{s.fixed_point_max_iter} iterations at t = {t_new:.6g}"
                )
            theta, u = theta_k, u_k
            thetas.append(theta.copy())
            us.append(u.copy())
            fp_counts.append(it)
            if observer is not None:
                observer(t_new, theta, u)

        return EpsilonSolution(eps=self.eps, times=times, theta=thetas, u=us, mesh=mesh,
                               fixed_point_iterations=fp_counts)


# ---------------------------------------------------------------------------
# a priori norm bundle


@dataclass
class NormBundle:
    linf_theta: float
    grad_theta_matrix: float
    grad_theta_inclusion_scaled: float
    linf_u: float
    linf_grad_u_matrix: float
    linf_grad_u_inclusion_scaled: float

    def as_array(self):
        return np.array([getattr(self, name) for name in self.names])

    names = ("linf_theta", "grad_theta_matrix", "grad_theta_inclusion_scaled",
             "linf_u", "linf_grad_u_matrix", "linf_grad_u_inclusion_scaled")


def gradient_matrices(mesh):
    """Phase-restricted scalar and full-gradient vector stiffness, unit coefficient."""
    d = mesh.dim
    eye = np.eye(d)
    full_grad = np.einsum("ab,qs->aqbs", eye, eye)  # C_{aqbs} = delta_ab delta_qs
    out = {}
    for phase, tag in ((PHASE_A, "a"), (PHASE_B, "b")):
        mask = mesh.phase == phase
        out[f"scalar_{tag}"] = assemble_operator(mesh, "scalar_diffusion", eye,
                                                 element_mask=mask)
        out[f"vector_{tag}"] = assemble_operator(mesh, "elasticity", full_grad,
                                                 element_mask=mask)
    return out


def apriori_norm_bundle(sol: EpsilonSolution) -> NormBundle:
    """Maxima over the levels; the gradient norms weigh each step by its length."""
    mesh = sol.mesh
    steps = np.diff(sol.times)
    M = assemble_operator(mesh, "mass", 1.0)
    Mv = vector_mass(mesh, 1.0)
    G = gradient_matrices(mesh)

    def q(A, v):
        return float(max(v @ (A @ v), 0.0))

    linf_theta = max(math.sqrt(q(M, th)) for th in sol.theta)
    linf_u = max(math.sqrt(q(Mv, u)) for u in sol.u)
    grad_a = math.sqrt(sum(w * q(G["scalar_a"], th) for w, th in zip(steps, sol.theta[1:])))
    grad_b = sol.eps * math.sqrt(sum(w * q(G["scalar_b"], th)
                                     for w, th in zip(steps, sol.theta[1:])))
    grad_u_a = max(math.sqrt(q(G["vector_a"], u)) for u in sol.u)
    grad_u_b = sol.eps * max(math.sqrt(q(G["vector_b"], u)) for u in sol.u)
    return NormBundle(linf_theta, grad_a, grad_b, linf_u, grad_u_a, grad_u_b)


# ---------------------------------------------------------------------------
# discrete operator-structure checks


@dataclass
class OperatorStructureReport:
    eps: float
    t_samples: list
    elastic_min_rayleigh: float
    composition_symmetry_defect: float
    composition_min_quadform: float
    time_difference_bound: float
    passed: bool

    def summary(self):
        lines = [
            f"operator structure at eps = {self.eps}: "
            f"{'PASS' if self.passed else 'FAIL'}",
            f"  elastic form min Rayleigh quotient: {self.elastic_min_rayleigh:.6g}",
            f"  coupling composition symmetry defect: "
            f"{self.composition_symmetry_defect:.3e}",
            f"  coupling composition min quadratic form: "
            f"{self.composition_min_quadform:.6g}",
            f"  |d/dt <B f, g>| bound over samples: {self.time_difference_bound:.6g}",
        ]
        return "\n".join(lines)


def operator_structure_checks(cell_mesh, material, transformation, eps,
                              t_samples=(0.0, 0.5, 1.0), n_random=100,
                              sym_tol=1e-8, seed=7) -> OperatorStructureReport:
    """Structure of the elastic form and of ``G_gamma^T E^-1 G_alpha`` on
    ``n_random`` seeded fields, all solved as one block per t sample."""
    solver = EpsilonSolver(cell_mesh, material, transformation, eps)
    mesh = solver.mesh
    d = mesh.dim
    rng = np.random.default_rng(seed)
    free = ~np.repeat(mesh.boundary_vertex_mask(), d)

    min_rayleigh = np.inf
    sym_defect = 0.0
    min_quad = np.inf
    time_bound = 0.0

    # the same random fields are reused at every time sample so that the
    # difference quotients of <B f, g> are meaningful
    fs = rng.standard_normal((n_random, mesh.vertices.shape[0]))
    vs = rng.standard_normal((n_random, mesh.vertices.shape[0] * d)) * free
    M_plain = assemble_operator(mesh, "mass", 1.0)
    f_norms = np.sqrt(np.einsum("ij,ij->i", fs, (M_plain @ fs.T).T))

    prev_products = None
    prev_solve = None        # (E, G_alpha, us) of the previous sample
    for t in t_samples:
        b = solver.bundle(t)
        E, G_alpha = b["E"], b["G_alpha"]
        rayleigh = np.einsum("ij,ji->i", vs, E @ vs.T) / np.einsum("ij,ij->i", vs, vs)
        min_rayleigh = min(min_rayleigh, float(rayleigh.min()))

        if (prev_solve is not None and (prev_solve[0] != E).nnz == 0
                and (prev_solve[1] != G_alpha).nnz == 0):
            us = prev_solve[2]        # a static geometry: the same block solution
        else:
            us = solver.mech_basis.factor(
                E, f"operator checks: elasticity at eps = {eps:g}, t = {t:.6g}")(
                    G_alpha @ fs.T)
        prev_solve = (E, G_alpha, us)
        products = (b["G_gamma"] @ fs.T).T @ us    # <B2 f_j, f_i>
        scale = np.max(np.abs(products)) or 1.0
        sym_defect = max(sym_defect, float(np.max(np.abs(products - products.T)) / scale))
        min_quad = min(min_quad, float(np.min(np.diag(products)) / scale))

        M_c = b["M_c"]
        B_products = products + fs @ (M_c @ fs.T)
        if prev_products is not None:
            delta_t = t - prev_products[0]
            quot = np.abs(B_products - prev_products[1]) / np.outer(f_norms, f_norms)
            time_bound = max(time_bound, float(np.max(quot) / delta_t))
        prev_products = (t, B_products)

    passed = (min_rayleigh > 0.0 and sym_defect < sym_tol and min_quad > -sym_tol)
    return OperatorStructureReport(
        eps=eps, t_samples=list(t_samples),
        elastic_min_rayleigh=min_rayleigh,
        composition_symmetry_defect=sym_defect,
        composition_min_quadform=min_quad,
        time_difference_bound=time_bound,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# two-scale comparison


def macro_transfer(macro_mesh, points):
    """The P1 evaluation matrix (points x vertices) of the uniform macro
    mesh at points clipped to the unit box: each point's barycentric
    coordinates in every simplex of its grid box, kept for the simplex whose
    smallest coordinate is largest, the one holding the point."""
    n, d = macro_mesh.resolution, macro_mesh.dim
    cells, grads = macro_mesh.cells, P1Space(macro_mesh).gradients

    def box(x):
        return np.ravel_multi_index(np.minimum((x * n).astype(int), n - 1).T, (n,) * d)

    # the simplices of each box, found from their centroids
    centroids = macro_mesh.vertices[cells].mean(axis=1)
    in_box = np.argsort(box(centroids), kind="stable").reshape(n**d, -1)
    pts = np.clip(points, 0.0, 1.0)
    cand = in_box[box(pts)]                                         # (p, simplices)
    lam = np.einsum("psid,psd->psi", grads[cand],
                    pts[:, None] - macro_mesh.vertices[cells[cand, 0]])
    lam[:, :, 0] += 1.0
    rows = np.arange(len(pts))
    pick = np.argmax(lam.min(axis=2), axis=1)
    return sp.csr_matrix((lam[rows, pick].ravel(),
                          (np.repeat(rows, d + 1), cells[cand[rows, pick]].ravel())),
                         shape=(len(pts), len(macro_mesh.vertices)))


@dataclass
class CompareRow:
    eps: float
    error_matrix: float       # L2(S x Omega_A) temperature mismatch
    error_inclusion: float    # L2(S x Omega_B) against the micro reconstruction
    interp_floor: float       # macro-interpolation transfer error


def two_scale_compare(cell_mesh, material, transformation, eps_list, t_final, dt,
                      theta0, macro_resolution=8, settings=None, sources=None,
                      latent_in_load=True, solver_tol=1e-10):
    """Temperature error between the resolved and homogenized solutions: one
    row per eps, every eps against one homogenized run, whose cell correctors
    are solved to ``solver_tol`` (:class:`EffectiveProvider`)."""
    settings = settings if settings is not None else SolverSettings()
    ctx = CellContext(cell_mesh, material, transformation)
    provider = EffectiveProvider(ctx, sources=sources, latent_in_source=latent_in_load,
                                 solver_tol=solver_tol)
    macro = build_uniform_mesh(macro_resolution, dim=cell_mesh.dim)
    hom_solver = TwoScaleSolver(macro, provider, settings)
    hom_states = hom_solver.run(t_final, dt, theta0)

    rows = []
    for eps in eps_list:
        solver = EpsilonSolver(cell_mesh, material, transformation, eps,
                               settings=settings, sources=sources,
                               latent_in_load=latent_in_load)
        sol = solver.solve(t_final, dt, theta0)
        rows.append(_compare_one(sol, hom_solver, hom_states))
    return rows


def _compare_one(sol: EpsilonSolution, hom_solver, hom_states) -> CompareRow:
    mesh = sol.mesh
    d = mesh.dim
    space = P1Space(mesh, element_mask=mesh.phase == PHASE_A)
    M_a = assemble_operator(mesh, "mass", 1.0, space=space)
    M_b = assemble_operator(mesh, "mass", 1.0, element_mask=mesh.phase == PHASE_B)

    # micro reconstruction bookkeeping: each inclusion vertex lies in one
    # tile; its first cell gives the tile and, through the cell's source in
    # the unit cell, the micro vertex
    ctx = hom_solver.micro_model.ctx
    b_cells = np.flatnonzero(mesh.phase == PHASE_B)
    b_ids, first = np.unique(mesh.cells[b_cells], return_index=True)
    source = b_cells[first // (d + 1)]
    cell_vertex = ctx.mesh.cells[mesh.cell_source[source], first % (d + 1)]
    micro_ids = ctx.sub_b.vertex_map[cell_vertex]
    # the host nearest to the centre of each tile
    n = round(1.0 / sol.eps)
    offsets = hom_solver.host_points - ((lattice(n, d) + 0.5) * sol.eps)[:, None]
    host_ids = np.argmin(np.einsum("tid,tid->ti", offsets, offsets), axis=1)[
        mesh.cell_tile[source]]

    # the macro field at the epsilon vertices and at the matrix quadrature points
    to_nodes = macro_transfer(hom_solver.mesh, mesh.vertices)
    to_qp = macro_transfer(hom_solver.mesh, space.qpoints.reshape(-1, d))

    err_a2 = err_b2 = floor2 = 0.0
    for k, w in enumerate(np.diff(sol.times), start=1):
        theta_eps = sol.theta[k]
        state = hom_states[k]
        macro_at_nodes = to_nodes @ state.theta
        diff = theta_eps - macro_at_nodes
        err_a2 += w * float(diff @ (M_a @ diff))

        # transfer floor: interpolant vs exact P1 macro field at quadrature points
        interp_at_qp = np.einsum(
            "qi,ei->eq", space.shape_values, macro_at_nodes[space.cells]
        ).reshape(-1)
        exact_at_qp = to_qp @ state.theta
        floor_vals = (interp_at_qp - exact_at_qp).reshape(len(space.cells), -1)
        floor2 += w * float(np.einsum("eq,q,e->", floor_vals**2, space.qweights,
                                      space.volumes))

        recon = state.micro_theta[host_ids, micro_ids]
        diff_b = np.zeros(len(mesh.vertices))
        diff_b[b_ids] = theta_eps[b_ids] - recon
        err_b2 += w * float(diff_b @ (M_b @ diff_b))

    return CompareRow(eps=sol.eps, error_matrix=math.sqrt(err_a2),
                      error_inclusion=math.sqrt(err_b2),
                      interp_floor=math.sqrt(floor2))
