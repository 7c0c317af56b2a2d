"""Per-phase, per-quadrature-point resolved assembly and solve: the oracle
for ``EpsilonSolver``.

``OracleEpsilonSolver`` builds every bundle by pulling the coefficients back
at each quadrature point of the epsilon mesh, through that point's tile, and
assembles each operator as one COO matrix per phase plus a sparse sum; it
evaluates the interface loads at every facet of the epsilon mesh, through
that facet's tile.  Its staggered loop recomputes the advective dissipation
load from the coefficient fields with einsum on every iteration, and solves
the heat system by the path ``EpsilonSolver`` used before its single direct
solve: a sparse direct solve under the default COLAMD ordering when the heat
matrix is advective, CG (falling back to that direct solve) when it is not.
``EpsilonSolver`` instead evaluates the volume and interface fields once per
sample key on the unit cell, builds each operator's element blocks there
once per key (scaled by eps^(d - g), g the number of gradients in the form),
gathers them per epsilon element and sums them through a cached sparsity
pattern, applies the advective dissipation matrix built the same way and
solves every heat matrix with one minimum-degree direct solve; the tests
compare the two.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse.linalg as spla

from helpers import augmented, coo_assemble_operator
from thermohom.fem import (
    Factor,
    P1Space,
    SolverError,
    assemble_gradient_load,
    assemble_interface_load,
    assemble_operator,
    assemble_scalar_load,
    assemble_vector_load,
    solve_spd,
)
from thermohom.kinematics import PHASE_A, PHASE_B, coefficient_fields, interface_batch
from thermohom.reference import EpsilonSolver, OperatorStructureReport


CG_TOL = 1e-12


def solve_spd_or_direct(A, b, tol=CG_TOL):
    """:func:`solve_spd`, or a sparse direct solve when CG fails."""
    try:
        return solve_spd(A, b, tol=tol)[0]
    except SolverError:
        return spla.spsolve(A.tocsc(), b)


class OracleEpsilonSolver(EpsilonSolver):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        mesh = self.mesh
        self.phase_spaces = {p: P1Space(mesh, element_mask=mesh.phase == p)
                             for p in (PHASE_A, PHASE_B)}

    def phase_fields(self, t, phase):
        """Pulled-back, eps-scaled coefficients at every quadrature point of
        one phase, each through the anchor of its own tile."""
        space, coeffs, d = self.phase_spaces[phase], self.coeffs, self.mesh.dim
        pts = space.qpoints.reshape(-1, d)
        tiles = np.repeat(self.mesh.cell_tile[space.elements], len(space.qweights))
        X = coeffs.anchors[tiles]
        y = np.clip(pts / coeffs.eps - np.round(X / coeffs.eps), 0.0, 1.0)
        fields = coefficient_fields(space, self.transformation, coeffs.scaled, phase,
                                    t, X, y)
        fields["velocity"] = coeffs.eps * fields["velocity"]
        return fields

    def _operators(self, t):
        spaces = self.phase_spaces
        fields = {p: self.phase_fields(t, p) for p in spaces}

        def both(kind, value):
            parts = [coo_assemble_operator(spaces[p], kind, value(fields[p]))
                     for p in spaces]
            return (parts[0] + parts[1]).tocsr()

        N = both("advection", lambda f: f["heat_capacity"][:, :, None] * f["velocity"])
        mech_surface, heat_surface = self.surface_loads(t)
        f_u_a, f_u_b, f_th_a, f_th_b = self.sources(t)
        f_theta = np.zeros(self.space.n_scalar)
        f_u = np.zeros(self.space.n_vector)
        for p, f_th, f_u_p in ((PHASE_A, f_th_a, f_u_a), (PHASE_B, f_th_b, f_u_b)):
            if f_th != 0.0 or np.any(np.asarray(f_u_p) != 0.0):
                J = fields[p]["jacobian"]
                f_theta += assemble_scalar_load(spaces[p], J * f_th)
                f_u += assemble_vector_load(spaces[p], J[:, :, None] * np.asarray(f_u_p))
        return dict(
            fields=fields, M_c=both("mass", lambda f: f["heat_capacity"]),
            A_K=both("scalar_diffusion", lambda f: f["conductivity"]),
            E=both("elasticity", lambda f: f["stiffness"]),
            G_alpha=both("coupling", lambda f: f["expansion"]),
            G_gamma=both("coupling", lambda f: f["dissipation"]), N=N,
            mech_surface=mech_surface, heat_surface=heat_surface,
            f_theta=f_theta, f_u=f_u)

    def surface_loads(self, t):
        """Curvature and latent-heat loads from the interface fields at every
        facet of the epsilon mesh, each through the anchor of its own tile."""
        coeffs, mesh = self.coeffs, self.mesh
        X = coeffs.anchors[mesh.facet_tile]
        y = mesh.facet_centroids() / coeffs.eps - np.round(X / coeffs.eps)
        _, W, H, F, J = interface_batch(self.transformation, t, X, y, mesh.interface_normals)
        sigma0 = self.material.surface_tension
        mech_density = coeffs.eps * sigma0 * (J * H)[:, None] * np.einsum(
            "fab,fb->fa", np.linalg.inv(F), mesh.interface_normals)
        heat_density = coeffs.eps * self._latent_factor() * J * W
        return (assemble_interface_load(mesh, None, values=mech_density),
                assemble_interface_load(mesh, None, values=heat_density))

    def advective_dissipation_load(self, b, u):
        """int (gamma : grad u) v . grad phi_i, phase by phase."""
        out = np.zeros(self.space.n_scalar)
        for p, space in self.phase_spaces.items():
            fields, d = b["fields"][p], space.dim
            nodal = u.reshape(-1, d)[space.cells]
            grads = np.einsum("eia,eib->eab", nodal, space.gradients)
            vals = np.einsum("eqab,eab->eq", fields["dissipation"], grads)
            out += assemble_gradient_load(space, vals[:, :, None] * fields["velocity"])
        return out

    def solve_heat(self, lhs, rhs, advective):
        if advective:
            return spla.spsolve(lhs.tocsc(), rhs)
        return solve_spd_or_direct(lhs, rhs)

    def solve_fields(self, t_final, dt, theta0):
        """The staggered loop with the einsum load and the heat path above;
        theta and u per step and the fixed-point iterations of each step."""
        s = self.settings
        theta = np.asarray(theta0(self.mesh.vertices), dtype=float)
        b0 = self.bundle(0.0)
        u = self.mech_basis.factor(b0["E"], "oracle elasticity")(
            b0["G_alpha"] @ theta + b0["f_u"] + b0["mech_surface"])
        # the old level enters a step through M_c theta and G_gamma^T u only
        old_c, old_gamma = b0["M_c"] @ theta, b0["G_gamma"].T @ u
        thetas, us, counts = [theta.copy()], [u.copy()], []
        t = 0.0
        for _ in range(max(0, math.ceil(t_final / dt - 1e-12))):
            step = min(dt, t_final - t)
            b_new = self.bundle(t + step)
            heat_lhs = (b_new["M_c"] / step + b_new["N"] + b_new["A_K"]).tocsr()
            base = (old_c / step + b_new["f_theta"]
                    - b_new["heat_surface"] + old_gamma / step)
            solve_u = self.mech_basis.factor(b_new["E"], "oracle elasticity")
            mech_rhs0 = b_new["f_u"] + b_new["mech_surface"]
            advective = abs(b_new["N"]).max() > 0.0
            theta_k, u_k = theta.copy(), u.copy()
            for it in range(1, s.fixed_point_max_iter + 1):
                rhs = (base - (b_new["G_gamma"].T @ u_k) / step
                       - self.advective_dissipation_load(b_new, u_k))
                theta_next = self.solve_heat(heat_lhs, rhs, advective)
                u_next = solve_u(b_new["G_alpha"] @ theta_next + mech_rhs0)
                d_theta = np.linalg.norm(theta_next - theta_k) / max(
                    1.0, np.linalg.norm(theta_next))
                d_u = np.linalg.norm(u_next - u_k) / max(1.0, np.linalg.norm(u_next))
                theta_k, u_k = theta_next, u_next
                if d_theta + d_u < s.fixed_point_tol:
                    break
            else:
                raise AssertionError(f"oracle loop did not converge at t = {t + step}")
            theta, u, t = theta_k, u_k, t + step
            old_c, old_gamma = b_new["M_c"] @ theta, b_new["G_gamma"].T @ u
            thetas.append(theta.copy())
            us.append(u.copy())
            counts.append(it)
        return thetas, us, counts


def operator_structure_checks(cell_mesh, material, transformation, eps,
                              t_samples=(0.0, 0.5, 1.0), n_random=100,
                              sym_tol=1e-8, seed=7) -> OperatorStructureReport:
    """``reference.operator_structure_checks`` with each elasticity block
    solved as ``helpers.solve_block`` does: the reduced system with explicit
    multipliers (``helpers.augmented``) and the offset lifted back into the
    full space, factored by the same symmetric-mode ``Factor``, whose
    parity with pivoted LU ``test_reference`` checks on its own."""
    solver = EpsilonSolver(cell_mesh, material, transformation, eps)
    mesh = solver.mesh
    d = mesh.dim
    rng = np.random.default_rng(seed)
    free = ~np.repeat(mesh.boundary_vertex_mask(), d)
    fs = rng.standard_normal((n_random, mesh.vertices.shape[0]))
    vs = rng.standard_normal((n_random, mesh.vertices.shape[0] * d)) * free
    M_plain = assemble_operator(mesh, "mass", 1.0)
    f_norms = np.sqrt(np.einsum("ij,ij->i", fs, (M_plain @ fs.T).T))

    min_rayleigh, sym_defect, min_quad, time_bound = np.inf, 0.0, np.inf, 0.0
    prev_products = None
    for t in t_samples:
        b = solver.bundle(t)
        E, G_alpha = b["E"], b["G_alpha"]
        rayleigh = np.einsum("ij,ji->i", vs, E @ vs.T) / np.einsum("ij,ij->i", vs, vs)
        min_rayleigh = min(min_rayleigh, float(rayleigh.min()))
        red = solver.mech_basis.reduce(E, G_alpha @ fs.T)
        K, rhs = augmented(red)
        us = red.recover(Factor(K, "oracle checks", spd=True).solve(rhs)[: red.matrix.shape[0]])
        products = (b["G_gamma"] @ fs.T).T @ us
        scale = np.max(np.abs(products)) or 1.0
        sym_defect = max(sym_defect, float(np.max(np.abs(products - products.T)) / scale))
        min_quad = min(min_quad, float(np.min(np.diag(products)) / scale))
        B_products = products + fs @ (b["M_c"] @ fs.T)
        if prev_products is not None:
            quot = np.abs(B_products - prev_products[1]) / np.outer(f_norms, f_norms)
            time_bound = max(time_bound, float(np.max(quot) / (t - prev_products[0])))
        prev_products = (t, B_products)

    return OperatorStructureReport(
        eps=eps, t_samples=list(t_samples), elastic_min_rayleigh=min_rayleigh,
        composition_symmetry_defect=sym_defect, composition_min_quadform=min_quad,
        time_difference_bound=time_bound,
        passed=min_rayleigh > 0.0 and sym_defect < sym_tol and min_quad > -sym_tol)
