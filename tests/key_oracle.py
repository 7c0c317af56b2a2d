"""Per-key builds: the oracle for the batched level builds.

The cell correctors, the effective coefficients and the micro bundles are
built for many sample keys at once in ``thermohom``: one pull-back, one
einsum per operator with a leading key axis and one scatter of the element
blocks into every restricted matrix.  The functions here build one (t, x) at
a time, the way the solvers did before: CSR assembly per operator with
``assemble_operator``, ``R^T A R`` by sparse products and explicit
multipliers (``ConstraintBasis.reduce`` and ``helpers.solve_block``), and row and
column slicing of the micro block, with the dissipation loads as products
of quadrature-point maps (:func:`dissipation_maps`).  The parity tests
compare the two.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helpers import solve_block
from thermohom.cell import Correctors, strain_pads
from thermohom.fem import (
    SolverError,
    assemble_gradient_load,
    assemble_operator,
    assemble_strain_load,
)
from thermohom.kinematics import (
    PHASE_A,
    PHASE_B,
    coefficient_fields,
    interface_batch,
    sym_index_pairs,
)
from thermohom.twoscale import MicroModel


def quadrature_load_map(space, w=None):
    """Sparse map from values f at the quadrature points (flattened as
    ``e * nq + q``) to the scalar loads ``int f phi_i``, or, given an
    (e, nq, d) vector field w, to ``int f w . grad phi_i``."""
    e, nq, n = len(space.cells), len(space.qweights), space.dim + 1
    weights = (space.volumes[:, None] * space.qweights)[:, :, None]
    entries = weights * (space.shape_values if w is None
                         else np.einsum("eqa,eia->eqi", w, space.gradients))
    rows = np.broadcast_to(space.cells[:, None, :], (e, nq, n))
    cols = np.broadcast_to(np.arange(e * nq).reshape(e, nq, 1), (e, nq, n))
    return sp.csr_matrix((entries.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(space.n_scalar, e * nq))


def dissipation_maps(space, dissipation, velocity):
    """The dissipation loads as sparse (n_scalar x n_vector) maps of u:
    ``S u = int (gamma : grad u) phi_i`` and
    ``A u = int (gamma : grad u) v . grad phi_i``, for (e, nq, d, d) gamma
    and (e, nq, d) v, through the map D from u to ``gamma : grad u`` at the
    quadrature points."""
    e, nq, d = len(space.cells), len(space.qweights), space.dim
    grad = np.einsum("eqab,ejb->eqja", dissipation, space.gradients)
    dofs = space.cells[:, :, None] * d + np.arange(d)
    rows = np.broadcast_to(np.arange(e * nq).reshape(e, nq, 1, 1), grad.shape)
    cols = np.broadcast_to(dofs[:, None], grad.shape)
    D = sp.csr_matrix((grad.ravel(), (rows.ravel(), cols.ravel())),
                      shape=(e * nq, space.n_vector))
    return quadrature_load_map(space) @ D, quadrature_load_map(space, velocity) @ D


def _solve_family(basis, A, loads, names, t, x, tol):
    sol, res = solve_block(basis.reduce(A, np.column_stack(loads)))
    residuals = dict(zip(names, res.tolist()))
    for name, r in residuals.items():
        if not r <= tol:
            raise SolverError(f"cell corrector {name} at t={float(t):g}, x={list(x)}: "
                              f"relative residual {r:.3e}")
    return sol.T.copy(), residuals


def matrix_fields(ctx, t, x):
    return coefficient_fields(ctx.space_a, ctx.transformation, ctx.material, PHASE_A, t, x)


def correctors(ctx, t, x, tol=1e-10):
    """The cell correctors at (t, x), one family and one LU at a time."""
    fields = matrix_fields(ctx, t, x)
    space, mesh = ctx.space_a, ctx.sub_a.mesh
    A = assemble_operator(mesh, "elasticity", fields["stiffness"], space=space)
    pads = strain_pads(ctx.dim)
    loads = [-assemble_strain_load(space, np.einsum("eqabcd,cd->eqab",
                                                    fields["stiffness"], E))
             for E in pads.values()]
    loads.append(assemble_strain_load(space, fields["expansion"]))
    names = [("mechanical", j, k) for j, k in pads] + ["thermal_stress"]
    sol, res_m = _solve_family(ctx.vector_basis, A, loads, names, t, x, tol)

    A = assemble_operator(mesh, "scalar_diffusion", fields["conductivity"], space=space)
    loads = [assemble_gradient_load(space, -fields["conductivity"][:, :, :, j])
             for j in range(ctx.dim)]
    names = [("thermal", j) for j in range(ctx.dim)]
    thermal, res_t = _solve_family(ctx.scalar_basis, A, loads, names, t, x, tol)
    return Correctors(t=float(t), x=np.asarray(x, dtype=float),
                      mechanical=dict(zip(pads, sol[:-1])), thermal_stress=sol[-1],
                      thermal=list(thermal), pads=pads, residuals={**res_m, **res_t})


def _vector_gradients(space, field):
    nodal = field.reshape(-1, space.dim)[space.cells]
    return np.einsum("eia,eib->eab", nodal, space.gradients)


def _average(space, field):
    return np.einsum("eq...,q->e...", field, space.qweights)


def effective(ctx, cors, t, x, latent_in_source=True):
    """Every geometry-derived effective quantity at (t, x) from its
    correctors, one key at a time."""
    fields = matrix_fields(ctx, t, x)
    space, d, mat = ctx.space_a, ctx.dim, ctx.material
    vols = space.volumes
    pairs = sym_index_pairs(d)
    Cbar = _average(space, fields["stiffness"])
    strains = []
    for jk in pairs:
        g = _vector_gradients(space, cors.mechanical[jk])
        strains.append(0.5 * (g + np.transpose(g, (0, 2, 1))) + cors.pads[jk])
    strains = np.stack(strains)
    stress = np.einsum("eabcd,vecd->veab", Cbar, strains)
    C_voigt = np.einsum("veab,weab,e->vw", stress, strains, vols)
    stiffness = np.zeros((d,) * 4)
    for a, (j, k) in enumerate(pairs):
        for b, (m, n) in enumerate(pairs):
            for p, q in {(j, k), (k, j)}:
                for r, s in {(m, n), (n, m)}:
                    stiffness[p, q, r, s] = C_voigt[a, b]
    g_ts = _vector_gradients(space, cors.thermal_stress)
    e_ts = 0.5 * (g_ts + np.transpose(g_ts, (0, 2, 1)))
    expansion = (np.einsum("eab,e->ab", _average(space, fields["expansion"]), vols)
                 - np.einsum("eabcd,ecd,e->ab", Cbar, e_ts, vols))

    Kbar = _average(space, fields["conductivity"])
    fluxes = np.stack([np.einsum("ei,eib->eb", cors.thermal[j][space.cells],
                                 space.gradients) + np.eye(d)[j] for j in range(d)])
    conductivity = np.einsum("jea,eab,ieb,e->ij", fluxes, Kbar, fluxes, vols)
    matrix_measure = np.einsum("eq,q,e->", fields["jacobian"], space.qweights, vols)
    heat_capacity = (mat.density_a * mat.heat_capacity_a * matrix_measure
                     + mat.expansion_a * np.einsum("eaa,e->", g_ts, vols))
    gamma_bar = _average(space, fields["dissipation"])
    dissipation = np.einsum("eab,e->ab", gamma_bar, vols)
    for j, k in pairs:
        c = np.einsum("eab,eab,e->", gamma_bar,
                      _vector_gradients(space, cors.mechanical[(j, k)]), vols)
        dissipation[j, k] += c
        if j != k:
            dissipation[k, j] += c
    space_b = ctx.space_b
    _, J, _ = ctx.transformation.kinematics_batch(t, x, space_b.qpoints.reshape(-1, d))
    inclusion_measure = np.einsum("eq,q,e->", J.reshape(len(space_b.cells), -1),
                                  space_b.qweights, space_b.volumes)
    dissipation += mat.dissipation_b * inclusion_measure * np.eye(d)

    _, W, H, F, J = interface_batch(ctx.transformation, t, x, ctx.facet_centroids,
                                    ctx.facet_normals)
    integrand = mat.surface_tension * (J * H)[:, None] * np.einsum(
        "fab,fb->fa", np.linalg.inv(F), ctx.facet_normals)
    interface_speed = np.einsum("f,f->", J * W, ctx.facet_areas)
    return dict(stiffness=stiffness, expansion=expansion, conductivity=conductivity,
                heat_capacity=heat_capacity, dissipation=dissipation,
                curvature_force=np.einsum("fa,f->a", integrand, ctx.facet_areas),
                latent_source=(mat.latent_heat if latent_in_source else 1.0)
                * interface_speed,
                interface_speed=interface_speed, matrix_measure=matrix_measure,
                inclusion_measure=inclusion_measure,
                voigt_bound=np.einsum("eab,e->ab", Kbar, vols))


class PerKeyMicroModel(MicroModel):
    """MicroModel whose bundles are built one key at a time, by CSR assembly
    and slicing."""

    def _maps(self, t, xs, dt):
        return [self._maps_one(t, x, dt) for x in xs]

    def _maps_one(self, t, x, dt):
        ctx = self.ctx
        f = coefficient_fields(self.space, ctx.transformation, ctx.material, PHASE_B, t, x)
        mesh, space, d = self.mesh, self.space, self.dim
        I, Iv = self.interior_scalar, self.interior_vector
        S, A = dissipation_maps(space, f["dissipation"], f["velocity"])
        S, A = S[I], A[I]
        l_J = quadrature_load_map(space) @ f["jacobian"].ravel()
        cap = ctx.material.density_b * ctx.material.heat_capacity_b
        M_c = assemble_operator(mesh, "mass", f["heat_capacity"], space=space)[I]
        E = assemble_operator(mesh, "elasticity", f["stiffness"], space=space)[Iv]
        G = assemble_operator(mesh, "coupling", f["expansion"], space=space)[Iv]
        b = dict(dt=None, prev=sp.hstack([M_c, S], format="csc"),
                 mech=sp.hstack([-G, E], format="csc"), content=cap * l_J, l_J=l_J[I],
                 L_J=np.kron(l_J[:, None], np.eye(d))[Iv])
        if dt is None:
            return b
        flux = f["heat_capacity"][:, :, None] * f["velocity"]
        H = (M_c / dt
             + assemble_operator(mesh, "advection", flux, space=space)[I]
             + assemble_operator(mesh, "scalar_diffusion", f["conductivity"], space=space)[I])
        rows = sp.bmat([[H, S / dt + A], [-G, E]], format="csc")
        lu = spla.splu(rows[:, self._unknowns], permc_spec="MMD_AT_PLUS_A")
        W = lu.solve(-(rows[:, self._boundary] @ np.eye(1 + d)[self._trace_of]))
        content = b["content"]
        c_tr = content[I] @ W[:len(I)]
        c_tr[0] += content[self.boundary_scalar].sum()
        b.update(dt=round(float(dt), 14), factor=lu, W=W, c_tr=c_tr)
        return b
