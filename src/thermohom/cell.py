"""Periodic cell problems on the perforated unit cell.

At a fixed (t, x) the transformed coefficients are frozen on the matrix part
of the cell and three families of correctors are solved for: one vector field
per independent symmetric unit strain, one vector field driven by thermal
expansion, and one scalar field per coordinate direction for heat flux.  All
correctors live in the periodic zero-mean space on the matrix phase; the
inclusion boundary carries the natural condition.

The constrained spaces depend on the cell mesh only.  Each
:class:`CellContext` therefore maps the element blocks of either family once,
straight to the data of its reduced system with explicit zero-mean
multipliers (:meth:`ConstraintBasis.augmented_scatter`).
:func:`solve_correctors_batch` builds the fields, blocks and loads of many
(t, x) samples in one batch and then solves each sample's family with a
single sparse LU; :func:`solve_correctors` is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import (
    ConstraintSet,
    Factor,
    P1Space,
    assemble_scalar_load,
    check_residuals,
    constraint_basis,
    key_einsum,
    scatter_load,
    weak_form,
)
from .kinematics import PHASE_A, PHASE_B, key_fields, key_points, sym_index_pairs
from .mesh import extract_phase_submesh


def strain_pads(dim):
    """Independent symmetric unit strains E_jk = sym(e_j otimes e_k), j <= k."""
    pads = {}
    for j, k in sym_index_pairs(dim):
        E = np.zeros((dim, dim))
        E[j, k] += 0.5
        E[k, j] += 0.5
        pads[(j, k)] = E
    return pads


class CellContext:
    """Meshes, spaces, and the constrained spaces shared by all cell solves."""

    def __init__(self, cell_mesh, material, transformation):
        self.mesh = cell_mesh
        self.material = material
        self.transformation = transformation
        self.dim = cell_mesh.dim

        self.sub_a = extract_phase_submesh(cell_mesh, PHASE_A)
        self.sub_b = extract_phase_submesh(cell_mesh, PHASE_B)
        self.space_a = P1Space(self.sub_a.mesh)
        self.space_b = P1Space(self.sub_b.mesh)

        d = self.dim
        pairs = self.sub_a.mesh.periodic_pairs
        self.periodic_vector = np.concatenate(
            [pairs * d + c for c in range(d)], axis=0
        ) if len(pairs) else np.zeros((0, 2), dtype=int)

        self.volume_weights = assemble_scalar_load(self.space_a, 1.0)
        self.vector_weights = []
        for c in range(d):
            w = np.zeros(self.space_a.n_vector)
            w[c::d] = self.volume_weights
            self.vector_weights.append(w)

        # periodic zero-mean spaces and the scatters of each family's element
        # blocks into its augmented reduced system, built once
        self.scalar_basis = constraint_basis(self.space_a.n_scalar, ConstraintSet(
            periodic=pairs, zero_mean_weights=[self.volume_weights]))
        self.vector_basis = constraint_basis(self.space_a.n_vector, ConstraintSet(
            periodic=self.periodic_vector, zero_mean_weights=list(self.vector_weights)))
        self.thermal_scatter = self.scalar_basis.augmented_scatter(
            self.space_a.scalar_dofs())
        self.elastic_scatter = self.vector_basis.augmented_scatter(
            self.space_a.vector_dofs())

        # interface data lives on the full cell mesh
        self.facet_centroids = cell_mesh.facet_centroids()
        self.facet_areas = cell_mesh.facet_areas()
        self.facet_normals = cell_mesh.interface_normals

    # -- coefficient fields --------------------------------------------------

    def matrix_fields(self, t, xs):
        """Pulled-back coefficient fields at the matrix-phase quadrature
        points, for one macro point x or each of (k, d) points xs: (k, e,
        nq, ...) arrays."""
        return key_fields(self.space_a, self.transformation, self.material, PHASE_A, t,
                          np.atleast_2d(xs))

    def inclusion_measure(self, t, xs):
        """Deformed measure of the inclusion part of the cell at each of the
        (k, d) macro points xs."""
        space = self.space_b
        _, J, _ = self.transformation.kinematics_batch(
            t, *key_points(xs, space.qpoints.reshape(-1, self.dim)))
        J = J.reshape(len(xs), len(space.cells), len(space.qweights))
        return key_einsum("keq,q,e->k", J, space.qweights, space.volumes)


@dataclass
class Correctors:
    """Cell-problem solutions at one (t, x): all periodic with zero mean on Y_A."""

    t: float
    x: np.ndarray
    mechanical: dict          # (j, k) -> nodal vector field on the matrix submesh
    thermal_stress: np.ndarray
    thermal: list             # per direction, nodal scalar fields
    pads: dict                # (j, k) -> constant symmetric strain
    residuals: dict


def _solve_family(scatter, basis, dofs, blocks, loads, names, t, xs, tol):
    """Every key's family: one sparse LU of its augmented reduced system
    (a pivoted :class:`~thermohom.fem.Factor`: the system is symmetric
    indefinite), from the element blocks ``blocks`` (k, e, ...), for all of
    its element loads ``loads`` (k, m, e, ...) on ``dofs``; each column's
    relative residual must stay within ``tol``.  Returns the solutions
    (k, m, n_full) and each key's residuals by name."""
    k, m = loads.shape[:2]
    data = scatter.data(blocks)
    n_aug = scatter.shape[0]
    rows = basis.reduced_index[dofs]             # periodic bases pin no dof
    rhs = scatter_load(rows, n_aug, loads).reshape(k, m, n_aug).transpose(0, 2, 1)
    R = basis.restriction
    out = np.empty((k, m, R.shape[0]))
    residuals = []
    for i in range(k):
        at = f"t={float(t):g}, x={np.asarray(xs[i], dtype=float).tolist()}"
        K = scatter.matrix(data[i])
        Z = Factor(K, f"cell correctors at {at}").lu.solve(rhs[i])
        res = check_residuals(K, Z, rhs[i], [f"cell corrector {name} at {at}"
                                             for name in names], tol, "corrector_tol")
        residuals.append(dict(zip(names, res.tolist())))
        out[i] = (R @ Z[: R.shape[1]]).T
    return out, residuals


def solve_correctors_batch(ctx: CellContext, t, xs, tol=1e-10, fields=None):
    """The :class:`Correctors` of each (k, d) macro point of xs at t, the
    fields, element blocks and loads of all keys built together.  ``tol``
    bounds the relative residual of each corrector's direct solve; a breach
    raises :class:`SolverError` naming that key's t and x.  ``fields`` are
    :meth:`CellContext.matrix_fields` of xs."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    fields = fields if fields is not None else ctx.matrix_fields(t, xs)
    space, d = ctx.space_a, ctx.dim
    pads = strain_pads(d)

    C = fields["stiffness"]
    stresses = np.concatenate([
        -key_einsum("keqabcd,pcd->kpeqab", C, np.array(list(pads.values()))),
        fields["expansion"][:, None]], axis=1)
    elastic, res_m = _solve_family(
        ctx.elastic_scatter, ctx.vector_basis, space.vector_dofs(),
        weak_form(space, "elasticity", C), weak_form(space, "strain_load", stresses),
        [("mechanical", j, kk) for j, kk in pads] + ["thermal_stress"], t, xs, tol)

    # the flux load of direction j: the gradient load of -K e_j
    K = fields["conductivity"]
    thermal, res_t = _solve_family(
        ctx.thermal_scatter, ctx.scalar_basis, space.scalar_dofs(),
        weak_form(space, "scalar_diffusion", K),
        weak_form(space, "gradient_load", np.moveaxis(-K, -1, 1)),
        [("thermal", j) for j in range(d)], t, xs, tol)

    return [Correctors(t=float(t), x=x, mechanical=dict(zip(pads, elastic[i, :-1])),
                       thermal_stress=elastic[i, -1], thermal=list(thermal[i]),
                       pads=strain_pads(d), residuals={**res_m[i], **res_t[i]})
            for i, x in enumerate(xs)]


def solve_correctors(ctx: CellContext, t, x, tol=1e-10, fields=None) -> Correctors:
    """All cell correctors at (t, x): :func:`solve_correctors_batch` of one."""
    return solve_correctors_batch(ctx, t, np.asarray(x, dtype=float)[None], tol=tol,
                                  fields=fields)[0]
