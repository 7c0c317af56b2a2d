"""Periodic cell problems on the perforated unit cell.

At a fixed (t, x) the transformed coefficients are frozen on the matrix part
of the cell and three families of correctors are solved for: one vector field
per independent symmetric unit strain, one vector field driven by thermal
expansion, and one scalar field per coordinate direction for heat flux.  All
correctors live in the periodic zero-mean space on the matrix phase; the
inclusion boundary carries the natural condition.  The constrained spaces
depend on the cell mesh only and are reduced once per :class:`CellContext`;
at each (t, x) every family is solved as one block with a single sparse LU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import (
    ConstraintSet,
    P1Space,
    SolverError,
    assemble_gradient_load,
    assemble_operator,
    assemble_scalar_load,
    assemble_strain_load,
    constraint_basis,
    solve_block,
)
from .kinematics import PHASE_A, PHASE_B, coefficient_fields, sym_index_pairs
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

        # periodic zero-mean spaces, reduced once; each key only forms R^T A R
        self.scalar_basis = constraint_basis(self.space_a.n_scalar, ConstraintSet(
            periodic=pairs, zero_mean_weights=[self.volume_weights]))
        self.vector_basis = constraint_basis(self.space_a.n_vector, ConstraintSet(
            periodic=self.periodic_vector, zero_mean_weights=list(self.vector_weights)))

        # interface data lives on the full cell mesh
        self.facet_centroids = cell_mesh.facet_centroids()
        self.facet_areas = cell_mesh.facet_areas()
        self.facet_normals = cell_mesh.interface_normals

    # -- coefficient fields --------------------------------------------------

    def matrix_fields(self, t, x):
        """Pulled-back coefficient fields at the matrix-phase quadrature points."""
        return coefficient_fields(self.space_a, self.transformation, self.material,
                                  PHASE_A, t, x)

    def inclusion_measure(self, t, x):
        """Deformed measure of the inclusion part of the cell."""
        space = self.space_b
        pts = space.qpoints.reshape(-1, self.dim)
        _, J, _ = self.transformation.kinematics_batch(t, x, pts)
        J = J.reshape(len(space.cells), len(space.qweights))
        return float(np.einsum("eq,q,e->", J, space.qweights, space.volumes))


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


def _solve_family(basis, A, loads, names, t, x, tol):
    """One direct solve for all loads on A; each column's relative residual
    must stay within ``tol``.  Returns the solutions (one per row) and the
    residuals by name."""
    sol, res = solve_block(basis.reduce(A, np.column_stack(loads)))
    residuals = dict(zip(names, res.tolist()))
    for name, r in residuals.items():
        if not r <= tol:
            raise SolverError(
                f"cell corrector {name} at t={float(t):g}, "
                f"x={np.asarray(x, dtype=float).tolist()}: relative residual "
                f"{r:.3e} exceeds corrector_tol {tol:g}",
                list(residuals.values()),
            )
    return sol.T.copy(), residuals


def solve_elastic_correctors(ctx: CellContext, t, x, fields=None, tol=1e-10):
    """Strain correctors for every independent pad plus the expansion corrector."""
    fields = fields if fields is not None else ctx.matrix_fields(t, x)
    space = ctx.space_a
    A = assemble_operator(ctx.sub_a.mesh, "elasticity", fields["stiffness"], space=space)
    pads = strain_pads(ctx.dim)
    loads = [-assemble_strain_load(space, np.einsum("eqabcd,cd->eqab",
                                                    fields["stiffness"], E))
             for E in pads.values()]
    loads.append(assemble_strain_load(space, fields["expansion"]))
    names = [("mechanical", j, k) for j, k in pads] + ["thermal_stress"]
    sol, residuals = _solve_family(ctx.vector_basis, A, loads, names, t, x, tol)
    mechanical = dict(zip(pads, sol[:-1]))
    return mechanical, sol[-1], pads, residuals


def solve_thermal_correctors(ctx: CellContext, t, x, fields=None, tol=1e-10):
    """Flux correctors: K^ref (grad tau_j + e_j) weakly divergence free."""
    fields = fields if fields is not None else ctx.matrix_fields(t, x)
    space = ctx.space_a
    A = assemble_operator(ctx.sub_a.mesh, "scalar_diffusion", fields["conductivity"],
                          space=space)
    loads = [assemble_gradient_load(space, -fields["conductivity"][:, :, :, j])
             for j in range(ctx.dim)]
    names = [("thermal", j) for j in range(ctx.dim)]
    sol, residuals = _solve_family(ctx.scalar_basis, A, loads, names, t, x, tol)
    return list(sol), residuals


def solve_correctors(ctx: CellContext, t, x, tol=1e-10, fields=None) -> Correctors:
    """All cell correctors at (t, x).  ``tol`` bounds the relative residual of
    each corrector's direct solve; a breach raises :class:`SolverError`."""
    fields = fields if fields is not None else ctx.matrix_fields(t, x)
    mechanical, thermal_stress, pads, res_m = solve_elastic_correctors(
        ctx, t, x, fields=fields, tol=tol
    )
    thermal, res_t = solve_thermal_correctors(ctx, t, x, fields=fields, tol=tol)
    res_m.update(res_t)
    return Correctors(
        t=float(t), x=np.asarray(x, dtype=float), mechanical=mechanical,
        thermal_stress=thermal_stress, thermal=thermal, pads=pads, residuals=res_m,
    )


# -- helpers used by the effective-coefficient assembly ----------------------


def element_vector_gradients(space: P1Space, field):
    """Per-element gradient (d x d) of a P1 vector field."""
    d = space.dim
    nodal = field.reshape(-1, d)[space.cells]              # (e, nloc, d)
    return np.einsum("eia,eib->eab", nodal, space.gradients)


def element_scalar_gradients(space: P1Space, field):
    nodal = field[space.cells]
    return np.einsum("ei,eib->eb", nodal, space.gradients)

