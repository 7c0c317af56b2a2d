"""Per-right-hand-side projected CG for the cell correctors: the oracle for
the block direct solve in ``thermohom.cell``.

``solve_correctors_cg`` reduces the constraints again for every right-hand
side and runs one Jacobi-preconditioned CG solve (``solve_spd``, zero means
enforced by projection) per corrector.  ``thermohom.cell`` instead reduces
once per cell and solves each family with one sparse LU of the system with
explicit multipliers; the tests compare the two.
"""

from __future__ import annotations

import numpy as np

from thermohom.cell import CellContext, Correctors, strain_pads
from thermohom.fem import (
    ConstraintSet,
    apply_constraints,
    assemble_gradient_load,
    assemble_operator,
    assemble_strain_load,
    solve_spd,
)
from thermohom.kinematics import (
    IdentityTransform,
    PolynomialAmplitude,
    RadialGrowth,
    default_material,
)
from thermohom.mesh import build_cell_mesh


def _solve(A, rhs, cs, tol):
    red = apply_constraints(A, rhs, cs)
    sol, info = solve_spd(red.matrix, red.rhs, tol=tol, constraints=red.constraints)
    return red.recover(sol), info.residuals[-1]


def solve_correctors_cg(ctx, t, x, tol=1e-10, fields=None) -> Correctors:
    """Drop-in for :func:`thermohom.cell.solve_correctors`."""
    if fields is None:
        fields = {name: a[0] for name, a in ctx.matrix_fields(t, x).items()}
    space, mesh = ctx.space_a, ctx.sub_a.mesh
    residuals = {}

    A = assemble_operator(mesh, "elasticity", fields["stiffness"], space=space)
    cs = ConstraintSet(periodic=ctx.periodic_vector,
                       zero_mean_weights=list(ctx.vector_weights))
    pads = strain_pads(ctx.dim)
    mechanical = {}
    for (j, k), E in pads.items():
        S = np.einsum("eqabcd,cd->eqab", fields["stiffness"], E)
        mechanical[(j, k)], residuals[("mechanical", j, k)] = _solve(
            A, -assemble_strain_load(space, S), cs, tol)
    thermal_stress, residuals["thermal_stress"] = _solve(
        A, assemble_strain_load(space, fields["expansion"]), cs, tol)

    A = assemble_operator(mesh, "scalar_diffusion", fields["conductivity"], space=space)
    cs = ConstraintSet(periodic=ctx.sub_a.mesh.periodic_pairs,
                       zero_mean_weights=[ctx.volume_weights])
    thermal = []
    for j in range(ctx.dim):
        tau, residuals[("thermal", j)] = _solve(
            A, assemble_gradient_load(space, -fields["conductivity"][:, :, :, j]), cs, tol)
        thermal.append(tau)

    return Correctors(
        t=float(t), x=np.asarray(x, dtype=float), mechanical=mechanical,
        thermal_stress=thermal_stress, thermal=thermal, pads=pads, residuals=residuals,
    )


# The block LU and the CG oracle agree to the oracle's accuracy.  With the
# oracle run at tol 1e-13 the measured max-norm differences, relative to each
# corrector's size, stay below 5e-14 in every test case; the parity tests
# require 1e-9.
PARITY_RTOL = 1e-9
ORACLE_TOL = 1e-13


def transform_cases(dim):
    return {
        "identity": IdentityTransform(dim=dim),
        "radial_growth": RadialGrowth(dim=dim, inclusion_radius=0.25,
                                      amplitude=PolynomialAmplitude((0.0, 0.2))),
        "amplitude_x_slope": RadialGrowth(
            dim=dim, inclusion_radius=0.25,
            amplitude=PolynomialAmplitude((0.0, 0.2), (0.5, 0.25, 0.1)[:dim])),
    }


def cell_context(dim, name):
    mesh = build_cell_mesh(0.25, 8 if dim == 2 else 4, dim=dim)
    return CellContext(mesh, default_material(dim), transform_cases(dim)[name])


def assert_max_close(a, b, rtol=PARITY_RTOL):
    assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))
