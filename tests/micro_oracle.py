"""Per-call einsum assembly of the micro step: the oracle for MicroModel.

``EinsumMicroModel`` re-derives every right-hand side of the inclusion
problems from the pulled-back coefficient fields on every call, with the
generic load assemblers of ``thermohom.fem``, and steps the inclusion heat
problem with a lagged deformation in its dissipation loads, followed by the
quasi-static elasticity update.  ``coupled_step`` iterates that lagged step
to its fixed point.  It works host by host on ``MicroRecord``s;
``initial_states`` stacks them into the arrays of a ``TwoScaleState``.
``MicroModel`` applies precomputed affine maps and solves the coupled step in
one block instead; the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from thermohom.fem import (
    assemble_gradient_load,
    assemble_operator,
    assemble_scalar_load,
    assemble_vector_load,
)
from thermohom.kinematics import PHASE_B, coefficient_fields
from thermohom.twoscale import MicroModel


@dataclass
class MicroRecord:
    """One host's micro state."""

    theta: np.ndarray
    u: np.ndarray
    heat_content: float


def stack(records):
    """The temperature, deformation and heat-content arrays of the records."""
    return (np.array([m.theta for m in records]), np.array([m.u for m in records]),
            np.array([m.heat_content for m in records]))


def unstack(theta, u, content):
    """One record per row of the micro state arrays."""
    return [MicroRecord(*m) for m in zip(theta, u, content)]


class EinsumMicroModel(MicroModel):
    """MicroModel whose bundles keep the coefficient fields and full operators."""

    def __init__(self, ctx, sources=None):
        super().__init__(ctx, sources=sources)
        self._bundles = {}

    def bundle(self, t, x, dt=1.0):
        key = (self.ctx.transformation.sample_key(t, x), round(float(dt), 14))
        hit = self._bundles.get(key)
        if hit is not None:
            return hit
        ctx = self.ctx
        f = coefficient_fields(self.space, ctx.transformation, ctx.material, PHASE_B, t, x)
        mesh, space = self.mesh, self.space
        M_c = assemble_operator(mesh, "mass", f["heat_capacity"], space=space)
        flux = f["heat_capacity"][:, :, None] * f["velocity"]
        N = assemble_operator(mesh, "advection", flux, space=space)
        A_K = assemble_operator(mesh, "scalar_diffusion", f["conductivity"], space=space)
        heat_lhs = (M_c / dt + N + A_K).tocsr()
        I, B = self.interior_scalar, self.boundary_scalar
        heat_lu = spla.splu(heat_lhs[I][:, I].tocsc())
        heat_bd = np.asarray(heat_lhs[I][:, B].sum(axis=1)).ravel()

        E = assemble_operator(mesh, "elasticity", f["stiffness"], space=space)
        G = assemble_operator(mesh, "coupling", f["expansion"], space=space)
        Iv, Bv = self.interior_vector, self.boundary_vector
        mech_lu = spla.splu(E[Iv][:, Iv].tocsc())
        mech_bd = []
        d = self.dim
        for c in range(d):
            ones = np.zeros(len(Bv))
            ones[c::d] = 1.0
            mech_bd.append(np.asarray(E[Iv][:, Bv] @ ones).ravel())

        bundle = dict(fields=f, M_c=M_c, heat_lu=heat_lu, heat_bd=heat_bd,
                      mech_lu=mech_lu, mech_bd=mech_bd, G=G)
        self._bundles[key] = bundle
        return bundle

    def _qp_scalar(self, nodal):
        return np.einsum("qi,ei->eq", self.space.shape_values, nodal[self.space.cells])

    def _dissipation_values(self, fields, u):
        d = self.dim
        nodal = u.reshape(-1, d)[self.space.cells]
        grads = np.einsum("eia,eib->eab", nodal, self.space.gradients)
        return np.einsum("eqab,eab->eq", fields["dissipation"], grads)

    def heat_content(self, fields, theta):
        vals = self._qp_scalar(theta) * fields["jacobian"]
        total = np.einsum("eq,q,e->", vals, self.space.qweights, self.space.volumes)
        cap = self.ctx.material.density_b * self.ctx.material.heat_capacity_b
        return cap * total

    def initial_state(self, t, x, trace_theta, trace_u, theta_field=None):
        b = self.bundle(t, x, dt=1.0)
        theta = np.full(self.space.n_scalar, trace_theta) if theta_field is None \
            else theta_field.copy()
        theta[self.boundary_scalar] = trace_theta
        u = self._oracle_mech(b, theta, trace_u, t)
        return MicroRecord(theta=theta, u=u,
                           heat_content=self.heat_content(b["fields"], theta))

    def initial_states(self, t, xs, groups, traces_theta, traces_u, theta_fields=None):
        return stack([self.initial_state(t, x, traces_theta[i], traces_u[i],
                                         None if theta_fields is None else theta_fields[i])
                      for i, x in enumerate(xs)])

    def _oracle_mech(self, b, theta, trace_u, t):
        d = self.dim
        rhs = b["G"] @ theta
        _, f_u_b, _, _ = self.sources(t)
        if np.any(np.asarray(f_u_b) != 0.0):
            load = b["fields"]["jacobian"][:, :, None] * np.asarray(f_u_b)
            rhs = rhs + assemble_vector_load(self.space, load)
        r = rhs[self.interior_vector].copy()
        for c in range(d):
            r -= trace_u[c] * b["mech_bd"][c]
        u = np.zeros(self.space.n_vector)
        u[self.interior_vector] = b["mech_lu"].solve(r)
        u[self.boundary_vector] = np.tile(trace_u, len(self.boundary_nodes))
        return u

    def step(self, t_new, dt, x, trace_theta, trace_u, prev, u_lag=None):
        b_new = self.bundle(t_new, x, dt)
        b_old = self.bundle(t_new - dt, x, dt)
        f_new, f_old = b_new["fields"], b_old["fields"]
        u_lag = prev.u if u_lag is None else u_lag

        rhs = (b_old["M_c"] @ prev.theta) / dt
        diss_new = self._dissipation_values(f_new, u_lag)
        diss_old = self._dissipation_values(f_old, prev.u)
        rhs -= assemble_scalar_load(self.space, (diss_new - diss_old) / dt)
        rhs -= assemble_gradient_load(self.space,
                                      diss_new[:, :, None] * f_new["velocity"])
        _, _, _, f_th_b = self.sources(t_new)
        if f_th_b != 0.0:
            rhs += assemble_scalar_load(self.space, f_new["jacobian"] * f_th_b)

        r = rhs[self.interior_scalar] - trace_theta * b_new["heat_bd"]
        theta = np.empty(self.space.n_scalar)
        theta[self.interior_scalar] = b_new["heat_lu"].solve(r)
        theta[self.boundary_scalar] = trace_theta

        u = self._oracle_mech(b_new, theta, trace_u, t_new)
        return MicroRecord(theta=theta, u=u,
                           heat_content=self.heat_content(f_new, theta))

    def coupled_step(self, t_new, dt, x, trace_theta, trace_u, prev, tol=1e-14,
                     max_iter=100):
        """Lagged steps until the deformation reproduces itself."""
        lag = prev.u
        for _ in range(max_iter):
            state = self.step(t_new, dt, x, trace_theta, trace_u, prev, u_lag=lag)
            if np.max(np.abs(state.u - lag)) <= tol * max(1.0, np.max(np.abs(state.u))):
                return state
            lag = state.u
        raise AssertionError(f"lagged micro step did not converge at t = {t_new}")
