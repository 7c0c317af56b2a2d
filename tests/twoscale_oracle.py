"""The staggered macro/micro loop: the oracle for the exact two-scale step.

``StaggeredTwoScaleSolver`` solves each implicit-Euler step the way
``TwoScaleSolver`` did before its step was condensed: macro heat, macro
elasticity and a micro sweep in turn, each sweep advancing every host with
``EinsumMicroModel``'s lagged step (the deformation of the previous sweep
enters the dissipation loads), until the macro iterates move by less than
``fixed_point_tol``; then one more macro heat and elasticity solve against
the final micro content.  Traces and content loads are evaluated with einsum
at the quadrature points, and every macro system is solved directly.  The
sweeps run on per-host ``MicroRecord``s, stacked into the state arrays.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla
from micro_oracle import EinsumMicroModel, stack, unstack

from thermohom.fem import assemble_scalar_load
from thermohom.twoscale import TwoScaleSolver, TwoScaleState


class StaggeredTwoScaleSolver(TwoScaleSolver):
    def __init__(self, macro_mesh, provider, settings=None, fixed_point_tol=1e-14,
                 fixed_point_max_iter=200):
        super().__init__(macro_mesh, provider, settings)
        self.micro_model = EinsumMicroModel(provider.ctx, sources=provider.sources)
        self.fixed_point_tol = fixed_point_tol
        self.fixed_point_max_iter = fixed_point_max_iter

    def traces_at_hosts(self, theta, u):
        d = self.dim
        th_q = np.einsum("qi,ei->eq", self.space.shape_values, theta[self.space.cells])
        u_q = np.einsum("qi,eid->eqd", self.space.shape_values,
                        u.reshape(-1, d)[self.space.cells])
        if self.settings.micro_per_element:
            return th_q.mean(axis=1), u_q.mean(axis=1)
        return th_q.reshape(-1), u_q.reshape(-1, d)

    def content_load(self, contents):
        e, nq = len(self.space.cells), len(self.space.qweights)
        return assemble_scalar_load(self.space, contents[self.host_of_qp].reshape(e, nq))

    def _record_content(self, state, ops):
        state.macro_heat_content = float((ops["M_c"] @ state.theta).sum())
        state.micro_heat_content = float(self.content_load(state.micro_content).sum())
        state.heat_content = state.macro_heat_content + state.micro_heat_content

    def macro_step(self, state: TwoScaleState, dt) -> TwoScaleState:
        t_new = state.t + dt
        ops_new, ops_old = self.level(t_new), self.level(state.t)
        R = self.mech_basis.restriction
        E_red = self.mech_basis.reduce_matrix(ops_new["E"])
        mech_lu = spla.splu(E_red.tocsc())
        heat_lu = spla.splu((ops_new["M_c"] / dt + ops_new["A_K"]).tocsc())
        base_rhs = (ops_old["M_c"] @ state.theta) / dt + ops_new["heat_load"]
        q_old = self.content_load(state.micro_content)
        diss_old = ops_old["G_gamma"].T @ state.u

        prev = unstack(state.micro_theta, state.micro_u, state.micro_content)
        theta_k, u_k, micro_k = state.theta, state.u, prev
        sweeps, converged = 0, False
        while True:
            contents = np.array([m.heat_content for m in micro_k])
            rhs = (base_rhs + (q_old - self.content_load(contents)) / dt
                   + (diss_old - ops_new["G_gamma"].T @ u_k) / dt)
            theta = heat_lu.solve(rhs)
            u = R @ mech_lu.solve(self._mech_rhs(ops_new, theta))
            if converged:  # the closing solves against micro_k
                break
            assert sweeps < self.fixed_point_max_iter, f"no convergence at t = {t_new}"
            sweeps += 1
            traces_th, traces_u = self.traces_at_hosts(theta, u)
            micro = [self.micro_model.step(t_new, dt, x, traces_th[i], traces_u[i],
                                           prev[i], u_lag=micro_k[i].u)
                     for i, x in enumerate(self.host_points)]
            diff = theta - theta_k
            d_theta = np.sqrt(max(diff @ (ops_new["M_c"] @ diff), 0.0))
            d_u = np.linalg.norm(u - u_k) / max(1.0, np.linalg.norm(u))
            theta_k, u_k, micro_k = theta, u, micro
            converged = d_theta + d_u < self.fixed_point_tol

        new_state = TwoScaleState(
            t_new, theta, u, *stack(micro_k), fixed_point_iterations=sweeps,
            mech_residual=self._mech_residual(E_red, ops_new, theta, u))
        self._record_content(new_state, ops_new)
        return new_state


def state_deviation(new: TwoScaleState, ref: TwoScaleState):
    """Largest max-norm relative deviation of the macro fields, the total
    heat content and every host's temperature, deformation and content; each
    host row is measured against its own reference."""
    def rel(a, b, rows=1):
        assert np.shape(a) == np.shape(b)
        a, b = np.reshape(a, (rows, -1)), np.reshape(b, (rows, -1))
        return float(np.max(np.max(np.abs(a - b), axis=1)
                            / np.maximum(np.max(np.abs(b), axis=1), 1e-300)))

    n = len(ref.micro_content)
    return max(rel(new.theta, ref.theta), rel(new.u, ref.u),
               rel(new.heat_content, ref.heat_content),
               rel(new.micro_theta, ref.micro_theta, n), rel(new.micro_u, ref.micro_u, n),
               rel(new.micro_content, ref.micro_content, n))
