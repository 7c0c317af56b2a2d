"""Time integration of the homogenized two-scale thermoelastic system.

Macro scale: quasi-static elasticity and a heat balance with effective
coefficients on the unit square/cube.  Micro scale: every macro quadrature
point hosts a heat/elasticity problem on the reference inclusion, solved in
reference coordinates with pulled-back coefficients and constant Dirichlet
traces taken from the macro fields.  Coupling runs both ways: traces
downward, inclusion heat content upward (inside the time derivative of the
macro balance).

Within a step every micro problem is linear, with matrices fixed by the
transformation sample key.  ``MicroModel`` therefore precomputes, once per
sample key, the affine maps a micro step applies, plus the heat
factorization for the step's dt; source terms enter as unit loads scaled by
the source values at the t of each call.

Time stepping is implicit Euler with a staggered fixed-point loop per step
(macro heat, macro elasticity, micro sweep).  After convergence one more
macro heat and elasticity solve against the final micro content makes the
accepted state satisfy the discrete macro balance exactly, which is what the
conservation diagnostics check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .cell import CellContext
from .effective import EffectiveProvider
from .fem import (
    ConstraintSet,
    P1Space,
    SolverError,
    assemble_operator,
    assemble_scalar_load,
    assemble_vector_load,
    constraint_basis,
    dissipation_maps,
    quadrature_load_map,
    solve_spd,
    solve_spd_or_direct,
    vector_mass,
)
from .kinematics import PHASE_B, LevelCache, coefficient_fields, zero_sources


@dataclass
class SolverSettings:
    cg_tol: float = 1e-12
    cg_max_iter: int = 50_000
    fixed_point_tol: float = 1e-8
    fixed_point_max_iter: int = 50
    latent_sign: float = 1.0
    micro_per_element: bool = False


@dataclass
class MicroState:
    theta: np.ndarray
    u: np.ndarray
    heat_content: float


@dataclass
class TwoScaleState:
    t: float
    theta: np.ndarray               # macro nodal temperature
    u: np.ndarray                   # macro nodal deformation (interleaved)
    micro: list                     # MicroState per hosting point
    heat_content: float = 0.0
    macro_heat_content: float = 0.0
    micro_heat_content: float = 0.0
    fixed_point_iterations: int = 0
    mech_residual: float = 0.0
    trace_defect: float = 0.0
    heat_solver: str = "cg"


class FixedPointError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# micro problems on the reference inclusion


class MicroModel:
    """Inclusion problems at the macro hosting points, as affine maps.

    Within one implicit-Euler step the micro heat and elasticity problems are
    linear, and their matrices depend on the host only through the
    transformation sample key, so hosts with the same key share one bundle
    and only their right-hand sides differ.  A bundle holds every linear map
    one micro step applies, restricted to interior rows:

    - ``M_c``, the heat-capacity mass, and ``G``, the thermal-stress coupling;
    - ``S`` and ``A``, the dissipation loads ``int (gamma : grad u) phi_i``
      and ``int (gamma : grad u) v . grad phi_i`` as sparse maps of u;
    - ``content``, the weights ``rho c int J phi_i`` of the heat content
      (all rows);
    - ``l_J`` and ``L_J``, the unit source loads ``int J phi_i`` and
      ``int J phi_i e_a``;
    - the elasticity factorization and the boundary columns that carry the
      Dirichlet trace (``mech_bd``, n_int_v x d);
    - for the dt of the step that ends at the bundle's time level, the heat
      factorization and its boundary column ``heat_bd``.

    ``step`` is then a few sparse mat-vecs and two triangular solves.  Sources
    are the unit loads scaled by ``sources(t)`` at the t of each call, so one
    bundle serves every t of a static geometry.  The cache keeps the bundles
    of the two most recent time levels, the current step pair.
    """

    def __init__(self, ctx: CellContext, sources=None):
        self.ctx = ctx
        self.space = ctx.space_b
        self.mesh = ctx.sub_b.mesh
        self.dim = ctx.dim
        self.sources = sources if sources is not None else zero_sources(ctx.dim)
        d = self.dim

        boundary = np.unique(self.mesh.interface_facets)
        self.boundary_nodes = boundary
        mask = np.zeros(self.space.n_scalar, dtype=bool)
        mask[boundary] = True
        self.interior_scalar = np.flatnonzero(~mask)
        self.boundary_scalar = np.flatnonzero(mask)
        vmask = np.repeat(mask, d)
        self.interior_vector = np.flatnonzero(~vmask)
        self.boundary_vector = np.flatnonzero(vmask)
        self.cache = LevelCache()

    def bundle(self, t, x, dt=None):
        """The maps of the micro step at (t, x); with dt, also the heat
        factorization of an implicit-Euler step of length dt ending at t.  A
        cached bundle without that factorization is rebuilt."""
        key = self.ctx.transformation.sample_key(t, x)
        valid = None if dt is None else (lambda b: b["dt"] == round(float(dt), 14))
        return self.cache.get(t, key, lambda: self._build_bundle(t, x, dt), valid)

    def _build_bundle(self, t, x, dt):
        ctx = self.ctx
        f = coefficient_fields(self.space, ctx.transformation, ctx.material, PHASE_B, t, x)
        mesh, space, d = self.mesh, self.space, self.dim
        I, B = self.interior_scalar, self.boundary_scalar
        Iv, Bv = self.interior_vector, self.boundary_vector

        S, A = dissipation_maps(space, f["dissipation"], f["velocity"])
        l_J = quadrature_load_map(space) @ f["jacobian"].ravel()
        cap = self.ctx.material.density_b * self.ctx.material.heat_capacity_b
        M_c = assemble_operator(mesh, "mass", f["heat_capacity"], space=space)
        b = dict(dt=None, M_c=M_c[I], S=S[I], A=A[I],
                 content=cap * l_J, l_J=l_J[I], L_J=np.kron(l_J[:, None], np.eye(d))[Iv])

        E = assemble_operator(mesh, "elasticity", f["stiffness"], space=space)[Iv]
        G = assemble_operator(mesh, "coupling", f["expansion"], space=space)
        b.update(G=G[Iv], mech_lu=spla.splu(E[:, Iv].tocsc()),
                 mech_bd=E[:, Bv] @ np.tile(np.eye(d), (len(self.boundary_nodes), 1)))

        if dt is not None:
            flux = f["heat_capacity"][:, :, None] * f["velocity"]
            N = assemble_operator(mesh, "advection", flux, space=space)
            A_K = assemble_operator(mesh, "scalar_diffusion", f["conductivity"], space=space)
            heat_lhs = (M_c / dt + N + A_K).tocsr()[I]
            b.update(dt=round(float(dt), 14), heat_lu=spla.splu(heat_lhs[:, I].tocsc()),
                     heat_bd=np.asarray(heat_lhs[:, B].sum(axis=1)).ravel())
        return b

    def initial_state(self, t, x, trace_theta, trace_u, theta_field=None) -> MicroState:
        """Consistent micro state: given temperature, quasi-static deformation."""
        b = self.bundle(t, x)
        theta = np.full(self.space.n_scalar, trace_theta) if theta_field is None \
            else theta_field.copy()
        theta[self.boundary_scalar] = trace_theta
        _, f_u_b, _, _ = self.sources(t)
        u = self._solve_mech(b, theta, trace_u, f_u_b)
        return MicroState(theta=theta, u=u, heat_content=float(b["content"] @ theta))

    def _solve_mech(self, b, theta, trace_u, f_u_b):
        r = b["G"] @ theta + b["L_J"] @ np.asarray(f_u_b) - b["mech_bd"] @ trace_u
        u = np.empty(self.space.n_vector)
        u[self.interior_vector] = b["mech_lu"].solve(r)
        u[self.boundary_vector] = np.tile(trace_u, len(self.boundary_nodes))
        return u

    def step(self, t_new, dt, x, trace_theta, trace_u, prev: MicroState,
             u_lag=None) -> MicroState:
        """One implicit Euler step of the inclusion heat problem, then the
        quasi-static elasticity update."""
        b_new = self.bundle(t_new, x, dt)
        b_old = self.bundle(t_new - dt, x)
        u_lag = prev.u if u_lag is None else u_lag
        _, f_u_b, _, f_th_b = self.sources(t_new)

        r = ((b_old["M_c"] @ prev.theta - b_new["S"] @ u_lag + b_old["S"] @ prev.u) / dt
             - b_new["A"] @ u_lag + f_th_b * b_new["l_J"] - trace_theta * b_new["heat_bd"])
        theta = np.empty(self.space.n_scalar)
        theta[self.interior_scalar] = b_new["heat_lu"].solve(r)
        theta[self.boundary_scalar] = trace_theta

        u = self._solve_mech(b_new, theta, trace_u, f_u_b)
        return MicroState(theta=theta, u=u, heat_content=float(b_new["content"] @ theta))


# ---------------------------------------------------------------------------
# macro solver


class TwoScaleSolver:
    def __init__(self, macro_mesh, provider: EffectiveProvider,
                 settings: SolverSettings | None = None):
        self.mesh = macro_mesh
        self.provider = provider
        self.settings = settings if settings is not None else SolverSettings()
        self.space = P1Space(macro_mesh)
        self.dim = macro_mesh.dim
        self.micro_model = MicroModel(provider.ctx, sources=provider.sources)

        e, nq = len(self.space.cells), len(self.space.qweights)
        if self.settings.micro_per_element:
            self.host_points = self.space.qpoints.mean(axis=1)      # element centroids
            self.host_of_qp = np.repeat(np.arange(e), nq)
        else:
            self.host_points = self.space.qpoints.reshape(-1, self.dim)
            self.host_of_qp = np.arange(e * nq)
        self.n_hosts = len(self.host_points)

        bdofs = np.flatnonzero(np.repeat(macro_mesh.boundary_vertex_mask(), self.dim))
        self.mech_basis = constraint_basis(self.space.n_vector,
                                           ConstraintSet.dirichlet_only(bdofs))

    # -- effective coefficient fields -----------------------------------------

    def effective_fields(self, t):
        """Per-quadrature-point arrays of every effective quantity at time t."""
        e, nq = len(self.space.cells), len(self.space.qweights)
        d = self.dim
        pts = self.space.qpoints.reshape(-1, d)
        keys = [self.provider.ctx.transformation.sample_key(t, p) for p in pts]
        uniq = {}
        for i, k in enumerate(keys):
            uniq.setdefault(k, []).append(i)
        out = dict(
            conductivity=np.empty((e * nq, d, d)),
            heat_capacity=np.empty(e * nq),
            stiffness=np.empty((e * nq, d, d, d, d)),
            expansion=np.empty((e * nq, d, d)),
            dissipation=np.empty((e * nq, d, d)),
            curvature_force=np.empty((e * nq, d)),
            latent=np.empty(e * nq),
            source_u=np.empty((e * nq, d)),
            source_theta=np.empty(e * nq),
        )
        for k, idx in uniq.items():
            eff = self.provider.at(t, pts[idx[0]])
            out["conductivity"][idx] = eff.conductivity
            out["heat_capacity"][idx] = eff.heat_capacity
            out["stiffness"][idx] = eff.stiffness
            out["expansion"][idx] = eff.expansion
            out["dissipation"][idx] = eff.dissipation
            out["curvature_force"][idx] = eff.curvature_force
            out["latent"][idx] = self.settings.latent_sign * eff.latent_source
            out["source_u"][idx] = eff.source_u
            out["source_theta"][idx] = eff.source_theta
        return {k: v.reshape((e, nq) + v.shape[1:]) for k, v in out.items()}

    def macro_operators(self, fields):
        mesh, space = self.mesh, self.space
        M_c = assemble_operator(mesh, "mass", fields["heat_capacity"], space=space)
        A_K = assemble_operator(mesh, "scalar_diffusion", fields["conductivity"],
                                space=space)
        E = assemble_operator(mesh, "elasticity", fields["stiffness"], space=space)
        G_alpha = assemble_operator(mesh, "coupling", fields["expansion"], space=space)
        G_gamma = assemble_operator(mesh, "coupling", fields["dissipation"], space=space)
        heat_load = assemble_scalar_load(
            space, fields["source_theta"] - fields["latent"])
        mech_load = assemble_vector_load(
            space, fields["source_u"] + fields["curvature_force"])
        return dict(M_c=M_c, A_K=A_K, E=E, G_alpha=G_alpha, G_gamma=G_gamma,
                    heat_load=heat_load, mech_load=mech_load)

    # -- micro coupling --------------------------------------------------------

    def _content_field(self, micro_states):
        """Inclusion heat content as an (e, nq) coefficient field."""
        e, nq = len(self.space.cells), len(self.space.qweights)
        values = np.array([m.heat_content for m in micro_states])
        return values[self.host_of_qp].reshape(e, nq)

    def content_load(self, micro_states):
        return assemble_scalar_load(self.space, self._content_field(micro_states))

    def traces_at_hosts(self, theta, u):
        """Macro temperature/deformation evaluated at the hosting points."""
        e, nq = len(self.space.cells), len(self.space.qweights)
        d = self.dim
        th_q = np.einsum("qi,ei->eq", self.space.shape_values, theta[self.space.cells])
        u_q = np.einsum("qi,eid->eqd", self.space.shape_values,
                        u.reshape(-1, d)[self.space.cells])
        if self.settings.micro_per_element:
            return th_q.mean(axis=1), u_q.mean(axis=1)
        return th_q.reshape(-1), u_q.reshape(-1, d)

    def micro_sweep(self, t_new, dt, theta, u, prev_micro, lag_micro):
        traces_th, traces_u = self.traces_at_hosts(theta, u)
        step = self.micro_model.step
        return [step(t_new, dt, x, traces_th[i], traces_u[i], prev_micro[i],
                     u_lag=lag_micro[i].u)
                for i, x in enumerate(self.host_points)]

    # -- initialization ---------------------------------------------------------

    def init_state(self, theta0, micro_theta0=None) -> TwoScaleState:
        """State at t = 0 with consistent traces and quasi-static deformation.

        micro_theta0 may give inclusion temperatures per hosting point; the
        Dirichlet trace rows are overwritten by the macro values.
        """
        theta = np.asarray(theta0(self.mesh.vertices), dtype=float)
        fields = self.effective_fields(0.0)
        ops = self.macro_operators(fields)
        u = self._solve_mech(self.mech_basis.reduce_matrix(ops["E"]), ops, theta, 0.0)

        traces_th, traces_u = self.traces_at_hosts(theta, u)
        micro = []
        for i in range(self.n_hosts):
            theta_field = None
            if micro_theta0 is not None:
                theta_field = np.asarray(
                    micro_theta0(self.host_points[i],
                                 self.micro_model.mesh.vertices), dtype=float)
            micro.append(self.micro_model.initial_state(
                0.0, self.host_points[i], traces_th[i], traces_u[i],
                theta_field=theta_field))
        state = TwoScaleState(t=0.0, theta=theta, u=u, micro=micro)
        self._record_content(state, ops)
        return state

    def _record_content(self, state, ops):
        q_load = self.content_load(state.micro)
        macro = float((ops["M_c"] @ state.theta).sum())
        micro = float(q_load.sum())
        state.macro_heat_content = macro
        state.micro_heat_content = micro
        state.heat_content = macro + micro

    # -- solves -----------------------------------------------------------------

    def _mech_rhs(self, ops, theta):
        # homogeneous Dirichlet: the offset vanishes, so R^T reduces the load
        return self.mech_basis.restriction.T @ (ops["G_alpha"] @ theta + ops["mech_load"])

    def _solve_mech(self, E_red, ops, theta, t):
        """The macro deformation for theta by CG on the step's reduced E."""
        try:
            sol, _ = solve_spd(E_red, self._mech_rhs(ops, theta), tol=self.settings.cg_tol,
                               max_iter=self.settings.cg_max_iter)
        except SolverError as exc:
            raise SolverError(f"two-scale solver: macro elasticity CG failed at "
                              f"t = {t:.6g}: {exc}", exc.residuals) from exc
        return self.mech_basis.restriction @ sol

    def _mech_residual(self, E_red, ops, theta, u):
        rhs = self._mech_rhs(ops, theta)
        r = E_red @ (self.mech_basis.restriction.T @ u) - rhs
        scale = np.linalg.norm(rhs)
        return float(np.linalg.norm(r) / (scale if scale > 0 else 1.0))

    # -- time stepping ------------------------------------------------------------

    def macro_step(self, state: TwoScaleState, dt) -> TwoScaleState:
        s = self.settings
        t_new = state.t + dt
        fields_new = self.effective_fields(t_new)
        fields_old = self.effective_fields(state.t)
        ops_new = self.macro_operators(fields_new)
        ops_old = self.macro_operators(fields_old)
        E_red = self.mech_basis.reduce_matrix(ops_new["E"])

        heat_lhs = (ops_new["M_c"] / dt + ops_new["A_K"]).tocsr()
        base_rhs = (ops_old["M_c"] @ state.theta) / dt + ops_new["heat_load"]
        q_old = self.content_load(state.micro)
        diss_old = ops_old["G_gamma"].T @ state.u

        theta_k = state.theta.copy()
        u_k = state.u.copy()
        micro_k = state.micro

        converged, iterations = False, 0
        while True:
            rhs = (base_rhs + (q_old - self.content_load(micro_k)) / dt
                   + (diss_old - ops_new["G_gamma"].T @ u_k) / dt)
            theta_next, heat_solver = solve_spd_or_direct(heat_lhs, rhs, s.cg_tol,
                                                          s.cg_max_iter)
            u_next = self._solve_mech(E_red, ops_new, theta_next, t_new)
            if converged:  # these were the closing solves against micro_k
                break
            if iterations >= s.fixed_point_max_iter:
                raise FixedPointError(
                    f"two-scale solver: staggered loop did not converge within "
                    f"{s.fixed_point_max_iter} sweeps at t = {t_new:.6g}"
                )
            iterations += 1
            micro_next = self.micro_sweep(t_new, dt, theta_next, u_next,
                                          state.micro, micro_k)
            d_theta = self._l2(theta_next - theta_k, ops_new["M_c"])
            d_u = np.linalg.norm(u_next - u_k) / max(1.0, np.linalg.norm(u_next))
            theta_k, u_k, micro_k = theta_next, u_next, micro_next
            converged = d_theta + d_u < s.fixed_point_tol

        traces_th, _ = self.traces_at_hosts(theta_next, u_next)
        used = np.array([m.theta[self.micro_model.boundary_scalar[0]]
                         for m in micro_k])
        new_state = TwoScaleState(
            t=t_new, theta=theta_next, u=u_next, micro=micro_k,
            fixed_point_iterations=iterations,
            mech_residual=self._mech_residual(E_red, ops_new, theta_next, u_next),
            trace_defect=float(np.max(np.abs(used - traces_th))),
            heat_solver=heat_solver,
        )
        self._record_content(new_state, ops_new)
        return new_state

    @functools.cached_property
    def unit_masses(self):
        """The unit scalar and vector mass matrices of the diagnostics norms."""
        return (assemble_operator(self.mesh, "mass", 1.0, space=self.space),
                vector_mass(self.mesh, 1.0, space=self.space))

    def _l2(self, vec, mass):
        return float(np.sqrt(max(vec @ (mass @ vec), 0.0)))

    def run(self, t_final, dt, theta0, micro_theta0=None, observer=None):
        """March from 0 to t_final; returns the per-step states."""
        state = self.init_state(theta0, micro_theta0=micro_theta0)
        states = [state]
        if observer is not None:
            observer(state)
        n_steps = max(0, math.ceil(t_final / dt - 1e-12))
        for k in range(n_steps):
            step = min(dt, t_final - state.t)
            state = self.macro_step(state, step)
            states.append(state)
            if observer is not None:
                observer(state)
        return states


def diagnostics_header(dim):
    return ["t", "fixed_point_iterations", "theta_l2", "u_l2",
            "macro_heat_content", "micro_heat_content", "heat_content",
            "mech_residual", "trace_defect", "heat_solver_direct"]


def diagnostics_row(solver: TwoScaleSolver, state: TwoScaleState):
    M, Mv = solver.unit_masses
    return [
        state.t,
        state.fixed_point_iterations,
        float(np.sqrt(max(state.theta @ (M @ state.theta), 0.0))),
        float(np.sqrt(max(state.u @ (Mv @ state.u), 0.0))),
        state.macro_heat_content,
        state.micro_heat_content,
        state.heat_content,
        state.mech_residual,
        state.trace_defect,
        1.0 if state.heat_solver == "direct" else 0.0,
    ]
