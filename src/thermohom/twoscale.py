"""Time integration of the homogenized two-scale thermoelastic system.

Macro scale: quasi-static elasticity and a heat balance with effective
coefficients on the unit square/cube.  Micro scale: every macro quadrature
point hosts a heat/elasticity problem on the reference inclusion, solved in
reference coordinates with pulled-back coefficients and constant Dirichlet
traces taken from the macro fields.  Coupling runs both ways: traces
downward, inclusion heat content upward (inside the time derivative of the
macro balance).

Time stepping is implicit Euler, and each step is solved exactly.  Within a
step the whole system is linear, and every inclusion problem is driven only
by its two traces, so its heat content after the step is an affine function
of them (:meth:`MicroModel.response`).  Eliminating the inclusions this way
(static condensation) leaves one macro heat-elasticity block, solved with
one sparse LU per step; one micro sweep with the exact traces then advances
every host.  The accepted state satisfies the discrete macro balance to
round-off against the stored inclusion heat content, which is what the
conservation diagnostics check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cell import CellContext
from .effective import EffectiveProvider
from .fem import (
    ConstraintSet,
    P1Space,
    assemble_operator,
    assemble_scalar_load,
    assemble_vector_load,
    constraint_basis,
    dissipation_maps,
    quadrature_load_map,
    vector_mass,
)
from .kinematics import PHASE_B, LevelCache, coefficient_fields, zero_sources


@dataclass
class SolverSettings:
    fixed_point_tol: float = 1e-8        # the resolved solver's staggered loop
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
    fixed_point_iterations: int = 0  # micro sweeps of the step: 1 after a step
    mech_residual: float = 0.0
    trace_defect: float = 0.0


class FixedPointError(RuntimeError):
    pass


class BundleError(RuntimeError):
    """A solver could not build the operators of some time level."""


# ---------------------------------------------------------------------------
# micro problems on the reference inclusion


class MicroModel:
    """Inclusion problems at the macro hosting points, as affine maps.

    Within one implicit-Euler step the micro heat and elasticity problems are
    one linear system whose matrices depend on the host only through the
    transformation sample key, so hosts with the same key share one bundle.
    A bundle holds, restricted to interior rows: ``M_c``; ``S``, the
    dissipation load ``int (gamma : grad u) phi_i`` as a map of u;
    ``content``, the weights ``rho c int J phi_i`` (all rows); the unit
    source loads ``l_J`` and ``L_J``; the elasticity ``E`` and the
    thermal-stress coupling ``G``.  :meth:`initial_state` adds the LU of
    ``E[Iv, Iv]`` and its trace columns ``mech_bd`` on first use.  With the dt
    of the step ending at its level a bundle also holds the LU of the
    coupled interior block

        K = [[H_II, (S/dt + A)[I, Iv]], [-G[Iv, I], E[Iv, Iv]]],
        H = M_c/dt + N + A_K  (A: the advective dissipation map),

    the 1 + d columns ``trace`` carrying the traces (theta, then u) into its
    right-hand side, ``y = K^-T [content_I; 0]`` and ``c_tr``: a host's
    content after the step is ``y . r_prev + c_tr . (theta_h, u_h)``.

    ``step`` is then one solve of ``K``.  Sources are the unit loads scaled
    by ``sources(t)`` at the t of each call, so one bundle serves every t of
    a static geometry.  The cache keeps the bundles of the current step
    pair.  A bundle that cannot be built raises :class:`BundleError` naming
    t and x.
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
        # among the stacked (theta, u) dofs: the unknowns of K, the boundary
        # dofs and the trace (theta_h, then u_h) each of them takes
        ns = self.space.n_scalar
        self._unknowns = np.concatenate([self.interior_scalar, ns + self.interior_vector])
        self._boundary = np.concatenate([self.boundary_scalar, ns + self.boundary_vector])
        self._trace_of = np.concatenate([np.zeros(len(boundary), dtype=int),
                                         np.tile(np.arange(1, d + 1), len(boundary))])
        self.cache = LevelCache()

    def bundle(self, t, x, dt=None):
        """The maps of the micro step at (t, x); with dt, also the coupled
        factorization of an implicit-Euler step of length dt ending at t.  A
        cached bundle without that factorization is rebuilt."""
        key = self.ctx.transformation.sample_key(t, x)
        valid = None if dt is None else (lambda b: b["dt"] == round(float(dt), 14))
        return self.cache.get(t, key, lambda: self._build_bundle(t, x, dt), valid)

    def _build_bundle(self, t, x, dt):
        try:
            return self._maps(t, x, dt)
        except (ValueError, RuntimeError) as exc:  # inadmissible map, singular LU
            raise BundleError(f"two-scale solver: cannot build the micro bundle at t = "
                              f"{t:.6g}, x = {np.asarray(x).tolist()}: {exc}") from exc

    def _maps(self, t, x, dt):
        ctx = self.ctx
        f = coefficient_fields(self.space, ctx.transformation, ctx.material, PHASE_B, t, x)
        mesh, space, d = self.mesh, self.space, self.dim
        I, Iv = self.interior_scalar, self.interior_vector

        S, A = dissipation_maps(space, f["dissipation"], f["velocity"])
        S, A = S[I], A[I]
        l_J = quadrature_load_map(space) @ f["jacobian"].ravel()
        cap = self.ctx.material.density_b * self.ctx.material.heat_capacity_b
        M_c = assemble_operator(mesh, "mass", f["heat_capacity"], space=space)[I]
        b = dict(dt=None, M_c=M_c, S=S, content=cap * l_J, l_J=l_J[I],
                 L_J=np.kron(l_J[:, None], np.eye(d))[Iv])
        E = b["E"] = assemble_operator(mesh, "elasticity", f["stiffness"], space=space)[Iv]
        G = b["G"] = assemble_operator(mesh, "coupling", f["expansion"], space=space)[Iv]
        if dt is None:
            return b

        flux = f["heat_capacity"][:, :, None] * f["velocity"]
        H = (M_c / dt
             + assemble_operator(mesh, "advection", flux, space=space)[I]
             + assemble_operator(mesh, "scalar_diffusion", f["conductivity"], space=space)[I])
        # the rows of K over every stacked (theta, u) dof
        rows = sp.bmat([[H, S / dt + A], [-G, E]], format="csc")
        lu = spla.splu(rows[:, self._unknowns], permc_spec="MMD_AT_PLUS_A")
        trace = -(rows[:, self._boundary] @ np.eye(1 + d)[self._trace_of])
        content = b["content"]
        y = lu.solve(np.concatenate([content[I], np.zeros(len(Iv))]), trans="T")
        c_tr = y @ trace
        c_tr[0] += content[self.boundary_scalar].sum()
        b.update(dt=round(float(dt), 14), lu=lu, trace=trace, y=y, c_tr=c_tr)
        return b

    def _micro_state(self, b, z, trace_theta, trace_u):
        """The state with the unknowns ``z`` of K and the given traces."""
        w = np.empty(len(self._unknowns) + len(self._boundary))
        w[self._unknowns] = z
        w[self._boundary] = np.concatenate([[trace_theta], trace_u])[self._trace_of]
        theta, u = w[:self.space.n_scalar], w[self.space.n_scalar:]
        return MicroState(theta=theta, u=u, heat_content=float(b["content"] @ theta))

    def initial_state(self, t, x, trace_theta, trace_u, theta_field=None) -> MicroState:
        """Consistent micro state: given temperature, quasi-static deformation."""
        b = self.bundle(t, x)
        if "mech_lu" not in b:      # factored on first use: a step solves with K
            E, n_bd = b["E"], len(self.boundary_nodes)
            b.update(mech_lu=spla.splu(E[:, self.interior_vector].tocsc()),
                     mech_bd=E[:, self.boundary_vector] @ np.tile(np.eye(self.dim), (n_bd, 1)))
        theta = np.full(self.space.n_scalar, trace_theta) if theta_field is None \
            else theta_field.copy()
        theta[self.boundary_scalar] = trace_theta
        _, f_u_b, _, _ = self.sources(t)
        r = (b["G"] @ theta + b["L_J"] @ np.asarray(f_u_b) - b["mech_bd"] @ trace_u)
        return self._micro_state(
            b, np.concatenate([theta[self.interior_scalar], b["mech_lu"].solve(r)]),
            trace_theta, trace_u)

    def _step_rhs(self, t_new, dt, x, prev: MicroState):
        """The step's bundle and the right-hand side of ``K`` for zero traces."""
        b_new = self.bundle(t_new, x, dt)
        b_old = self.bundle(t_new - dt, x)
        _, f_u_b, _, f_th_b = self.sources(t_new)
        heat = (b_old["M_c"] @ prev.theta + b_old["S"] @ prev.u) / dt + f_th_b * b_new["l_J"]
        return b_new, np.concatenate([heat, b_new["L_J"] @ np.asarray(f_u_b)])

    def response(self, t_new, dt, x, prev: MicroState):
        """The host's heat content after the step as an affine function of
        its traces: ``(c0, c_tr)`` with content ``c0 + c_tr . (theta_h, u_h)``."""
        b, r = self._step_rhs(t_new, dt, x, prev)
        return float(b["y"] @ r), b["c_tr"]

    def step(self, t_new, dt, x, trace_theta, trace_u, prev: MicroState) -> MicroState:
        """One implicit Euler step of the coupled inclusion heat and
        quasi-static elasticity problem."""
        b, r = self._step_rhs(t_new, dt, x, prev)
        z = b["lu"].solve(r + b["trace"] @ np.concatenate([[trace_theta], trace_u]))
        return self._micro_state(b, z, trace_theta, trace_u)


# ---------------------------------------------------------------------------
# macro solver


_EFFECTIVE_FIELDS = ("conductivity", "heat_capacity", "stiffness", "expansion",
                     "dissipation", "curvature_force", "source_u", "source_theta")


class TwoScaleSolver:
    def __init__(self, macro_mesh, provider: EffectiveProvider,
                 settings: SolverSettings | None = None):
        self.mesh = macro_mesh
        self.provider = provider
        self.settings = settings if settings is not None else SolverSettings()
        self.space = P1Space(macro_mesh)
        self.dim = macro_mesh.dim
        self.micro_model = MicroModel(provider.ctx, sources=provider.sources)

        space, d = self.space, self.dim
        e, nq = len(space.cells), len(space.qweights)
        if self.settings.micro_per_element:
            self.host_points = space.qpoints.mean(axis=1)      # element centroids
            self.host_of_qp = np.repeat(np.arange(e), nq)
        else:
            self.host_points = space.qpoints.reshape(-1, d)
            self.host_of_qp = np.arange(e * nq)
        self.n_hosts = len(self.host_points)

        # P: macro temperature -> the traces at the hosts (the quadrature point
        # value, or the element average), P_v its vector form; Q: host
        # contents -> content loads int c phi_i
        host = np.repeat(self.host_of_qp, d + 1)
        vertex = np.repeat(space.cells, nq, axis=0).ravel()
        N = np.tile(space.shape_values, (e, 1))
        avg = (N / np.bincount(self.host_of_qp)[self.host_of_qp, None]).ravel()
        self.trace_map = sp.csr_matrix((avg, (host, vertex)),
                                       shape=(self.n_hosts, space.n_scalar))
        c = np.arange(d)
        self.vector_trace_map = sp.csr_matrix(
            (np.repeat(avg, d), ((host[:, None] * d + c).ravel(), (vertex[:, None] * d + c).ravel())),
            shape=(self.n_hosts * d, space.n_vector))
        w = (space.volumes[:, None] * space.qweights).reshape(-1, 1)
        self.content_map = sp.csr_matrix(((w * N).ravel(), (vertex, host)),
                                         shape=(space.n_scalar, self.n_hosts))

        bdofs = np.flatnonzero(np.repeat(macro_mesh.boundary_vertex_mask(), d))
        self.mech_basis = constraint_basis(space.n_vector, ConstraintSet.dirichlet_only(bdofs))

    # -- effective coefficient fields -----------------------------------------

    def effective_fields(self, t):
        """Per-quadrature-point arrays of every effective quantity at time t,
        evaluated once per sample key."""
        e, nq = len(self.space.cells), len(self.space.qweights)
        pts = self.space.qpoints.reshape(-1, self.dim)
        keys = {}
        key_of = np.array([keys.setdefault(self.provider.ctx.transformation.sample_key(t, p),
                                           len(keys)) for p in pts])
        effs = [self.provider.at(t, pts[i]) for i in np.unique(key_of, return_index=True)[1]]
        out = {name: np.array([getattr(eff, name) for eff in effs])[key_of]
               for name in _EFFECTIVE_FIELDS}
        out["latent"] = self.settings.latent_sign * np.array(
            [eff.latent_source for eff in effs])[key_of]
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

    def traces_at_hosts(self, theta, u):
        """Macro temperature/deformation evaluated at the hosting points."""
        return self.trace_map @ theta, self.trace_map @ u.reshape(-1, self.dim)

    def micro_sweep(self, t_new, dt, theta, u, prev_micro):
        traces_th, traces_u = self.traces_at_hosts(theta, u)
        step = self.micro_model.step
        return [step(t_new, dt, x, traces_th[i], traces_u[i], prev_micro[i])
                for i, x in enumerate(self.host_points)]

    # -- initialization ---------------------------------------------------------

    def init_state(self, theta0, micro_theta0=None) -> TwoScaleState:
        """State at t = 0 with consistent traces and quasi-static deformation.

        micro_theta0 may give inclusion temperatures per hosting point; the
        Dirichlet trace rows are overwritten by the macro values.
        """
        theta = np.asarray(theta0(self.mesh.vertices), dtype=float)
        ops = self.macro_operators(self.effective_fields(0.0))
        E_red = self.mech_basis.reduce_matrix(ops["E"]).tocsc()
        u = self.mech_basis.restriction @ spla.splu(
            E_red, permc_spec="MMD_AT_PLUS_A").solve(self._mech_rhs(ops, theta))

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
        macro = float((ops["M_c"] @ state.theta).sum())
        micro = float((self.content_map @ [m.heat_content for m in state.micro]).sum())
        state.macro_heat_content = macro
        state.micro_heat_content = micro
        state.heat_content = macro + micro

    def _mech_rhs(self, ops, theta):
        # homogeneous Dirichlet: the offset vanishes, so R^T reduces the load
        return self.mech_basis.restriction.T @ (ops["G_alpha"] @ theta + ops["mech_load"])

    def _mech_residual(self, E_red, ops, theta, u):
        rhs = self._mech_rhs(ops, theta)
        r = E_red @ (self.mech_basis.restriction.T @ u) - rhs
        scale = np.linalg.norm(rhs)
        return float(np.linalg.norm(r) / (scale if scale > 0 else 1.0))

    # -- time stepping ------------------------------------------------------------

    def macro_step(self, state: TwoScaleState, dt) -> TwoScaleState:
        """One exact implicit-Euler step.  The hosts' contents after the step,
        ``c0 + c_theta theta_h + c_u . u_h``, enter the macro heat balance
        through the trace maps P, P_v and the content map Q, leaving

            [[M_c/dt + A_K + Q diag(c_theta) P / dt, (G_gamma^T + Q C_u P_v) R / dt],
             [-R^T G_alpha,                           R^T E R]]

        in (theta, reduced u) for one sparse LU; one micro sweep then
        advances every host with the exact traces."""
        t_new = state.t + dt
        ops_new = self.macro_operators(self.effective_fields(t_new))
        ops_old = self.macro_operators(self.effective_fields(state.t))
        R = self.mech_basis.restriction
        E_red = self.mech_basis.reduce_matrix(ops_new["E"])

        response = self.micro_model.response
        c0 = np.empty(self.n_hosts)
        c_tr = np.empty((self.n_hosts, 1 + self.dim))
        for i, x in enumerate(self.host_points):
            c0[i], c_tr[i] = response(t_new, dt, x, state.micro[i])
        Q = self.content_map
        C_theta = Q @ sp.diags(c_tr[:, 0]) @ self.trace_map
        n, d = self.n_hosts, self.dim
        C_u = Q @ sp.csr_matrix((c_tr[:, 1:].ravel(), np.arange(n * d),
                                 np.arange(0, n * d + 1, d)), shape=(n, n * d)) \
            @ self.vector_trace_map

        lhs = sp.bmat([
            [ops_new["M_c"] / dt + ops_new["A_K"] + C_theta / dt,
             (ops_new["G_gamma"].T + C_u) @ R / dt],
            [-(R.T @ ops_new["G_alpha"]), E_red]], format="csc")
        heat_rhs = ((ops_old["M_c"] @ state.theta) / dt + ops_new["heat_load"]
                    + (Q @ (np.array([m.heat_content for m in state.micro]) - c0)
                       + ops_old["G_gamma"].T @ state.u) / dt)
        z = spla.splu(lhs, permc_spec="MMD_AT_PLUS_A").solve(
            np.concatenate([heat_rhs, R.T @ ops_new["mech_load"]]))
        ns = self.space.n_scalar
        theta, u = z[:ns], R @ z[ns:]
        micro = self.micro_sweep(t_new, dt, theta, u, state.micro)

        traces_th, _ = self.traces_at_hosts(theta, u)
        used = np.array([m.theta[self.micro_model.boundary_scalar[0]] for m in micro])
        new_state = TwoScaleState(
            t=t_new, theta=theta, u=u, micro=micro, fixed_point_iterations=1,
            mech_residual=self._mech_residual(E_red, ops_new, theta, u),
            trace_defect=float(np.max(np.abs(used - traces_th))),
        )
        self._record_content(new_state, ops_new)
        return new_state

    @functools.cached_property
    def unit_masses(self):
        """The unit scalar and vector mass matrices of the diagnostics norms."""
        return (assemble_operator(self.mesh, "mass", 1.0, space=self.space),
                vector_mass(self.mesh, 1.0, space=self.space))

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
            "mech_residual", "trace_defect"]


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
    ]
