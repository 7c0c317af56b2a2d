"""Time integration of the homogenized two-scale thermoelastic system.

Macro scale: quasi-static elasticity and a heat balance with effective
coefficients on the unit square/cube.  Micro scale: every macro quadrature
point hosts a heat/elasticity problem on the reference inclusion, solved in
reference coordinates with pulled-back coefficients and constant Dirichlet
traces taken from the macro fields.  Coupling runs both ways: traces
downward, inclusion heat content upward (inside the time derivative of the
macro balance).

The micro state is four host-indexed arrays (inclusion temperatures,
deformations, heat contents and the heat loads they put on the next step);
:class:`MicroModel` works on blocks of the hosts that share a transformation
sample key, a grouping made once per time level
(:meth:`TwoScaleSolver.level`) and read by every use of the keys; its
initial states take the coarser blocks of one geometry key.

Time stepping is implicit Euler, and each step is solved exactly.  Within a
step the whole system is linear, and every inclusion problem is driven only
by its two traces tau = (theta_h, u_h), so its unknowns after the step are
an affine map ``w0 + W tau`` of them, and so is its heat content
(:meth:`MicroModel.responses`).  Eliminating the inclusions this way
(static condensation) leaves one macro heat-elasticity block, solved with
one sparse LU per step; one micro sweep with the exact traces then completes
every host's affine map, one row per :meth:`MicroModel.step`.  The accepted
state satisfies the discrete macro balance to round-off against the stored
inclusion heat content, which is what the conservation diagnostics check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .cell import CellContext
from .effective import EffectiveProvider
from .fem import (
    ConstraintSet,
    ElementScatter,
    Factor,
    P1Space,
    assemble_operator,
    assemble_scalar_load,
    assemble_vector_load,
    constraint_basis,
    scatter_load,
    vector_mass,
    weak_form,
)
from .kinematics import (  # noqa: F401  (BundleError: re-exported)
    BATCH_ELEMENTS,
    PHASE_B,
    BundleError,
    LevelCache,
    build_batched,
    key_fields,
    key_groups,
    sample_key_groups,
    zero_sources,
)


@dataclass
class SolverSettings:
    fixed_point_tol: float = 1e-8        # the resolved solver's staggered loop
    fixed_point_max_iter: int = 50
    latent_sign: float = 1.0
    micro_per_element: bool = False


@dataclass
class TwoScaleState:
    t: float
    theta: np.ndarray               # macro nodal temperature
    u: np.ndarray                   # macro nodal deformation (interleaved)
    micro_theta: np.ndarray         # (n_hosts, n_scalar) inclusion temperatures
    micro_u: np.ndarray             # (n_hosts, n_vector) inclusion deformations
    micro_content: np.ndarray       # (n_hosts,) inclusion heat contents
    # (n_hosts, n_interior) prev @ [theta; u] on the interior heat rows: all
    # that the next step reads of this level (MicroModel.heat_loads)
    micro_load: np.ndarray | None = None
    heat_content: float = 0.0
    macro_heat_content: float = 0.0
    micro_heat_content: float = 0.0
    fixed_point_iterations: int = 0  # micro sweeps of the step: 1 after a step
    mech_residual: float = 0.0


class FixedPointError(RuntimeError):
    pass


def time_levels(t_final, dt):
    """``k * dt`` for k < n = ceil(t_final / dt - 1e-12), then t_final; [0.0]
    for t_final = 0.  Consecutive levels lie within a factor of two (bar a
    t_final within 1e-12 above 2 dt), so each step ``t_new - t_old`` is exact
    (Sterbenz) and ``t_old + step`` lands on ``t_new``."""
    n = max(0, math.ceil(t_final / dt - 1e-12))
    return [k * dt for k in range(n)] + [float(t_final)] if n else [0.0]


# ---------------------------------------------------------------------------
# micro problems on the reference inclusion


class MicroModel:
    """Inclusion problems at the macro hosting points, as affine maps.

    Within one implicit-Euler step the micro heat and elasticity problems are
    one linear system whose matrices depend on the host only through the
    transformation sample key, so hosts with the same key share one bundle.
    On the stacked (theta, u) dofs, a bundle holds ``prev = [M_c, S]`` on
    the interior heat rows (the heat capacity mass and the dissipation load
    ``int (gamma : grad u) phi_i`` as a map of u, ``S = G_gamma^T``, the
    transposed coupling form of gamma), ``content``, the weights
    ``rho c int J phi_i`` (all rows), the unit source loads ``l_J`` and
    ``L_J``, and, for the step of length dt ending at its level, the
    response ``W`` of the unknowns of the coupled interior block

        K = [[H_II, (S/dt + A)[I, Iv]], [-G[Iv, I], E[Iv, Iv]]],
        H = M_c/dt + N + A_K  (A: the advective dissipation map),

    to unit traces (theta, then u; 1 + d columns) and ``c_tr``, the content
    after the step per unit trace.  The old level enters a step only through
    each host's heat load ``prev @ [theta; u]``, which the state carries
    (:meth:`heat_loads`), so the cache holds only these step blocks, keyed by
    sample key.  The maps at t = 0 see the host only through the deformed
    cell (F and J): :meth:`initial_states` builds them once per geometry key,
    outside the cache, with ``mech = [-G, E]`` on the interior mechanics
    rows, and factors each geometry's ``E[Iv, Iv]`` for its block solve.

    Bundles are built in batches (:func:`build_batched`): the coefficients
    of a batch of keys are pulled back together, each operator's element
    blocks come from the form table with a leading key axis
    (:func:`~thermohom.fem.weak_form`) and go into every restricted matrix
    above with one scatter each (:class:`~thermohom.fem.ElementScatter`,
    mapped once per model); then one sparse LU of ``K`` per key, ``factor``
    in the bundle until its step has solved with it.

    A host's unknowns after the step are ``w0 + W tau``: ``w0`` solves ``K``
    against the host's heat load and the sources with zero traces, and tau
    holds the host's traces.  :meth:`responses` gets ``w0`` with one checked
    block solve per sample key, a batch of keys at a time, and releases each
    factor once its hosts are solved, unless the key's geometry is the same
    at both levels of the step: a static cell factors ``K`` once per run.
    :meth:`step` completes one host's map with its key's bundle, without a
    solve.  A cached bundle with another dt, or without the factor a solve
    needs, is rebuilt.  Sources are the unit loads scaled by ``sources(t)``
    at the t of each call.  A bundle that cannot be built raises
    :class:`BundleError` naming t and x, a singular block or an inaccurate
    solve a :class:`~thermohom.fem.SolverError` naming them.
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
        ns, nv = self.space.n_scalar, self.space.n_vector
        self._unknowns = np.concatenate([self.interior_scalar, ns + self.interior_vector])
        self._boundary = np.concatenate([self.boundary_scalar, ns + self.boundary_vector])
        self._trace_of = np.concatenate([np.zeros(len(boundary), dtype=int),
                                         np.tile(np.arange(1, d + 1), len(boundary))])

        def position(dofs, values=None):
            """The position of each stacked dof in ``dofs`` (or its entry of
            ``values``), -1 for the others."""
            out = np.full(ns + nv, -1)
            out[dofs] = np.arange(len(dofs)) if values is None else values
            return out

        dofs = self.space.layout("coupled")[0]

        def scatter(rows, n_cols, cols=None):
            return ElementScatter.of(dofs, dofs, (len(rows), n_cols), position(rows), cols,
                                     csc=True)

        self._scatter = dict(
            prev=scatter(self.interior_scalar, ns + nv),
            mech=scatter(ns + self.interior_vector, ns + nv),
            K=scatter(self._unknowns, len(self._unknowns), position(self._unknowns)),
            trace=scatter(self._unknowns, 1 + d, position(self._boundary, self._trace_of)),
        )
        self.cache = LevelCache()

    def bundle(self, t, x, dt):
        """The bundle of the micro step of length dt ending at (t, x), its
        factor held until a step solves with it: the batch of one."""
        x = np.asarray(x, dtype=float)
        return self._bundles(t, x[None], [self.ctx.transformation.sample_key(t, x)], dt)[0]

    def level_bundles(self, t, xs, groups, dt):
        """The bundle of each group of ``groups`` (the sample-key groups of
        xs at t), fetched at the group's first point; the keys missing from
        the cache are built in one batched pass."""
        tr = self.ctx.transformation
        first = groups[0]
        return self._bundles(t, xs[first], [tr.sample_key(t, x) for x in xs[first]], dt)

    def _bundles(self, t, xs, keys, dt, need=None):
        dt_key = round(float(dt), 14)
        return self.cache.get_many(
            t, keys, lambda missing: self._build(t, xs[missing], dt),
            lambda b: b["dt"] == dt_key and (need is None or need in b))

    def _build(self, t, xs, dt):
        """The bundles of the macro points xs at t (dt None: the maps at t
        without a step), built in batches."""
        return build_batched(lambda t, chunk: self._maps(t, chunk, dt), t, xs,
                             len(self.space.cells), "the micro bundle")

    def _maps(self, t, xs, dt):
        """The bundles of the (k, d) macro points xs at t, built together."""
        ctx, space, d, k = self.ctx, self.space, self.dim, len(xs)
        n, ns = d + 1, space.n_scalar
        f = key_fields(space, ctx.transformation, ctx.material, PHASE_B, t, xs)
        c, v, gamma = f["heat_capacity"], f["velocity"], f["dissipation"]

        # element blocks on the stacked dofs: [[M_c, S], [-G, E]], S = G_gamma^T
        M = weak_form(space, "mass", c)
        S = weak_form(space, "coupling", gamma).transpose(0, 1, 4, 2, 3).reshape(
            k, -1, n, n * d)
        Gc = weak_form(space, "coupling", f["expansion"])
        E = weak_form(space, "elasticity", f["stiffness"])
        lower = np.concatenate([-Gc.reshape(k, -1, n * d, n),
                                E.reshape(k, -1, n * d, n * d)], axis=3)
        blocks = np.concatenate([np.concatenate([M, S], axis=3), lower], axis=2)

        l_J = scatter_load(space.cells, ns, weak_form(space, "scalar_load", f["jacobian"]))
        L_J = (l_J[:, :, None, None] * np.eye(d)).reshape(k, -1, d)[:, self.interior_vector]
        cap = ctx.material.density_b * ctx.material.heat_capacity_b
        I = self.interior_scalar
        prev = self._scatter["prev"].data(blocks)
        bundles = [dict(dt=None, prev=self._scatter["prev"].matrix(prev[i]),
                        content=cap * l_J[i], l_J=l_J[i, I], L_J=L_J[i]) for i in range(k)]
        if dt is None:
            mech = self._scatter["mech"].data(blocks)
            for i, b in enumerate(bundles):
                b["mech"] = self._scatter["mech"].matrix(mech[i])
            return bundles

        # the coupled block: H = M_c/dt + N + A_K and S/dt + A in the heat rows
        N_adv = weak_form(space, "advection", c[..., None] * v)
        A_K = weak_form(space, "scalar_diffusion", f["conductivity"])
        A = weak_form(space, "advective_dissipation", v, gamma)
        upper = np.concatenate([M / dt + N_adv + A_K, S / dt + A.reshape(S.shape)], axis=3)
        blocks = np.concatenate([upper, lower], axis=2)
        K, trace = (self._scatter[name].data(blocks) for name in ("K", "trace"))
        for i, b in enumerate(bundles):
            factor = Factor(self._scatter["K"].matrix(K[i]), f"two-scale solver: micro "
                            f"block at t = {t:.6g}, x = {xs[i].tolist()}")
            W = factor.solve(-self._scatter["trace"].matrix(trace[i]).toarray())
            content = b["content"]
            c_tr = content[I] @ W[:len(I)]
            c_tr[0] += content[self.boundary_scalar].sum()
            b.update(dt=round(float(dt), 14), factor=factor, W=W, c_tr=c_tr)
        return bundles

    def initial_states(self, t, xs, groups, traces_theta, traces_u, theta_fields=None):
        """Consistent micro state arrays (theta, u, content, load) of the
        hosts at xs, grouped by sample key at t (``groups``): the given
        temperatures (default: the trace) with the trace rows overwritten,
        and the quasi-static deformation, one block solve per geometry."""
        n, ns = len(xs), self.space.n_scalar
        theta = np.repeat(traces_theta[:, None], ns, axis=1) if theta_fields is None \
            else np.array(theta_fields, dtype=float)
        theta[:, self.boundary_scalar] = traces_theta[:, None]
        u = np.zeros((n, self.space.n_vector))
        u[:, self.boundary_vector] = np.tile(traces_u, len(self.boundary_nodes))
        content = np.empty(n)
        _, f_u_b, _, _ = self.sources(t)
        # the hosts of one geometry, over all of its sample keys, are one block
        first, of = groups
        tr = self.ctx.transformation
        geometry = key_groups([tr.geometry_key(t, xs[i]) for i in first])
        first, of = first[geometry[0]], geometry[1][of]
        maps = self._build(t, xs[first], None)
        for k, b in enumerate(maps):
            hosts = np.flatnonzero(of == k)
            lu = Factor(b["mech"][:, ns + self.interior_vector],
                        f"two-scale solver: micro elasticity at t = {t:.6g}, "
                        f"x = {xs[first[k]].tolist()}", spd=True)
            # u holds the traces and zero interior values here
            r = ((b["L_J"] @ np.asarray(f_u_b))[:, None]
                 - b["mech"] @ np.hstack([theta[hosts], u[hosts]]).T)
            u[np.ix_(hosts, self.interior_vector)] = lu.solve(r).T
            content[hosts] = theta[hosts] @ b["content"]
        return theta, u, content, self.heat_loads(maps, of, theta, u)

    def heat_loads(self, bundles, of, theta, u):
        """Each host's heat load ``prev @ [theta; u]`` on the interior heat
        rows, the old level's part of the next step's right-hand side; host
        h takes the map of ``bundles[of[h]]``, one product per bundle."""
        load = np.empty((len(of), len(self.interior_scalar)))
        for k, b in enumerate(bundles):
            hosts = np.flatnonzero(of == k)
            load[hosts] = (b["prev"] @ np.hstack([theta[hosts], u[hosts]]).T).T
        return load

    def responses(self, t_new, dt, xs, groups, load):
        """The step of every host with zero traces, and its heat content as an
        affine function of the traces: ``(w0, c0, c_tr)``, where row h of
        ``w0`` holds the unknowns of ``K`` and host h's content after the
        step is ``c0[h] + c_tr[h] . (theta_h, u_h)``.  The hosts of each
        sample key at t_new (``groups``) are solved as one block against
        their heat ``load`` (:meth:`heat_loads`), a batch of keys at a time;
        a key's factor is then released unless its geometry is the same at
        both levels."""
        n, I = len(xs), self.interior_scalar
        w0 = np.empty((n, len(self._unknowns)))
        c0 = np.empty(n)
        _, f_u_b, _, f_th_b = self.sources(t_new)
        tr = self.ctx.transformation
        first, of = groups
        keys = [tr.sample_key(t_new, x) for x in xs[first]]
        size = max(1, BATCH_ELEMENTS // len(self.space.cells))     # as build_batched
        bundles = []
        for start in range(0, len(keys), size):
            batch = self._bundles(t_new, xs[first[start:start + size]],
                                  keys[start:start + size], dt, "factor")
            for k, b in enumerate(batch, start):
                hosts = np.flatnonzero(of == k)
                heat = load[hosts].T / dt + f_th_b * b["l_J"][:, None]
                mech = np.repeat((b["L_J"] @ np.asarray(f_u_b))[:, None], len(hosts), axis=1)
                w0[hosts] = b["factor"].solve(np.vstack([heat, mech])).T
                c0[hosts] = w0[hosts, :len(I)] @ b["content"][I]
                x = xs[first[k]]
                if tr.geometry_key(t_new - dt, x) != tr.geometry_key(t_new, x):
                    del b["factor"]
            bundles += batch
        return w0, c0, np.array([b["c_tr"] for b in bundles])[of]

    def step(self, b_new, w0_h, trace_theta, trace_u):
        """One implicit Euler step of a host's coupled inclusion heat and
        quasi-static elasticity problem, completed from its zero-trace step
        ``w0_h`` (a row of :meth:`responses`) with the bundle ``b_new`` of its
        key at the step's end: the host's (theta, u, content)."""
        traces = np.concatenate([[trace_theta], trace_u])
        w = np.empty(len(self._unknowns) + len(self._boundary))
        w[self._unknowns] = w0_h + b_new["W"] @ traces
        w[self._boundary] = traces[self._trace_of]
        theta = w[:self.space.n_scalar]
        return theta, w[self.space.n_scalar:], float(b_new["content"] @ theta)


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

        # P: macro nodal values -> the traces at the hosts (the quadrature
        # point value, or the element average); Q: host contents -> content
        # loads int c phi_i
        host = np.repeat(self.host_of_qp, d + 1)
        vertex = np.repeat(space.cells, nq, axis=0).ravel()
        N = np.tile(space.shape_values, (e, 1))
        avg = (N / np.bincount(self.host_of_qp)[self.host_of_qp, None]).ravel()
        self.trace_map = sp.csr_matrix((avg, (host, vertex)),
                                       shape=(self.n_hosts, space.n_scalar))
        w = (space.volumes[:, None] * space.qweights).reshape(-1, 1)
        self.content_map = sp.csr_matrix(((w * N).ravel(), (vertex, host)),
                                         shape=(space.n_scalar, self.n_hosts))

        bdofs = np.flatnonzero(np.repeat(macro_mesh.boundary_vertex_mask(), d))
        self.mech_basis = constraint_basis(space.n_vector, ConstraintSet.dirichlet_only(bdofs))
        self._levels = LevelCache()

    # -- effective coefficient fields -----------------------------------------

    def effective_fields(self, t, groups):
        """Per-quadrature-point arrays of every effective quantity at time t,
        evaluated at the first point of each sample key of ``groups`` (the
        quadrature points' :func:`sample_key_groups` at t)."""
        e, nq = len(self.space.cells), len(self.space.qweights)
        pts = self.space.qpoints.reshape(-1, self.dim)
        first, of = groups
        effs = self.provider.at_points(t, pts[first])
        out = {name: np.array([getattr(eff, name) for eff in effs])[of]
               for name in _EFFECTIVE_FIELDS}
        out["latent"] = self.settings.latent_sign * np.array(
            [eff.latent_source for eff in effs])[of]
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

    def level(self, t):
        """The record of time level t, built once: the macro operators and the
        key groupings of the quadrature points and of the hosts."""
        return self._levels.get(t, round(float(t), 12), lambda: self._build_level(t))

    def _build_level(self, t):
        tr = self.provider.ctx.transformation
        qp = sample_key_groups(tr, t, self.space.qpoints.reshape(-1, self.dim))
        hosts = (sample_key_groups(tr, t, self.host_points)
                 if self.settings.micro_per_element else qp)
        return dict(self.macro_operators(self.effective_fields(t, qp)),
                    qp_groups=qp, host_groups=hosts)

    # -- micro coupling --------------------------------------------------------

    def traces_at_hosts(self, theta, u):
        """Macro temperature/deformation evaluated at the hosting points."""
        return self.trace_map @ theta, self.trace_map @ u.reshape(-1, self.dim)

    def micro_sweep(self, t_new, dt, groups, theta, u, w0):
        """Every host advanced with its traces of (theta, u), one row each,
        from its zero-trace step ``w0`` (:meth:`MicroModel.responses`): the
        micro state arrays (theta, u, content, load) at t_new, whose hosts
        are grouped by sample key there (``groups``)."""
        traces_th, traces_u = self.traces_at_hosts(theta, u)
        model = self.micro_model
        b_new = model.level_bundles(t_new, self.host_points, groups, dt)
        of = groups[1]
        micro_theta = np.empty((self.n_hosts, model.space.n_scalar))
        micro_u = np.empty((self.n_hosts, model.space.n_vector))
        content = np.empty(self.n_hosts)
        for i in range(self.n_hosts):
            micro_theta[i], micro_u[i], content[i] = model.step(
                b_new[of[i]], w0[i], traces_th[i], traces_u[i])
        return (micro_theta, micro_u, content,
                model.heat_loads(b_new, of, micro_theta, micro_u))

    # -- initialization ---------------------------------------------------------

    def init_state(self, theta0, micro_theta0=None) -> TwoScaleState:
        """State at t = 0 with consistent traces and quasi-static deformation.

        micro_theta0 may give inclusion temperatures per hosting point; the
        Dirichlet trace rows are overwritten by the macro values.
        """
        theta = np.asarray(theta0(self.mesh.vertices), dtype=float)
        ops = self.level(0.0)
        u = self.mech_basis.factor(ops["E"], "two-scale solver: macro elasticity at t = 0")(
            ops["G_alpha"] @ theta + ops["mech_load"])

        traces_th, traces_u = self.traces_at_hosts(theta, u)
        fields = None if micro_theta0 is None else [
            micro_theta0(x, self.micro_model.mesh.vertices) for x in self.host_points]
        state = TwoScaleState(0.0, theta, u, *self.micro_model.initial_states(
            0.0, self.host_points, ops["host_groups"], traces_th, traces_u, fields))
        self._record_content(state, ops)
        return state

    def _record_content(self, state, ops):
        state.macro_heat_content = float((ops["M_c"] @ state.theta).sum())
        state.micro_heat_content = float((self.content_map @ state.micro_content).sum())
        state.heat_content = state.macro_heat_content + state.micro_heat_content

    def _mech_rhs(self, ops, theta):
        # homogeneous Dirichlet: the offset vanishes, so R^T reduces the load
        return self.mech_basis.restriction.T @ (ops["G_alpha"] @ theta + ops["mech_load"])

    def _mech_residual(self, E_red, ops, theta, u):
        """The reduced elasticity residual relative to the size of the terms
        it balances: the thermal-stress summands ``|G_alpha| |theta|`` (their
        sum cancels once theta is uniform) and the load."""
        R = self.mech_basis.restriction
        r = E_red @ (R.T @ u) - self._mech_rhs(ops, theta)
        scale = (np.linalg.norm(R.T @ (abs(ops["G_alpha"]) @ np.abs(theta)))
                 + np.linalg.norm(R.T @ ops["mech_load"]))
        return float(np.linalg.norm(r) / (scale if scale > 0 else 1.0))

    # -- time stepping ------------------------------------------------------------

    def macro_step(self, state: TwoScaleState, dt) -> TwoScaleState:
        """One exact implicit-Euler step.  The hosts' contents after the step,
        ``c0 + c_theta theta_h + c_u . u_h``, enter the macro heat balance
        through the trace map P and the content map Q, leaving

            [[M_c/dt + A_K + C_theta / dt, (G_gamma^T + C_u) R / dt],
             [-R^T G_alpha,                R^T E R]],
            C_theta = Q diag(c_theta) P,  C_u[:, c::d] = Q diag(c_u[:, c]) P,

        in (theta, reduced u) for one sparse LU; one micro sweep then
        advances every host with the exact traces."""
        t_new = state.t + dt
        ops_new, ops_old = self.level(t_new), self.level(state.t)
        groups = ops_new["host_groups"]
        R = self.mech_basis.restriction
        E_red = self.mech_basis.reduce_matrix(ops_new["E"])

        w0, c0, c_tr = self.micro_model.responses(t_new, dt, self.host_points, groups,
                                                  state.micro_load)
        Q = self.content_map
        C_theta, *C_u = (Q @ sp.diags(c) @ self.trace_map for c in c_tr.T)
        C_u = sum(sp.kron(C, np.eye(self.dim)[[c]]) for c, C in enumerate(C_u))

        lhs = sp.bmat([
            [ops_new["M_c"] / dt + ops_new["A_K"] + C_theta / dt,
             (ops_new["G_gamma"].T + C_u) @ R / dt],
            [-(R.T @ ops_new["G_alpha"]), E_red]], format="csc")
        heat_rhs = ((ops_old["M_c"] @ state.theta) / dt + ops_new["heat_load"]
                    + (Q @ (state.micro_content - c0)
                       + ops_old["G_gamma"].T @ state.u) / dt)
        z = Factor(lhs, f"two-scale solver: macro step at t = {t_new:.6g}").solve(
            np.concatenate([heat_rhs, R.T @ ops_new["mech_load"]]))
        ns = self.space.n_scalar
        theta, u = z[:ns], R @ z[ns:]
        new_state = TwoScaleState(
            t_new, theta, u, *self.micro_sweep(t_new, dt, groups, theta, u, w0),
            fixed_point_iterations=1,
            mech_residual=self._mech_residual(E_red, ops_new, theta, u))
        self._record_content(new_state, ops_new)
        return new_state

    @functools.cached_property
    def unit_masses(self):
        """The unit scalar and vector mass matrices of the diagnostics norms."""
        return (assemble_operator(self.mesh, "mass", 1.0, space=self.space),
                vector_mass(self.mesh, 1.0, space=self.space))

    def run(self, t_final, dt, theta0, micro_theta0=None, observer=None):
        """March over the :func:`time_levels`; returns the state at every level."""
        state = self.init_state(theta0, micro_theta0=micro_theta0)
        states = [state]
        if observer is not None:
            observer(state)
        for t_new in time_levels(t_final, dt)[1:]:
            state = self.macro_step(state, t_new - state.t)
            states.append(state)
            if observer is not None:
                observer(state)
        return states


def diagnostics_header(dim):
    return ["t", "fixed_point_iterations", "theta_l2", "u_l2",
            "macro_heat_content", "micro_heat_content", "heat_content",
            "mech_residual"]


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
    ]
