"""Homogenized coefficients assembled from cell correctors and kinematics.

Every quantity is a plain (t, x)-sample.  The cell problems see (t, x) only
through the deformed cell (F and J), so the provider caches the correctors
and every volume-integral quantity by the transformation's geometry key; the
interface fields, which read the cell velocity, are evaluated for each
request.  Macro sweeps over many quadrature points thus reuse one cell solve
whenever the deformation does not vary in x, as at t = 0, where every map is
the identity.  A request is built in batches
(:meth:`EffectiveProvider.at_points`): the first point of each of its sample
keys goes through one batched pull-back, corrector build and effective
assembly with a leading key axis; a single :meth:`EffectiveProvider.at` is
the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cell import CellContext, solve_correctors_batch, strain_pads
from .fem import key_einsum
from .kinematics import (
    LevelCache,
    build_batched,
    key_interface,
    mandel_matrix,
    sample_key_groups,
    sym_index_pairs,
    zero_sources,
)

_PROBE_SEED = 20240517


def probe_vectors(dim, n_random=20, seed=_PROBE_SEED):
    """Canonical basis plus a fixed set of pseudo-random unit probes."""
    rng = np.random.default_rng(seed)
    probes = [np.eye(dim)[i] for i in range(dim)]
    while len(probes) < dim + n_random:
        q = rng.standard_normal(dim)
        probes.append(q / np.linalg.norm(q))
    return np.array(probes)


@dataclass
class EffectiveCoefficients:
    """All homogenized tensors, scalars, and sources at a single (t, x)."""

    t: float
    x: np.ndarray
    stiffness: np.ndarray        # rank 4
    expansion: np.ndarray        # d x d
    conductivity: np.ndarray     # d x d
    heat_capacity: float
    dissipation: np.ndarray      # d x d
    curvature_force: np.ndarray  # d vector
    latent_source: float         # includes the latent-heat factor when enabled
    interface_speed: float       # raw surface integral of the normal velocity
    source_u: np.ndarray
    source_theta: float
    matrix_measure: float        # deformed measure of the matrix part
    inclusion_measure: float
    voigt_bound: np.ndarray      # d x d upper-bound matrix for the conductivity

    def validate(self, tol=1e-10, probes=None):
        """Raise ValueError naming the first violated structural invariant
        and the sample (t, x)."""
        def check(ok, message):
            if not ok:
                raise ValueError(f"effective coefficients at t = {self.t:.6g}, "
                                 f"x = {np.asarray(self.x).tolist()}: {message}")

        C, K = self.stiffness, self.conductivity
        defect = max(np.max(np.abs(C - np.einsum(p, C)))
                     for p in ("ijkl->jikl", "ijkl->ijlk", "ijkl->klij"))
        check(defect < tol, f"stiffness symmetry defect {defect:.2e}")
        eig = np.linalg.eigvalsh(mandel_matrix(C)).min()
        check(eig > 0.0, f"stiffness not positive definite ({eig:.2e})")
        check(np.max(np.abs(K - K.T)) < tol, "conductivity not symmetric")
        check(np.linalg.eigvalsh(0.5 * (K + K.T)).min() > 0.0,
              "conductivity not positive definite")
        for q in probe_vectors(len(K)) if probes is None else probes:
            lhs, rhs = q @ K @ q, q @ self.voigt_bound @ q
            check(lhs <= rhs + tol, f"Voigt bound violated: {lhs:.12g} > {rhs:.12g}")
        check(self.heat_capacity > 0.0, "heat capacity not positive")


def _vector_gradients(space, fields):
    """Per-element gradients (..., e, d, d) of P1 vector fields (..., n_vector)."""
    nodal = fields.reshape(fields.shape[:-1] + (-1, space.dim))[..., space.cells, :]
    return np.einsum("...eia,eib->...eab", nodal, space.gradients)


def compute_effective(ctx: CellContext, correctors, t, xs, fields=None):
    """Every volume-integral effective quantity at the (k, d) macro points
    xs, from their :class:`Correctors` (one per point) and ``fields``
    (:meth:`CellContext.matrix_fields` of xs): a dict of arrays with a
    leading key axis.  These depend on F and J alone.  Neither the interface
    fields (:meth:`EffectiveProvider._coefficients`) nor the sources, which
    depend on t alone, are included."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    fields = fields if fields is not None else ctx.matrix_fields(t, xs)
    space, d = ctx.space_a, ctx.dim
    mat, vols = ctx.material, space.volumes

    def average(name):
        """Quadrature average per element, (k, e, ...)."""
        return np.einsum("keq...,q->ke...", fields[name], space.qweights)

    pairs = sym_index_pairs(d)
    pair_of = np.empty((d, d), dtype=int)
    for v, (j, jj) in enumerate(pairs):
        pair_of[j, jj] = pair_of[jj, j] = v
    mechanical = np.array([[c.mechanical[jk] for jk in pairs] for c in correctors])
    g = _vector_gradients(space, mechanical)                       # (k, v, e, d, d)
    strains = 0.5 * (g + np.swapaxes(g, -1, -2)) + np.array(
        list(strain_pads(d).values()))[:, None]
    Cbar = average("stiffness")
    stress = key_einsum("keabcd,kvecd->kveab", Cbar, strains)
    C_voigt = key_einsum("kveab,kweab,e->kvw", stress, strains, vols)
    stiffness = C_voigt[:, pair_of[:, :, None, None], pair_of[None, None, :, :]]

    g_ts = _vector_gradients(space, np.array([c.thermal_stress for c in correctors]))
    e_ts = 0.5 * (g_ts + np.swapaxes(g_ts, -1, -2))
    expansion = np.einsum("keab,e->kab", average("expansion"), vols) - key_einsum(
        "keabcd,kecd,e->kab", Cbar, e_ts, vols)

    thermal = np.array([c.thermal for c in correctors])           # (k, d, n_scalar)
    fluxes = np.einsum("kjei,eib->kjeb", thermal[:, :, space.cells],
                       space.gradients) + np.eye(d)[:, None]
    Kbar = average("conductivity")
    conductivity = key_einsum("kjea,keab,kieb,e->kij", fluxes, Kbar, fluxes, vols)

    matrix_measure = key_einsum("keq,q,e->k", fields["jacobian"], space.qweights, vols)
    heat_capacity = (mat.density_a * mat.heat_capacity_a * matrix_measure
                     + mat.expansion_a * np.einsum("keaa,e->k", g_ts, vols))

    gamma_bar = average("dissipation")
    dissipation = np.einsum("keab,e->kab", gamma_bar, vols)
    coupling = np.einsum("keab,kveab,e->kv", gamma_bar, g, vols)
    for v, (j, jj) in enumerate(pairs):
        dissipation[:, j, jj] += coupling[:, v]
        if j != jj:
            dissipation[:, jj, j] += coupling[:, v]
    inclusion_measure = ctx.inclusion_measure(t, xs)
    dissipation += mat.dissipation_b * inclusion_measure[:, None, None] * np.eye(d)
    return dict(stiffness=stiffness, expansion=expansion, conductivity=conductivity,
                heat_capacity=heat_capacity, dissipation=dissipation,
                matrix_measure=matrix_measure, inclusion_measure=inclusion_measure,
                voigt_bound=np.einsum("keab,e->kab", Kbar, vols))


def _rows(arrays):
    """One dict per key of a dict of arrays with a leading key axis; the
    entries of 1-d arrays as floats."""
    k = len(next(iter(arrays.values())))
    return [{name: float(a[i]) if a.ndim == 1 else a[i] for name, a in arrays.items()}
            for i in range(k)]


class EffectiveProvider:
    """The effective coefficients, their cell solves cached by geometry key.

    The correctors and the volume-integral quantities
    (:func:`compute_effective`) see the cell only through F and J; they are
    solved once per geometry key (``geometry``, a :class:`LevelCache` of the
    transformation's ``geometry_key``).  The interface fields (speed, latent
    source, curvature force: :func:`~thermohom.kinematics.key_interface`)
    read the cell velocity, so each request takes them for each of its
    sample keys and joins them to the key's geometry in one row.  At t = 0
    every map is the identity, so a graded amplitude's many sample keys
    share one cell solve.
    """

    def __init__(self, ctx: CellContext, sources=None, latent_in_source=True,
                 solver_tol=1e-10):
        self.ctx = ctx
        # spatially constant phase sources (f_u_A, f_u_B, f_th_A, f_th_B) at t
        self.sources = sources if sources is not None else zero_sources(ctx.dim)
        self.latent_in_source = latent_in_source
        self.solver_tol = solver_tol
        self.geometry = LevelCache()

    def _build(self, t, xs):
        """The row of each (k, d) macro point of xs, one sample key each,
        built in batches: within one key the kinematic fields, correctors,
        and every effective quantity except the time-dependent sources are
        identical."""
        return build_batched(self._coefficients, t, xs, len(self.ctx.space_a.cells),
                             "the effective coefficients")

    def _coefficients(self, t, xs):
        """The rows of the (k, d) macro points xs, one sample key each: their
        geometries' (built for the geometry keys not cached) and their own
        interface fields."""
        ctx, tr = self.ctx, self.ctx.transformation
        geometry = self.geometry.get_many(
            t, [tr.geometry_key(t, x) for x in xs], lambda missing: self._geometry(
                t, xs[missing]))
        # curvature force density: surface integral of the pulled-back stress
        # normal; interface speed: the surface integral of J W
        speed, stress = key_interface(tr, t, xs, ctx.facet_centroids, ctx.facet_normals,
                                      ctx.material.surface_tension)
        interface_speed = np.einsum("kf,f->k", speed, ctx.facet_areas)
        latent = ctx.material.latent_heat if self.latent_in_source else 1.0
        interface = _rows(dict(curvature_force=np.einsum("kfa,f->ka", stress, ctx.facet_areas),
                               latent_source=latent * interface_speed,
                               interface_speed=interface_speed))
        return [dict(g, **f) for g, f in zip(geometry, interface, strict=True)]

    def _geometry(self, t, xs):
        """The correctors and volume-integral quantities of the (k, d) macro
        points xs, one geometry key each."""
        fields = self.ctx.matrix_fields(t, xs)
        cors = solve_correctors_batch(self.ctx, t, xs, tol=self.solver_tol, fields=fields)
        eff = _rows(compute_effective(self.ctx, cors, t, xs, fields=fields))
        return [dict(e, correctors=c) for c, e in zip(cors, eff, strict=True)]

    def correctors(self, t, x):
        """The cell :class:`Correctors` at (t, x), shared by every point of
        x's geometry (their ``x`` is the first such point built)."""
        return self._build(t, np.asarray(x, dtype=float)[None])[0]["correctors"]

    def at_points(self, t, xs):
        """:meth:`at` of each macro point of xs ((k, d)), with the row of
        its sample key; the first points of the keys are built together."""
        xs = np.asarray(xs, dtype=float)
        first, of = sample_key_groups(self.ctx.transformation, t, xs)
        rows = self._build(t, xs[first])
        return [self.at(t, x, rows[k]) for x, k in zip(xs, of)]

    def at(self, t, x, row=None) -> EffectiveCoefficients:
        """The effective coefficients at (t, x), from ``row`` where the
        caller has x's (:meth:`at_points`), else from the batch of one."""
        b = row if row is not None else self._build(t, np.asarray(x, dtype=float)[None])[0]
        f_u_a, f_u_b, f_th_a, f_th_b = self.sources(t)
        return EffectiveCoefficients(
            t=float(t), x=np.asarray(x, dtype=float),
            stiffness=b["stiffness"], expansion=b["expansion"],
            conductivity=b["conductivity"], heat_capacity=b["heat_capacity"],
            dissipation=b["dissipation"], curvature_force=b["curvature_force"],
            latent_source=b["latent_source"], interface_speed=b["interface_speed"],
            source_u=(b["matrix_measure"] * np.asarray(f_u_a)
                      + b["inclusion_measure"] * np.asarray(f_u_b)),
            source_theta=b["matrix_measure"] * f_th_a + b["inclusion_measure"] * f_th_b,
            matrix_measure=b["matrix_measure"],
            inclusion_measure=b["inclusion_measure"],
            voigt_bound=b["voigt_bound"],
        )


# ---------------------------------------------------------------------------
# tabulation


# the tabulated quantities after t and x, in column order, with their rank
_EFFECTIVE_COLUMNS = (("stiffness", 4), ("expansion", 2), ("conductivity", 2),
                      ("heat_capacity", 0), ("dissipation", 2), ("curvature_force", 1),
                      ("latent_source", 0), ("interface_speed", 0), ("source_u", 1),
                      ("source_theta", 0), ("matrix_measure", 0), ("inclusion_measure", 0))


def effective_header(dim):
    return ["t"] + [f"x{i}" for i in range(dim)] + [
        name + "_" + "".join(map(str, idx)) if rank else name
        for name, rank in _EFFECTIVE_COLUMNS for idx in np.ndindex((dim,) * rank)]


def effective_row(eff: EffectiveCoefficients):
    return [eff.t, *eff.x] + [v for name, _ in _EFFECTIVE_COLUMNS
                              for v in np.ravel(getattr(eff, name))]


def tabulate_effective(provider: EffectiveProvider, times, points):
    """One row of every validated effective quantity per (t, x) sample."""
    header = effective_header(provider.ctx.dim)
    rows = []
    for t in times:
        for eff in provider.at_points(t, points):
            eff.validate()
            rows.append(effective_row(eff))
    return header, rows
