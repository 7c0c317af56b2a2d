"""Homogenized coefficients assembled from cell correctors and kinematics.

Every quantity is a plain (t, x)-sample; the provider caches correctors and
coefficient bundles keyed by the transformation's own sample key, so macro
sweeps over many quadrature points reuse one cell solve whenever the growth
amplitude does not vary in x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cell import (
    CellContext,
    Correctors,
    element_scalar_gradients,
    element_vector_gradients,
    solve_correctors,
    strain_pads,
)
from .fem import SolverError, einsum
from .kinematics import (
    LevelCache,
    interface_batch,
    mandel_matrix,
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
        """Raise AssertionError on any violated structural invariant."""
        d = self.conductivity.shape[0]
        C = self.stiffness
        defect = max(
            np.max(np.abs(C - np.einsum("ijkl->jikl", C))),
            np.max(np.abs(C - np.einsum("ijkl->ijlk", C))),
            np.max(np.abs(C - np.einsum("ijkl->klij", C))),
        )
        assert defect < tol, f"effective stiffness symmetry defect {defect:.2e}"
        eig = np.linalg.eigvalsh(mandel_matrix(C))
        assert eig.min() > 0.0, f"effective stiffness not positive definite ({eig.min():.2e})"
        K = self.conductivity
        assert np.max(np.abs(K - K.T)) < tol, "effective conductivity not symmetric"
        keig = np.linalg.eigvalsh(0.5 * (K + K.T))
        assert keig.min() > 0.0, "effective conductivity not positive definite"
        if probes is None:
            probes = probe_vectors(d)
        for q in probes:
            lhs = q @ K @ q
            rhs = q @ self.voigt_bound @ q
            assert lhs <= rhs + tol, f"Voigt bound violated: {lhs:.12g} > {rhs:.12g}"
        assert self.heat_capacity > 0.0, "effective heat capacity not positive"


def _element_average(space, field):
    """Quadrature average over q of an (e, nq, ...) coefficient array."""
    return np.einsum("eq...,q->e...", field, space.qweights)


def _interface(ctx: CellContext, t, x):
    return interface_batch(ctx.transformation, t, x, ctx.facet_centroids,
                           ctx.facet_normals)


def compute_effective_mechanics(ctx: CellContext, correctors: Correctors, t, x,
                                fields=None, interface=None):
    """Effective stiffness, expansion, curvature force, and matrix measure.

    ``fields`` and ``interface`` (the :func:`interface_batch` tuple at the
    cell's facets) are computed here when not given.
    """
    fields = fields if fields is not None else ctx.matrix_fields(t, x)
    space = ctx.space_a
    d = ctx.dim
    vols = space.volumes
    Cbar = _element_average(space, fields["stiffness"])  # (e, d, d, d, d)

    pairs = sym_index_pairs(d)
    pads = strain_pads(d)
    strains = []
    for jk in pairs:
        g = element_vector_gradients(space, correctors.mechanical[jk])
        strains.append(0.5 * (g + np.transpose(g, (0, 2, 1))) + pads[jk])
    strains = np.stack(strains)                            # (nv, e, d, d)

    stress = einsum("eabcd,vecd->veab", Cbar, strains)
    C_voigt = einsum("veab,weab,e->vw", stress, strains, vols)

    C_eff = np.zeros((d, d, d, d))
    for a, (j, k) in enumerate(pairs):
        for b, (m, n) in enumerate(pairs):
            val = C_voigt[a, b]
            for (p, q) in {(j, k), (k, j)}:
                for (r, s) in {(m, n), (n, m)}:
                    C_eff[p, q, r, s] = val

    g_ts = element_vector_gradients(space, correctors.thermal_stress)
    e_ts = 0.5 * (g_ts + np.transpose(g_ts, (0, 2, 1)))
    alpha_bar = _element_average(space, fields["expansion"])
    alpha_eff = np.einsum("eab,e->ab", alpha_bar, vols) - einsum(
        "eabcd,ecd,e->ab", Cbar, e_ts, vols)

    # curvature force density: surface integral of the pulled-back stress normal
    _, _, H, F, J = interface if interface is not None else _interface(ctx, t, x)
    Finv = np.linalg.inv(F)
    sigma0 = ctx.material.surface_tension
    integrand = sigma0 * (J * H)[:, None] * np.einsum(
        "fab,fb->fa", Finv, ctx.facet_normals
    )
    curvature_force = np.einsum("fa,f->a", integrand, ctx.facet_areas)

    matrix_measure = float(np.einsum("eq,q,e->", fields["jacobian"], space.qweights, vols))
    return C_eff, alpha_eff, curvature_force, matrix_measure


def compute_effective_heat(ctx: CellContext, correctors: Correctors, t, x,
                           fields=None, latent_in_source=True, interface=None):
    """Effective conductivity, heat capacity, dissipation, and interface sources."""
    fields = fields if fields is not None else ctx.matrix_fields(t, x)
    space = ctx.space_a
    d = ctx.dim
    vols = space.volumes
    Kbar = _element_average(space, fields["conductivity"])

    fluxes = []
    for j in range(d):
        g = element_scalar_gradients(space, correctors.thermal[j])
        g = g + np.eye(d)[j]
        fluxes.append(g)
    fluxes = np.stack(fluxes)                              # (d, e, d)
    K_eff = einsum("jea,eab,ieb,e->ij", fluxes, Kbar, fluxes, vols)

    matrix_measure = float(np.einsum("eq,q,e->", fields["jacobian"], space.qweights, vols))
    g_ts = element_vector_gradients(space, correctors.thermal_stress)
    div_ts = np.einsum("eaa,e->", g_ts, vols)
    c_eff = (ctx.material.density_a * ctx.material.heat_capacity_a * matrix_measure
             + ctx.material.expansion_a * div_ts)

    gamma_bar = _element_average(space, fields["dissipation"])
    gamma_eff = np.einsum("eab,e->ab", gamma_bar, vols)
    for (j, k) in sym_index_pairs(d):
        g = element_vector_gradients(space, correctors.mechanical[(j, k)])
        coupling = np.einsum("eab,eab,e->", gamma_bar, g, vols)
        gamma_eff[j, k] += coupling
        if j != k:
            gamma_eff[k, j] += coupling

    inclusion_measure = ctx.inclusion_measure(t, x)
    gamma_eff += ctx.material.dissipation_b * inclusion_measure * np.eye(d)

    _, W, _, _, J = interface if interface is not None else _interface(ctx, t, x)
    interface_speed = float(np.einsum("f,f->", J * W, ctx.facet_areas))
    latent_source = (ctx.material.latent_heat if latent_in_source else 1.0) * interface_speed

    voigt_bound = np.einsum("eab,e->ab", Kbar, vols)
    return (K_eff, c_eff, gamma_eff, latent_source, interface_speed,
            inclusion_measure, voigt_bound)


class EffectiveProvider:
    """Caches correctors and effective bundles keyed by the transformation sample."""

    def __init__(self, ctx: CellContext, sources=None, latent_in_source=True,
                 solver_tol=1e-10):
        self.ctx = ctx
        # spatially constant phase sources (f_u_A, f_u_B, f_th_A, f_th_B) at t
        self.sources = sources if sources is not None else zero_sources(ctx.dim)
        self.latent_in_source = latent_in_source
        self.solver_tol = solver_tol
        self.cache = LevelCache()

    def _bundle(self, t, x):
        """Geometry-derived quantities, cached by the transformation sample key.

        Within one key the kinematic fields, correctors, and every effective
        quantity except the time-dependent sources are identical.
        """
        key = self.ctx.transformation.sample_key(t, x)
        return self.cache.get(t, key, lambda: self._build_bundle(t, x))

    def _build_bundle(self, t, x):
        from .twoscale import BundleError   # twoscale imports this module

        try:
            return self._coefficients(t, x)
        except SolverError:          # a corrector residual breach names t and x
            raise
        except (ValueError, RuntimeError) as exc:  # inadmissible map, singular LU
            raise BundleError(f"two-scale solver: cannot build the effective coefficients "
                              f"at t = {t:.6g}, x = {np.asarray(x).tolist()}: {exc}") from exc

    def _coefficients(self, t, x):
        fields = self.ctx.matrix_fields(t, x)
        cors = solve_correctors(self.ctx, t, x, tol=self.solver_tol, fields=fields)
        interface = _interface(self.ctx, t, x)
        C_eff, alpha_eff, curvature_force, matrix_measure = compute_effective_mechanics(
            self.ctx, cors, t, x, fields=fields, interface=interface
        )
        (K_eff, c_eff, gamma_eff, latent_source, interface_speed, inclusion_measure,
         voigt_bound) = compute_effective_heat(
            self.ctx, cors, t, x, fields=fields,
            latent_in_source=self.latent_in_source, interface=interface,
        )
        return dict(
            correctors=cors, stiffness=C_eff, expansion=alpha_eff,
            conductivity=K_eff, heat_capacity=c_eff, dissipation=gamma_eff,
            curvature_force=curvature_force, latent_source=latent_source,
            interface_speed=interface_speed, matrix_measure=matrix_measure,
            inclusion_measure=inclusion_measure, voigt_bound=voigt_bound,
        )

    def correctors(self, t, x) -> Correctors:
        return self._bundle(t, x)["correctors"]

    def at(self, t, x) -> EffectiveCoefficients:
        b = self._bundle(t, x)
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
        for x in points:
            eff = provider.at(t, np.asarray(x, dtype=float))
            eff.validate()
            rows.append(effective_row(eff))
    return header, rows
