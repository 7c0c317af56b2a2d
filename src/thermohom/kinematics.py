"""Prescribed cell transformations and the coefficient pullbacks they induce.

The two-phase cell geometry moves according to a prescribed family of maps
acting on the unit cell, parametrized by time and macro position.  All
solvers work on the *fixed* reference geometry; the motion enters purely
through the kinematic fields derived here (deformation gradient, Jacobian,
cell velocity, interface normal/velocity/curvature) and the material
coefficients pulled back with them.

Two families give the fields in closed form or by interpolation: radial
growth of the inclusion (:class:`RadialGrowth`), whose zero amplitude is
the static geometry (:class:`IdentityTransform`), and a sampled table of
cell maps (:class:`TabulatedTransform`).

This module is the one place those fields are evaluated.  Every solver asks
for them per transformation sample key, on k copies of the cell's points
(:func:`key_points`): the volume coefficients at the quadrature points of a
phase (:func:`key_fields`, one :func:`pullback_fields` per batch of keys)
and the interface fields at the facet centroids (:func:`key_interface`, one
:func:`interface_batch` per batch of keys).  Each family also names the part
of its sample key that fixes F and J, its ``geometry_key``: the cell
problems and the micro maps without a time step read nothing else, so they
are cached by it, while whatever reads the cell velocity is cached by the
sample key (:class:`LevelCache`).

Conventions: the unit cell is ``[0, 1]^d``, the reference inclusion is the
ball of radius ``inclusion_radius`` around the cell center, and interface
normals point outwards from the inclusion.  Signed mean curvature is
non-positive where the inclusion is locally convex.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .fem import key_einsum

PHASE_A = 0  # connected matrix
PHASE_B = 1  # disconnected inclusions

_NORMAL_EPS = 1e-12


class InadmissibleTransformError(ValueError):
    """Raised when a transformation sample violates admissibility."""


# ---------------------------------------------------------------------------
# amplitude and cutoff building blocks


def _power(t, k):
    """t**k for a float t, rounded as numpy's array power rounds it: k <= 2
    are exact products, higher powers go through numpy."""
    if k == 0:
        return 1.0
    if k == 1:
        return t
    if k == 2:
        return t * t
    return float(np.asarray(t) ** k)


@dataclass(frozen=True)
class PolynomialAmplitude:
    """Growth amplitude g(t, x) = (sum_k c_k t^k) * (1 + slope . x).

    The constant coefficient must vanish so that the transformation is the
    identity at t = 0.  t is a scalar; x is one point or an (m, d) array of
    points, which gives one amplitude per point.
    """

    coeffs: tuple[float, ...]
    x_slope: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.coeffs) == 0 or self.coeffs[0] != 0.0:
            raise InadmissibleTransformError(
                "amplitude must vanish at t = 0 (leading coefficient 0)"
            )

    def _spatial(self, x):
        if not self.x_slope:
            return 1.0
        slope = np.asarray(self.x_slope, dtype=float)
        return 1.0 + np.asarray(x, dtype=float) @ slope

    def value(self, t, x):
        t, p = float(t), 0.0
        for k, c in enumerate(self.coeffs):
            if c != 0.0:
                p = p + c * _power(t, k)
        return p * self._spatial(x)

    def rate(self, t, x):
        t, p = float(t), 0.0
        for k, c in enumerate(self.coeffs):
            if k >= 1 and c != 0.0:
                p = p + k * c * _power(t, k - 1)
        return p * self._spatial(x)


def _smoothstep(u):
    # quintic smoothstep: C^2, zero slope/curvature at both ends
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (10.0 + u * (-15.0 + 6.0 * u))


def _smoothstep_d1(u):
    inside = (u > 0.0) & (u < 1.0)
    u = np.clip(u, 0.0, 1.0)
    return np.where(inside, 30.0 * u**2 * (u - 1.0) ** 2, 0.0)


def _smoothstep_d2(u):
    inside = (u > 0.0) & (u < 1.0)
    u = np.clip(u, 0.0, 1.0)
    return np.where(inside, 60.0 * u * (2.0 * u - 1.0) * (u - 1.0), 0.0)


@dataclass(frozen=True)
class QuinticCutoff:
    """Radial cutoff: 1 on [0, plateau], 0 on [support, inf), C^2 blend between."""

    plateau: float
    support: float

    def __post_init__(self):
        if not 0.0 < self.plateau < self.support:
            raise InadmissibleTransformError("cutoff needs 0 < plateau < support")

    def _u(self, rho):
        return (np.asarray(rho, dtype=float) - self.plateau) / (self.support - self.plateau)

    def __call__(self, rho):
        return 1.0 - _smoothstep(self._u(rho))

    def derivative(self, rho):
        return -_smoothstep_d1(self._u(rho)) / (self.support - self.plateau)

    def second_derivative(self, rho):
        return -_smoothstep_d2(self._u(rho)) / (self.support - self.plateau) ** 2


# ---------------------------------------------------------------------------
# transformation families


def _check_cell_points(y, dim):
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if y.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got {y.shape[1]}")
    if np.any(y < -1e-12) or np.any(y > 1.0 + 1e-12):
        raise InadmissibleTransformError("cell point outside the closed unit cell")
    return y


@dataclass(frozen=True)
class RadialGrowth:
    """Radially growing inclusion: s = y + g(t, x) * eta(|y - c|) * (y - c).

    The cutoff eta equals one on a neighborhood of the inclusion and vanishes
    near the cell boundary, so boundary-adjacent points never move.
    """

    dim: int = 2
    inclusion_radius: float = 0.25
    amplitude: PolynomialAmplitude = field(
        default_factory=lambda: PolynomialAmplitude((0.0, 0.1))
    )
    det_bounds: tuple[float, float] = (0.5, 2.0)
    boundary_margin: float = 0.1
    cutoff: QuinticCutoff | None = None

    family = "radial_growth"

    @property
    def center(self):
        return np.full(self.dim, 0.5)

    def _cutoff(self):
        if self.cutoff is not None:
            return self.cutoff
        support = 0.5 - 0.5 * self.boundary_margin
        r = self.inclusion_radius
        if support <= r:
            raise InadmissibleTransformError(
                "boundary margin leaves no room for the cutoff blend"
            )
        return QuinticCutoff(plateau=r + 0.3 * (support - r), support=support)

    def sample_key(self, t, x):
        g = float(self.amplitude.value(t, x))
        gdot = float(self.amplitude.rate(t, x))
        return ("radial_growth", round(g, 12), round(gdot, 12))

    def geometry_key(self, t, x):
        """The part of the sample key that fixes F and J: the amplitude g.
        Its rate moves only the cell velocity."""
        return ("radial_growth", round(float(self.amplitude.value(t, x)), 12))

    def map_points(self, t, x, y):
        y = _check_cell_points(y, self.dim)
        rel = y - self.center
        rho = np.linalg.norm(rel, axis=1)
        g = self.amplitude.value(t, x)
        return y + (g * self._cutoff()(rho))[:, None] * rel

    def kinematics_batch(self, t, x, y):
        y = _check_cell_points(y, self.dim)
        d = self.dim
        rel = y - self.center
        rho = np.linalg.norm(rel, axis=1)
        unit = np.divide(rel, rho[:, None], out=np.zeros_like(rel), where=rho[:, None] > 0)
        cutoff = self._cutoff()
        eta = cutoff(rho)
        etap = cutoff.derivative(rho)
        g = np.broadcast_to(self.amplitude.value(t, x), rho.shape)
        gdot = np.broadcast_to(self.amplitude.rate(t, x), rho.shape)

        tang = 1.0 + g * eta                 # tangential stretch
        radial = 1.0 + g * (eta + rho * etap)  # radial stretch
        F = tang[:, None, None] * np.eye(d) + (g * etap * rho)[:, None, None] * (
            unit[:, :, None] * unit[:, None, :]
        )
        J = radial * tang ** (d - 1)
        if np.any(J <= 0.0):
            where = int(np.argmin(J))
            raise InadmissibleTransformError(
                f"degenerate map: det(F) = {J[where]:.3e} at y = {y[where]}"
            )
        v = (gdot * eta)[:, None] * rel
        return F, J, v

    def curvature_batch(self, t, x, y):
        """Mean curvature of the deformed interface in reference coordinates.

        Uses the closed form for radial maps: the pulled-back unit normal
        field is psi(rho) * e_r with psi = 1 / (radial stretch), and the
        curvature is -div of that field.
        """
        y = _check_cell_points(y, self.dim)
        rho = np.linalg.norm(y - self.center, axis=1)
        cutoff = self._cutoff()
        eta = cutoff(rho)
        etap = cutoff.derivative(rho)
        etapp = cutoff.second_derivative(rho)
        g = np.broadcast_to(self.amplitude.value(t, x), rho.shape)
        radial = 1.0 + g * (eta + rho * etap)
        psi = 1.0 / radial
        psi_p = -g * (2.0 * etap + rho * etapp) / radial**2
        return -(psi_p + (self.dim - 1) * psi / rho)


@dataclass(frozen=True)
class IdentityTransform(RadialGrowth):
    """The static geometry s(t, x, y) = y: radial growth of zero amplitude,
    whose formulas give F = I, J = 1, v = 0 and H = -(d - 1) / rho exactly."""

    amplitude: PolynomialAmplitude = field(
        default=PolynomialAmplitude((0.0,)), init=False)
    cutoff: QuinticCutoff | None = field(default=None, init=False)

    family = "identity"


class TabulatedTransform:
    """Transformation defined by a sampled table of cell maps.

    The table provides the map on a regular lattice of the unit cell at a
    list of times and macro anchor points; evaluation interpolates
    multilinearly in the cell variable and linearly in time.  Macro
    dependence is nearest-anchor (the table is expected to resolve it); a
    macro argument of one point per cell point uses each point's own anchor.
    The reference interface is still the built-in ball; curvature is
    obtained by central finite differences of the pulled-back normal field.
    """

    family = "tabulated"
    fd_step = 1e-4          # finite-difference step of F, v and the curvature

    def __init__(self, dim, times, anchors, grid_n, values, inclusion_radius=0.25,
                 det_bounds=(0.5, 2.0), boundary_margin=0.1):
        self.dim = int(dim)
        self.times = np.asarray(times, dtype=float)
        self.anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
        self.grid_n = int(grid_n)
        # values: (n_t, n_x, grid_n**dim, dim), row-major over the lattice
        self.values = np.asarray(values, dtype=float)
        self.inclusion_radius = float(inclusion_radius)
        self.det_bounds = tuple(det_bounds)
        self.boundary_margin = float(boundary_margin)
        if self.times.size == 0:
            raise ValueError("table has no times")
        if self.anchors.size == 0:
            raise ValueError("table has no anchors")
        if self.grid_n < 2:
            raise ValueError(f"grid_n = {self.grid_n}, needs at least 2 lattice points per axis")
        expect = (len(self.times), self.anchors.shape[0], self.grid_n**self.dim, self.dim)
        if self.values.shape != expect:
            raise ValueError(f"table shape {self.values.shape}, expected {expect}")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("table times must increase strictly")
        if 2.0 * self.fd_step * (self.grid_n - 1) > 1.0:
            raise ValueError(f"grid_n = {self.grid_n} has intervals below 2 fd_step")
        self._lattice = self.values.reshape(
            (len(self.times), self.anchors.shape[0]) + (self.grid_n,) * self.dim + (self.dim,)
        )

    @property
    def center(self):
        return np.full(self.dim, 0.5)

    def _anchor_index(self, x):
        """The nearest anchor of each macro point (each row of x)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))[:, : self.dim]
        return np.argmin(np.linalg.norm(self.anchors - x[:, None], axis=2), axis=1)

    def sample_key(self, t, x):
        return ("tabulated", round(float(t), 12), int(self._anchor_index(x)[0]))

    # F and v difference the same table slice, so the sample fixes the geometry
    geometry_key = sample_key

    def _time_weights(self, t):
        t = float(np.clip(t, self.times[0], self.times[-1]))
        i = int(np.searchsorted(self.times, t, side="right") - 1)
        i = min(max(i, 0), len(self.times) - 2) if len(self.times) > 1 else 0
        if len(self.times) == 1:
            return i, i, 0.0
        w = (t - self.times[i]) / (self.times[i + 1] - self.times[i])
        return i, i + 1, w

    def _cell(self, y):
        """The lattice cell i0 of each cell point of y, and its weights w there."""
        s = np.clip(y, 0.0, 1.0) * (self.grid_n - 1)
        i0 = np.clip(s.astype(int), 0, self.grid_n - 2)
        return i0, s - i0

    def _interp(self, lattice, i0, w):
        """Multilinear interpolation of a lattice field in the cells i0 at w."""
        out = 0.0
        for corner in range(2**self.dim):
            bits = [(corner >> k) & 1 for k in range(self.dim)]
            cw = np.ones(i0.shape[0])
            idx = []
            for k, b in enumerate(bits):
                cw = cw * (w[:, k] if b else 1.0 - w[:, k])
                idx.append(i0[:, k] + b)
            out = out + cw[:, None] * lattice[tuple(idx)]
        return out

    def _difference_quotient(self, lattice, ym, yp, k):
        """``(f(yp) - f(ym)) / (yp_k - ym_k)`` of the interpolant f of lattice,
        for points apart along axis k only, by at most one lattice interval:
        the slopes of the intervals along k, weighted by their share of
        [ym_k, yp_k].  Differencing two values of f would amplify the
        rounding of the points by 1 / fd_step."""
        n = self.grid_n
        slopes = np.diff(lattice, axis=k, append=np.take(lattice, [-1], axis=k)) * (n - 1)
        i0, w = self._cell(ym)
        jp = self._cell(yp)[0][:, k]
        sm, sp = ym[:, k] * (n - 1), yp[:, k] * (n - 1)
        share = np.where(jp > i0[:, k], (sp - jp) / (sp - sm), 0.0)
        w[:, k] = 0.0          # one interval's slope along k, interpolated off k
        out = (1.0 - share)[:, None] * self._interp(slopes, i0, w)
        i0[:, k] = jp
        return out + share[:, None] * self._interp(slopes, i0, w)

    def _lattice_at(self, t, ia):
        t0, t1, w = self._time_weights(t)
        return (1.0 - w) * self._lattice[t0, ia] + w * self._lattice[t1, ia]

    def _per_anchor(self, x, y, value):
        """``value(ia, rows)`` for the rows of y whose nearest anchor is ia."""
        anchor = np.broadcast_to(self._anchor_index(x), len(y))
        out = np.empty_like(y)
        for ia in np.unique(anchor):
            rows = anchor == ia
            out[rows] = value(ia, rows)
        return out

    def map_points(self, t, x, y):
        y = _check_cell_points(y, self.dim)
        return self._per_anchor(x, y, lambda ia, rows: self._interp(
            self._lattice_at(t, ia), *self._cell(y[rows])))

    def kinematics_batch(self, t, x, y):
        """F and v as difference quotients of the map with step fd_step, each
        taken on the lattice before one interpolation at y."""
        y = _check_cell_points(y, self.dim)
        h = self.fd_step
        d = self.dim
        m = y.shape[0]
        F = np.empty((m, d, d))
        for k in range(d):
            step = np.zeros(d)
            step[k] = h
            yp = np.clip(y + step, 0.0, 1.0)
            ym = np.clip(y - step, 0.0, 1.0)
            F[:, :, k] = self._per_anchor(x, y, lambda ia, rows: self._difference_quotient(
                self._lattice_at(t, ia), ym[rows], yp[rows], k))
        J = np.linalg.det(F)
        if np.any(J <= 0.0):
            raise InadmissibleTransformError("tabulated map has non-positive determinant")
        dt_fd = max(h, 1e-6 * max(self.times[-1] - self.times[0], 1.0))
        tp = min(float(t) + dt_fd, float(self.times[-1]))
        tm = max(float(t) - dt_fd, float(self.times[0]))
        if tp > tm:
            v = self._per_anchor(x, y, lambda ia, rows: self._interp(
                (self._lattice_at(tp, ia) - self._lattice_at(tm, ia)) / (tp - tm),
                *self._cell(y[rows])))
        else:
            v = np.zeros((m, d))
        return F, J, v

    def curvature_batch(self, t, x, y, step=None):
        """-div of the pulled-back unit normal field, by central differences."""
        y = _check_cell_points(y, self.dim)
        h = self.fd_step if step is None else float(step)

        def pulled_normal(pts):
            F, _, _ = self.kinematics_batch(t, x, pts)
            rel = pts - self.center
            n0 = rel / np.linalg.norm(rel, axis=1)[:, None]
            n_cur = np.linalg.solve(np.transpose(F, (0, 2, 1)), n0[:, :, None])[:, :, 0]
            n_cur /= np.linalg.norm(n_cur, axis=1)[:, None]
            return np.linalg.solve(F, n_cur[:, :, None])[:, :, 0]

        div = np.zeros(y.shape[0])
        for k in range(self.dim):
            e = np.zeros(self.dim)
            e[k] = h
            div += (pulled_normal(y + e)[:, k] - pulled_normal(y - e)[:, k]) / (2.0 * h)
        return -div


# ---------------------------------------------------------------------------
# material parameters


def isotropic_stiffness(lam, mu, dim):
    """Rank-4 isotropic stiffness with Lame parameters (lam, mu)."""
    eye = np.eye(dim)
    C = lam * np.einsum("ij,kl->ijkl", eye, eye)
    C += mu * (np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye))
    return C


def sym_index_pairs(dim):
    """Index pairs (j, k), j <= k, enumerating independent symmetric strains."""
    return [(j, k) for j in range(dim) for k in range(j, dim)]


def mandel_matrix(C):
    """Rank-4 tensor with minor symmetries as a matrix on symmetric matrices."""
    dim = C.shape[0]
    pairs = sym_index_pairs(dim)
    nv = len(pairs)
    M = np.empty((nv, nv))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            fa = 1.0 if i == j else np.sqrt(2.0)
            fb = 1.0 if k == l else np.sqrt(2.0)
            M[a, b] = fa * fb * C[i, j, k, l]
    return M


def _check_rank4_symmetric(C, name):
    defect = max(
        np.max(np.abs(C - np.einsum("ijkl->jikl", C))),
        np.max(np.abs(C - np.einsum("ijkl->ijlk", C))),
        np.max(np.abs(C - np.einsum("ijkl->klij", C))),
    )
    scale = max(np.max(np.abs(C)), 1.0)
    if defect > 1e-12 * scale:
        raise ValueError(f"{name} is not minor+major symmetric (defect {defect:.2e})")
    eig = np.linalg.eigvalsh(mandel_matrix(C))
    if eig.min() <= 0.0:
        raise ValueError(f"{name} is not positive definite on symmetric matrices")


def _check_spd(K, name):
    if np.max(np.abs(K - K.T)) > 1e-12 * max(np.max(np.abs(K)), 1.0):
        raise ValueError(f"{name} is not symmetric")
    if np.linalg.eigvalsh(K).min() <= 0.0:
        raise ValueError(f"{name} is not positive definite")


@dataclass(frozen=True)
class MaterialParams:
    """All physical constants of the two phases plus interface parameters."""

    dim: int
    stiffness_a: np.ndarray
    stiffness_b: np.ndarray
    conductivity_a: np.ndarray
    conductivity_b: np.ndarray
    expansion_a: float
    expansion_b: float
    dissipation_a: float
    dissipation_b: float
    density_a: float
    density_b: float
    heat_capacity_a: float
    heat_capacity_b: float
    surface_tension: float
    latent_heat: float

    def __post_init__(self):
        _check_rank4_symmetric(self.stiffness_a, "stiffness_a")
        _check_rank4_symmetric(self.stiffness_b, "stiffness_b")
        _check_spd(self.conductivity_a, "conductivity_a")
        _check_spd(self.conductivity_b, "conductivity_b")
        for name in ("density_a", "density_b", "heat_capacity_a", "heat_capacity_b"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        # zero is admissible: it selects the decoupled model variants
        for name in ("expansion_a", "expansion_b", "dissipation_a", "dissipation_b",
                     "surface_tension"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")

    def stiffness(self, phase):
        return self.stiffness_a if phase == PHASE_A else self.stiffness_b

    def conductivity(self, phase):
        return self.conductivity_a if phase == PHASE_A else self.conductivity_b

    def expansion(self, phase):
        return self.expansion_a if phase == PHASE_A else self.expansion_b

    def dissipation(self, phase):
        return self.dissipation_a if phase == PHASE_A else self.dissipation_b

    def volumetric_heat_capacity(self, phase):
        if phase == PHASE_A:
            return self.density_a * self.heat_capacity_a
        return self.density_b * self.heat_capacity_b


def default_material(dim=2, **overrides):
    """A convenient admissible parameter set used throughout tests and configs."""
    values = dict(
        dim=dim,
        stiffness_a=isotropic_stiffness(1.0, 1.0, dim),
        stiffness_b=isotropic_stiffness(1.0, 1.0, dim),
        conductivity_a=np.eye(dim),
        conductivity_b=np.eye(dim),
        expansion_a=1.0,
        expansion_b=0.8,
        dissipation_a=0.5,
        dissipation_b=0.4,
        density_a=1.0,
        density_b=1.0,
        heat_capacity_a=1.0,
        heat_capacity_b=1.0,
        surface_tension=0.05,
        latent_heat=0.1,
    )
    values.update(overrides)
    return MaterialParams(**values)


def scaled_coefficients(mat: MaterialParams, eps: float) -> MaterialParams:
    """Inclusion-phase coefficient scaling for the resolved epsilon problem.

    Phase A is untouched; the inclusion stiffness and conductivity scale with
    eps^2, thermal expansion and dissipation with eps.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    return replace(mat, stiffness_b=eps**2 * mat.stiffness_b,
                   conductivity_b=eps**2 * mat.conductivity_b,
                   expansion_b=eps * mat.expansion_b, dissipation_b=eps * mat.dissipation_b)


# ---------------------------------------------------------------------------
# transformed fields


def interface_batch(tr, t, x, y, n0):
    """Vectorized interface sample: unit normals, normal velocities, curvatures."""
    y = np.atleast_2d(y)
    n0 = np.atleast_2d(n0)
    F, J, v = tr.kinematics_batch(t, x, y)
    n_raw = np.linalg.solve(np.transpose(F, (0, 2, 1)), n0[:, :, None])[:, :, 0]
    norms = np.linalg.norm(n_raw, axis=1)
    if np.any(norms < _NORMAL_EPS):
        raise InadmissibleTransformError("degenerate pushforward normal")
    n = n_raw / norms[:, None]
    W = np.einsum("ij,ij->i", v, n)
    H = tr.curvature_batch(t, x, y)
    return n, W, H, F, J


def pullback_fields(F, J, v, mat: MaterialParams, phase):
    """Transformed volumetric coefficient fields for a batch of kinematic samples.

    Returns a dict with stiffness (m,d,d,d,d), expansion (m,d,d),
    conductivity (m,d,d), heat_capacity (m,), dissipation (m,d,d) and
    velocity (m,d).
    """
    Finv = np.linalg.inv(F)
    FinvT = np.transpose(Finv, (0, 2, 1))
    # J A^T C A with A the map B -> sym(F^-T B), contracted directly: C's
    # minor symmetries absorb the symmetrization
    stiffness = key_einsum("m,map,mcr,pbrd->mabcd", J, Finv, Finv, mat.stiffness(phase))
    expansion = mat.expansion(phase) * J[:, None, None] * FinvT
    conductivity = J[:, None, None] * (Finv @ mat.conductivity(phase) @ FinvT)
    heat_capacity = J * mat.volumetric_heat_capacity(phase)
    dissipation = mat.dissipation(phase) * J[:, None, None] * FinvT
    velocity = np.einsum("mij,mj->mi", Finv, v)
    return dict(
        stiffness=stiffness,
        expansion=expansion,
        conductivity=conductivity,
        heat_capacity=heat_capacity,
        dissipation=dissipation,
        velocity=velocity,
        jacobian=J,
    )


def coefficient_fields(space, tr, mat: MaterialParams, phase, t, x, y=None):
    """:func:`pullback_fields` at the quadrature points of a P1 space, as
    (e, nq, ...) arrays.

    ``y`` are the cell coordinates of the flattened quadrature points (by
    default the points themselves, for spaces on the reference cell); ``x``
    is the macro point, or one macro point per quadrature point.  A ``y`` of
    k copies of the points gives (k * e, nq, ...) arrays.
    """
    if y is None:
        y = space.qpoints.reshape(-1, space.dim)
    F, J, v = tr.kinematics_batch(t, x, y)
    fields = pullback_fields(F, J, v, mat, phase)
    nq = len(space.qweights)
    return {k: a.reshape((-1, nq) + a.shape[1:]) for k, a in fields.items()}


def key_points(xs, *cell_arrays):
    """The layout of a keyed evaluation: k copies of per-point cell arrays
    ((m, d) each), copy i at the i-th macro point of xs ((k, d)).  Returns
    the macro argument of each point and the copied arrays, (k * m, d) each."""
    return (np.repeat(xs, len(cell_arrays[0]), axis=0),
            *(np.tile(a, (len(xs), 1)) for a in cell_arrays))


def key_fields(space, tr, mat: MaterialParams, phase, t, xs):
    """:func:`coefficient_fields` at the quadrature points of ``space`` for
    each macro point of xs ((k, d)) in one batch: (k, e, nq, ...) arrays,
    one copy of the cell's points per macro point."""
    fields = coefficient_fields(space, tr, mat, phase, t,
                                *key_points(xs, space.qpoints.reshape(-1, space.dim)))
    return {name: a.reshape((len(xs), -1) + a.shape[1:]) for name, a in fields.items()}


def key_interface(tr, t, xs, y, n0, tension):
    """The interface fields at the cell's interface points y with reference
    normals n0 ((m, d) each), for each macro point of xs ((k, d)), from one
    :func:`interface_batch`: the normal speed ``J W`` ((k, m)) and the
    curvature stress ``tension J H F^-1 n0`` ((k, m, d))."""
    k = len(xs)
    x, y, n0 = key_points(xs, y, n0)
    _, W, H, F, J = interface_batch(tr, t, x, y, n0)
    stress = tension * (J * H)[:, None] * np.einsum("fab,fb->fa", np.linalg.inv(F), n0)
    return (J * W).reshape(k, -1), stress.reshape(k, -1, stress.shape[1])


def key_groups(keys):
    """Which entries of ``keys`` are equal: ``(first, of)``, where
    ``first[k]`` is the index of the first entry with the k-th distinct key
    (keys numbered in order of first appearance) and ``of[i]`` is the key
    number of entry i."""
    number = {}
    of = np.array([number.setdefault(key, len(number)) for key in keys], dtype=int)
    return np.unique(of, return_index=True)[1], of


def sample_key_groups(tr, t, points):
    """The :func:`key_groups` of the points' transformation sample keys at
    time t, from one ``sample_key`` call per point."""
    return key_groups([tr.sample_key(t, x) for x in points])


class LevelCache:
    """Values keyed by a transformation key (a sample or a geometry key),
    for the two most recent time levels (the current step pair).

    A key cached at the other level is reused, so a static geometry builds
    once.  ``valid`` may reject a cached value that does not fit the
    request; it is then rebuilt.  ``hits`` and ``misses`` count the distinct
    keys of every request that were found and that were built.
    """

    def __init__(self):
        self.levels = {}         # time level -> {key: value}
        self.hits = self.misses = 0

    def _level(self, t):
        """The values of time level t; a new level drops every level but the
        most recently opened one."""
        level = round(float(t), 12)
        if level not in self.levels:
            self.levels = dict(list(self.levels.items())[-1:])
            self.levels[level] = {}
        return self.levels[level]

    def get(self, t, key, build, valid=None):
        """The value of ``key`` at time t; ``build()`` makes it on a miss."""
        return self.get_many(t, [key], lambda missing: [build()], valid)[0]

    def get_many(self, t, keys, build, valid=None):
        """The value of each of ``keys`` at time t; ``build(missing)`` makes
        the values of the keys that miss in one call, given the position in
        ``keys`` of each one's first occurrence."""
        current = self._level(t)
        first = {}
        for i, key in enumerate(keys):
            first.setdefault(key, i)
        found = {}
        for key in first:
            value = current.get(key)
            if value is None:
                value = next((c[key] for c in self.levels.values() if key in c), None)
            if value is not None and (valid is None or valid(value)):
                found[key] = value
        missing = [i for key, i in first.items() if key not in found]
        self.hits += len(found)
        self.misses += len(missing)
        if missing:
            found.update(zip((keys[i] for i in missing), build(missing), strict=True))
        current.update(found)
        return [found[key] for key in keys]


class BundleError(RuntimeError):
    """A solver could not build the operators of some time level."""


# keys x cell elements built in one batch: bounds the transient arrays of a
# batched build.  The 2D cells of the shipped configurations (192 matrix and
# 168 inclusion elements) take 8 and 9 keys per batch, at 3-6 MiB (measured
# with tracemalloc); a 3D cell of resolution 4 (2 592 and 1 944) takes one.
BATCH_ELEMENTS = 1536


def build_batched(build, t, xs, n_elements, what):
    """``build(t, chunk)`` (a list, one value per point) over the macro points
    xs in chunks of ``BATCH_ELEMENTS // n_elements`` points, concatenated.

    A chunk that fails with a ``ValueError`` (an inadmissible map, a
    non-finite entry) is built again one point at a time, so that a
    :class:`BundleError` names the solver, ``what``, t and x of the point at
    fault.  A :class:`~thermohom.fem.SolverError` (a singular factor, a
    breached residual) names them itself and passes through.
    """
    size = max(1, BATCH_ELEMENTS // n_elements)
    out = []
    for start in range(0, len(xs), size):
        chunk = xs[start:start + size]
        try:
            out += build(t, chunk)
        except ValueError as exc:
            if len(chunk) == 1:
                raise BundleError(f"two-scale solver: cannot build {what} at t = "
                                  f"{t:.6g}, x = {chunk[0].tolist()}: {exc}") from exc
            for x in chunk:         # the first point at fault raises
                build_batched(build, t, x[None], n_elements, what)
            raise
    return out


def zero_sources(dim):
    """Phase sources (f_u_A, f_u_B, f_th_A, f_th_B) that vanish at every t."""
    return lambda t: (np.zeros(dim), np.zeros(dim), 0.0, 0.0)


# ---------------------------------------------------------------------------
# admissibility validation


@dataclass
class AdmissibilityReport:
    ok: bool
    min_det: float
    max_det: float
    min_det_location: tuple
    interface_margin: float
    boundary_fixed_defect: float
    initial_defect: float
    field_bounds: dict
    violations: list

    def summary(self):
        lines = [
            f"admissibility: {'PASS' if self.ok else 'FAIL'}",
            f"  det(F) in [{self.min_det:.6g}, {self.max_det:.6g}]",
            f"  worst interface distance to cell boundary: {self.interface_margin:.6g}",
            f"  boundary-fixed defect: {self.boundary_fixed_defect:.3e}",
            f"  t = 0 defect: {self.initial_defect:.3e}",
        ]
        for name, val in sorted(self.field_bounds.items()):
            lines.append(f"  sup |{name}| = {val:.6g}")
        for v in self.violations:
            lines.append(f"  violation: {v}")
        return "\n".join(lines)


def validate_admissibility(tr, grid=32, n_times=9, t_final=1.0) -> AdmissibilityReport:
    """Sample the transformation on a grid and check the standing assumptions.

    Violations are reported with locations, never raised.
    """
    d = tr.dim
    axes = [np.linspace(0.0, 1.0, grid) for _ in range(d)]
    Y = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    times = np.linspace(0.0, t_final, n_times)

    violations = []
    min_det, max_det = np.inf, -np.inf
    min_det_loc = None
    interface_margin = np.inf
    boundary_defect = 0.0
    sup = {k: 0.0 for k in ("F", "F_inv", "J", "v", "W", "H")}

    # interface sampling: points on the reference sphere
    rng = np.random.default_rng(0)
    if d == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        ring = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        ring = rng.normal(size=(128, 3))
        ring /= np.linalg.norm(ring, axis=1)[:, None]
    gamma = tr.center + tr.inclusion_radius * ring

    # the points within half the margin of the cell boundary; the boundary
    # points themselves at any margin
    near = np.min(np.minimum(Y, 1.0 - Y), axis=1) <= 0.5 * max(tr.boundary_margin, 0.0)

    initial_defect = 0.0
    for x in (np.full(d, 0.5), np.zeros(d), np.ones(d)):     # macro samples
        initial_defect = max(
            initial_defect, float(np.max(np.abs(tr.map_points(0.0, x, Y) - Y)))
        )
        for t in times:
            try:
                F, J, v = tr.kinematics_batch(t, x, Y)
            except InadmissibleTransformError as exc:
                violations.append(f"t={t:.4g}, x={x}: {exc}")
                continue
            imin = int(np.argmin(J))
            if J[imin] < min_det:
                min_det, min_det_loc = float(J[imin]), (float(t), tuple(x), tuple(Y[imin]))
            max_det = max(max_det, float(np.max(J)))
            sup["F"] = max(sup["F"], float(np.max(np.abs(F))))
            sup["F_inv"] = max(sup["F_inv"], float(np.max(np.abs(np.linalg.inv(F)))))
            sup["J"] = max(sup["J"], float(np.max(J)))
            sup["v"] = max(sup["v"], float(np.max(np.linalg.norm(v, axis=1))))

            mapped = tr.map_points(t, x, Y)
            boundary_defect = max(
                boundary_defect, float(np.max(np.abs(mapped[near] - Y[near])))
            )
            gmap = tr.map_points(t, x, gamma)
            interface_margin = min(
                interface_margin, float(np.min(np.minimum(gmap, 1.0 - gmap)))
            )
            try:
                n0 = (gamma - tr.center) / tr.inclusion_radius
                _, W, H, _, _ = interface_batch(tr, t, x, gamma, n0)
                sup["W"] = max(sup["W"], float(np.max(np.abs(W))))
                sup["H"] = max(sup["H"], float(np.max(np.abs(H))))
            except InadmissibleTransformError as exc:
                violations.append(f"t={t:.4g}, x={x}: interface: {exc}")

    c_lo, c_hi = tr.det_bounds
    if min_det < c_lo:
        violations.append(f"det(F) = {min_det:.4g} < {c_lo} at {min_det_loc}")
    if max_det > c_hi:
        violations.append(f"det(F) = {max_det:.4g} > {c_hi}")
    if interface_margin <= tr.boundary_margin:
        violations.append(
            f"deformed interface within {interface_margin:.4g} of the cell boundary"
        )
    if boundary_defect > 1e-12:
        violations.append(f"boundary points move by {boundary_defect:.3e}")
    if initial_defect > 1e-12:
        violations.append(f"map at t = 0 differs from identity by {initial_defect:.3e}")

    return AdmissibilityReport(
        ok=not violations,
        min_det=min_det,
        max_det=max_det,
        min_det_location=min_det_loc,
        interface_margin=interface_margin,
        boundary_fixed_defect=boundary_defect,
        initial_defect=initial_defect,
        field_bounds=sup,
        violations=violations,
    )
