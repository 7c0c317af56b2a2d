"""Run configuration: a flat, sectioned key-value text format.

Grammar (one setting per line)::

    # comment
    [section]
    key = value

Sections and keys are fixed; unknown ones are rejected by name.  Values are
whitespace-separated scalars.  Fractions like ``1/2`` are accepted wherever a
real number is.  Sources are either constant ("0.0", or "0.0 0.0" for
vectors) or ``table PATH`` pointing at a two-column (time, value...) text
table interpolated piecewise-linearly in time.  The initial temperature is
``constant V`` or ``cosine BASE AMP K1 K2 [K3]`` meaning
``BASE + AMP * prod_i cos(K_i pi x_i)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .kinematics import (
    IdentityTransform,
    MaterialParams,
    PolynomialAmplitude,
    RadialGrowth,
    isotropic_stiffness,
)


class ConfigError(ValueError):
    pass


def _parse_real(token):
    if "/" in token:
        num, den = token.split("/")
        return float(num) / float(den)
    return float(token)


def _parse_bool(token):
    t = token.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {token!r}")


@dataclass
class RunConfig:
    # [run]
    dimension: int = 2
    radius: float = 0.25
    cell_resolution: int = 8
    macro_resolution: int = 8
    eps_list: tuple = (0.5, 0.25, 0.125)
    workers: int = 1            # accepted and validated; the solvers run serially
    # [transformation]
    family: str = "radial_growth"
    amplitude_poly: tuple = (0.0, 0.1)
    amplitude_x_slope: tuple = ()
    det_lower: float = 0.5
    det_upper: float = 2.0
    boundary_margin: float = 0.1
    validation_grid: int = 32
    table_path: str = ""
    # [material]
    lambda_a: float = 1.0
    mu_a: float = 1.0
    lambda_b: float = 1.0
    mu_b: float = 1.0
    conductivity_a: float = 1.0
    conductivity_b: float = 1.0
    expansion_a: float = 0.3
    expansion_b: float = 0.8
    dissipation_a: float = 0.15
    dissipation_b: float = 0.4
    density_a: float = 1.0
    density_b: float = 1.0
    heat_capacity_a: float = 1.0
    heat_capacity_b: float = 1.0
    surface_tension: float = 0.05
    latent_heat: float = 0.1
    # [time]
    t_final: float = 0.5
    dt: float = 0.05
    # [tolerances]
    fixed_point_tol: float = 1e-8
    fixed_point_max_iter: int = 50
    corrector_tol: float = 1e-10
    # [sources]
    f_u_a: str = "0.0 0.0"
    f_u_b: str = "0.0 0.0"
    f_theta_a: str = "0.0"
    f_theta_b: str = "0.0"
    theta0: str = "constant 0.0"
    # [flags]
    latent_heat_in_weff: bool = True
    latent_heat_sign: float = 1.0
    micro_per_element: bool = False
    vtk: bool = False
    # [output]
    directory: str = "out"

    # -- validation ----------------------------------------------------------

    def validate(self):
        if self.dimension not in (2, 3):
            raise ConfigError("dimension must be 2 or 3")
        if not 0.0 < self.radius < 0.5:
            raise ConfigError("radius must lie strictly between 0 and 0.5")
        if self.boundary_margin < 0.0:
            raise ConfigError("boundary_margin must not be negative")
        if self.radius + self.boundary_margin >= 0.5:
            raise ConfigError("radius plus boundary_margin must stay below 0.5")
        if not 0.0 < self.det_lower <= 1.0 <= self.det_upper:
            raise ConfigError("det bounds must satisfy 0 < det_lower <= 1 <= det_upper")
        for name in ("fixed_point_tol", "corrector_tol", "dt"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        for name in ("cell_resolution", "macro_resolution", "fixed_point_max_iter",
                     "validation_grid"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.t_final < 0.0:
            raise ConfigError("t_final must not be negative")
        if self.dt > self.t_final and self.t_final > 0.0:
            raise ConfigError("dt must not exceed t_final")
        if not self.eps_list:
            raise ConfigError("eps_list must not be empty")
        for eps in self.eps_list:
            if not 0.0 < eps <= 1.0 or abs(round(1.0 / eps) - 1.0 / eps) > 1e-9:
                raise ConfigError(f"eps must be 1/n for an integer n >= 1, got eps = {eps}")
        if len(self.amplitude_x_slope) not in (0, self.dimension):
            raise ConfigError(f"amplitude_x_slope needs 0 or dimension = {self.dimension} "
                              f"values, got {len(self.amplitude_x_slope)}")
        if self.family not in ("identity", "radial_growth", "tabulated"):
            raise ConfigError(f"unknown transformation family {self.family!r}")
        if self.family == "radial_growth" and (not self.amplitude_poly
                                               or self.amplitude_poly[0] != 0.0):
            raise ConfigError("amplitude_poly needs a constant term of 0, so that the "
                              f"amplitude vanishes at t = 0, got {list(self.amplitude_poly)}")
        if self.family == "tabulated" and not self.table_path:
            raise ConfigError("tabulated transformation requires table_path")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        self.theta0_profile()  # raises on malformed spec
        return self

    # -- derived objects -------------------------------------------------------

    def material(self) -> MaterialParams:
        d = self.dimension
        return MaterialParams(
            dim=d,
            stiffness_a=isotropic_stiffness(self.lambda_a, self.mu_a, d),
            stiffness_b=isotropic_stiffness(self.lambda_b, self.mu_b, d),
            conductivity_a=self.conductivity_a * np.eye(d),
            conductivity_b=self.conductivity_b * np.eye(d),
            expansion_a=self.expansion_a,
            expansion_b=self.expansion_b,
            dissipation_a=self.dissipation_a,
            dissipation_b=self.dissipation_b,
            density_a=self.density_a,
            density_b=self.density_b,
            heat_capacity_a=self.heat_capacity_a,
            heat_capacity_b=self.heat_capacity_b,
            surface_tension=self.surface_tension,
            latent_heat=self.latent_heat,
        )

    def transformation(self):
        d = self.dimension
        if self.family == "identity":
            return IdentityTransform(
                dim=d, inclusion_radius=self.radius,
                det_bounds=(self.det_lower, self.det_upper),
                boundary_margin=self.boundary_margin,
            )
        if self.family == "radial_growth":
            return RadialGrowth(
                dim=d, inclusion_radius=self.radius,
                amplitude=PolynomialAmplitude(tuple(self.amplitude_poly),
                                              tuple(self.amplitude_x_slope)),
                det_bounds=(self.det_lower, self.det_upper),
                boundary_margin=self.boundary_margin,
            )
        table = load_transformation_table(
            self.table_path, inclusion_radius=self.radius,
            det_bounds=(self.det_lower, self.det_upper),
            boundary_margin=self.boundary_margin,
        )
        if table.dim != d:
            raise ConfigError(f"transformation table {self.table_path}: dimension "
                              f"{table.dim} does not match [run] dimension = {d}")
        return table

    def _source(self, text, size):
        tokens = text.split()
        if tokens and tokens[0] == "table":
            if len(tokens) != 2:
                raise ConfigError("table source needs exactly one path")
            return TableSource.load(tokens[1], size)
        vals = np.array([_parse_real(t) for t in tokens])
        if len(vals) != size:
            raise ConfigError(f"source needs {size} components, got {len(vals)}")
        return lambda t: vals

    def sources(self):
        d = self.dimension
        f_u_a = self._source(self.f_u_a, d)
        f_u_b = self._source(self.f_u_b, d)
        f_th_a = self._source(self.f_theta_a, 1)
        f_th_b = self._source(self.f_theta_b, 1)
        return lambda t: (f_u_a(t), f_u_b(t), float(f_th_a(t)[0]),
                          float(f_th_b(t)[0]))

    def theta0_profile(self):
        tokens = self.theta0.split()
        if not tokens:
            raise ConfigError("theta0 must not be empty")
        kind = tokens[0]
        vals = [_parse_real(t) for t in tokens[1:]]
        if kind == "constant":
            if len(vals) != 1:
                raise ConfigError("theta0 constant takes one value")
            c = vals[0]
            return lambda x: np.full(len(x), c)
        if kind == "cosine":
            if len(vals) != 2 + self.dimension:
                raise ConfigError(
                    f"theta0 cosine takes base, amplitude and {self.dimension} "
                    "wave numbers")
            base, amp, ks = vals[0], vals[1], vals[2:]

            def profile(x):
                out = np.full(len(x), 1.0)
                for i, k in enumerate(ks):
                    out = out * np.cos(k * np.pi * x[:, i])
                return base + amp * out

            return profile
        raise ConfigError(f"unknown theta0 profile {kind!r}")

    def settings(self):
        from .twoscale import SolverSettings

        return SolverSettings(
            fixed_point_tol=self.fixed_point_tol,
            fixed_point_max_iter=self.fixed_point_max_iter,
            latent_sign=self.latent_heat_sign,
            micro_per_element=self.micro_per_element,
        )

    # -- canonical form ---------------------------------------------------------

    def canonical_text(self):
        """Normalized settings listing; the worker count is excluded, as it
        does not enter any computation."""
        lines = []
        for f in sorted(dc_fields(self), key=lambda f: f.name):
            if f.name in ("workers", "directory"):
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = " ".join(format(v, ".17g") if isinstance(v, float) else str(v)
                                 for v in value)
            elif isinstance(value, float):
                value = format(value, ".17g")
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    def config_hash(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


class TableSource:
    """Piecewise-linear time table of a (possibly vector-valued) source."""

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.atleast_2d(np.asarray(values, dtype=float))

    @classmethod
    def load(cls, path, size):
        with open(path) as f:
            rows = [line.split("#", 1)[0].split() for line in f]
        rows = [row for row in rows if row]
        if not rows or any(len(row) != size + 1 for row in rows):
            raise ConfigError(
                f"source table {path} needs {size + 1} columns (t, values) in every row")
        try:
            rows = np.array([[float(x) for x in row] for row in rows])
        except ValueError as exc:
            raise ConfigError(f"source table {path}: {exc}") from None
        if np.any(np.diff(rows[:, 0]) <= 0.0):
            raise ConfigError(f"source table {path}: times must increase strictly")
        return cls(rows[:, 0], rows[:, 1:])

    def __call__(self, t):
        t = float(np.clip(t, self.times[0], self.times[-1]))
        return np.array([np.interp(t, self.times, column) for column in self.values.T])


# ---------------------------------------------------------------------------
# parsing


_SECTIONS = {
    "run": ("dimension", "radius", "cell_resolution", "macro_resolution",
            "eps_list", "workers"),
    "transformation": ("family", "amplitude_poly", "amplitude_x_slope",
                       "det_lower", "det_upper", "boundary_margin",
                       "validation_grid", "table_path"),
    "material": ("lambda_a", "mu_a", "lambda_b", "mu_b", "conductivity_a",
                 "conductivity_b", "expansion_a", "expansion_b",
                 "dissipation_a", "dissipation_b", "density_a", "density_b",
                 "heat_capacity_a", "heat_capacity_b", "surface_tension",
                 "latent_heat"),
    "time": ("t_final", "dt"),
    "tolerances": ("fixed_point_tol", "fixed_point_max_iter", "corrector_tol"),
    "sources": ("f_u_a", "f_u_b", "f_theta_a", "f_theta_b", "theta0"),
    "flags": ("latent_heat_in_weff", "latent_heat_sign", "micro_per_element",
              "vtk"),
    "output": ("directory",),
}

# a key's value type is the type of its RunConfig default
_CONVERT = {bool: _parse_bool, int: int, float: _parse_real, str: str,
            tuple: lambda text: tuple(_parse_real(tok) for tok in text.split())}


def parse_config(path) -> RunConfig:
    cfg = RunConfig()
    section = None
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            where = f"{path}: line {lineno}"
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in _SECTIONS:
                    raise ConfigError(f"{where}: unknown section [{section}]")
                continue
            if "=" not in line:
                raise ConfigError(f"{where}: expected 'key = value'")
            if section is None:
                raise ConfigError(f"{where}: setting outside any section")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _SECTIONS[section]:
                raise ConfigError(f"{where}: unknown key {key!r} in section [{section}]")
            try:
                setattr(cfg, key, _CONVERT[type(getattr(RunConfig, key))](value))
            except Exception as exc:
                raise ConfigError(f"{where}: invalid value for {key!r}: {exc}")
    try:
        cfg.validate()
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}")
    return cfg


# ---------------------------------------------------------------------------
# tabulated transformation file format: header "d n_t n_x grid_n", then n_t
# times, n_x anchor lines (d coords), then for each (time, anchor) block
# grid_n^d rows of d values (row-major over the cell lattice)


def load_transformation_table(path, **kwargs):
    from .kinematics import TabulatedTransform

    with open(path) as f:
        tokens = f.read().split()
    try:
        d, n_t, n_x, grid_n = (int(token) for token in tokens[:4])
        data = np.array([float(token) for token in tokens[4:]])
    except ValueError as exc:    # a bad token, or a header of fewer than 4
        raise ConfigError(f"transformation table {path}: {exc}") from None
    sizes = [n_t, n_x * d, n_t * n_x * grid_n**d * d]
    if len(data) != sum(sizes):
        which = "few" if len(data) < sum(sizes) else "many"
        raise ConfigError(f"transformation table {path}: too {which} values after the "
                          f"header {d} {n_t} {n_x} {grid_n}: {len(data)}, expected {sum(sizes)}")
    times, anchors, values = np.split(data, np.cumsum(sizes)[:2])
    try:
        return TabulatedTransform(d, times, anchors.reshape(n_x, d), grid_n,
                                  values.reshape(n_t, n_x, grid_n**d, d), **kwargs)
    except ValueError as exc:    # no times or anchors, a bad lattice, times out of order
        raise ConfigError(f"transformation table {path}: {exc}") from None


def save_transformation_table(path, transformation, times, anchors, grid_n):
    d = transformation.dim
    axes = [np.linspace(0.0, 1.0, grid_n)] * d
    Y = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    with open(path, "w") as f:
        f.write(f"{d} {len(times)} {len(anchors)} {grid_n}\n")
        f.write(" ".join(format(t, ".17g") for t in times) + "\n")
        for a in anchors:
            f.write(" ".join(format(c, ".17g") for c in a) + "\n")
        for t in times:
            for a in anchors:
                s = transformation.map_points(t, np.asarray(a), Y)
                for row in s:
                    f.write(" ".join(format(v, ".17g") for v in row) + "\n")
