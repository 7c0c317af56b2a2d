"""Workload definitions and seeded configuration files for the benchmark.

Every workload starts from ``configs/standard.cfg`` of the checkout under
test and edits a few settings; the solver only ever sees the generated file.
Seed 0 keeps the physics of the configuration exactly.  Other seeds pick one
of ``N_VARIANTS`` perturbations of the initial temperature (amplitude and
wave numbers) and, on graded2d, of the slope magnitude.  The perturbations
are small enough that every variant runs the same number of fixed-point
sweeps and, on graded2d, the same 129 sample keys per time level; they
change the numbers, not the amount of work.

This module imports nothing outside the standard library, so the launcher
can use it before the thread settings are pinned.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"
STANDARD_CONFIG = ROOT / "configs" / "standard.cfg"

# seeds map onto this many stored variants per workload (seed % N_VARIANTS)
N_VARIANTS = 8
# relative tolerance of the final-state comparison against the stored values;
# far above reordering round-off and above the fixed_point_tol-sized drift of
# an exact per-step solve
REFERENCE_RTOL = 1e-6
MECH_RESIDUAL_MAX = 1e-9
# relative half-width of the seeded perturbations
SPREAD = 0.05

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "twoscale" or "resolved"
    steps: int                     # implicit-Euler steps per repetition
    setups: int = 1                # set-ups timed per repetition
    settings: dict = field(default_factory=dict)   # (section, key) -> value
    slope: tuple = ()              # amplitude_x_slope, scaled by the seed


WORKLOADS = {
    w.name: w for w in (
        Workload("growth2d", "twoscale", steps=2, setups=5),
        Workload("graded2d", "twoscale", steps=1, slope=(0.5, 0.25)),
        Workload("resolved2d", "resolved", steps=6, setups=5,
                 settings={("run", "eps_list"): "1/8"}),
    )
}

# the self-test shrinks every workload to this size
TINY = {("run", "macro_resolution"): "2"}
TINY_EPS = "1/2"


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import thermohom from the checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "thermohom" / "__init__.py").is_file():
        raise ProgramMissing(f"no thermohom sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import thermohom

    if Path(thermohom.__file__).resolve().parent != (src / "thermohom").resolve():
        raise ProgramMissing(f"thermohom imported from {thermohom.__file__}")
    return thermohom


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def _setting(text, section, key):
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
        elif current == section and "=" in line:
            k, v = (p.strip() for p in line.split("=", 1))
            if k == key:
                return v
    raise KeyError(f"[{section}] {key} missing from the base configuration")


def edit_config(text, settings):
    """Replace or add ``key = value`` lines, section by section."""
    out, done, section = [], set(), None

    def add_missing(sec):
        blank = []
        while out and not out[-1].strip():
            blank.append(out.pop())
        for (s, k), v in settings.items():
            if s == sec and (s, k) not in done:
                out.append(f"{k} = {v}")
                done.add((s, k))
        out.extend(blank)

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            add_missing(section)
            section = line[1:-1].strip()
        elif "=" in line and (section, line.split("=", 1)[0].strip()) in settings:
            key = line.split("=", 1)[0].strip()
            out.append(f"{key} = {settings[(section, key)]}")
            done.add((section, key))
            continue
        out.append(raw)
    add_missing(section)
    missing = set(settings) - done
    if missing:
        raise KeyError(f"sections missing from the base configuration: {sorted(missing)}")
    return "\n".join(out) + "\n"


def _fmt(x):
    return format(x, ".17g")


def config_settings(workload: Workload, variant: int, base_text: str, tiny=False):
    """Every setting the generated configuration changes."""
    steps = 1 if tiny else workload.steps
    dt = float(_setting(base_text, "time", "dt"))
    settings = {("run", "workers"): "1", ("time", "t_final"): _fmt(steps * dt)}
    settings.update(workload.settings)
    slope = workload.slope
    if variant:
        rng = random.Random(f"{workload.name}/{variant}")
        shape, base, amp, *waves = _setting(base_text, "sources", "theta0").split()
        if shape != "cosine":
            raise ValueError("seeded variants perturb a cosine theta0 profile")

        def jitter(v):
            return float(v) * (1.0 + SPREAD * (2.0 * rng.random() - 1.0))

        amp, waves = jitter(amp), [jitter(k) for k in waves]
        settings[("sources", "theta0")] = " ".join(
            ["cosine", base, _fmt(amp)] + [_fmt(k) for k in waves])
        scale = 1.0 + SPREAD * (2.0 * rng.random() - 1.0)
        # scaling keeps the direction, hence the number of sample keys
        slope = tuple(scale * s for s in slope)
    if slope:
        settings[("transformation", "amplitude_x_slope")] = " ".join(map(_fmt, slope))
    if tiny:
        settings.update(TINY)
        if workload.kind == "resolved":
            settings[("run", "eps_list")] = TINY_EPS
    return settings, steps


def write_config(workload: Workload, variant: int, tiny=False, out_dir=OUT_DIR):
    """Generate the configuration file; returns (path, steps)."""
    base = STANDARD_CONFIG.read_text()
    settings, steps = config_settings(workload, variant, base, tiny=tiny)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = "tiny" if tiny else f"v{variant}"
    path = out_dir / f"{workload.name}-{tag}.cfg"
    path.write_text(edit_config(base, settings))
    return path, steps


def load_reference(workload: str, variant: int):
    if not REFERENCES.is_file():
        return None
    return json.loads(REFERENCES.read_text()).get(workload, {}).get(str(variant))
