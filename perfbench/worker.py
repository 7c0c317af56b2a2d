"""One repetition of one workload in a fresh process: set up, solve, check.

``run.py`` starts this file once per repetition::

    python3 perfbench/worker.py --config CFG --workload NAME --variant K \
        --steps N --trace 0|1 --run-id ID [--spans FILE]

It pins every BLAS/OpenMP pool to one thread before numpy is imported, drives
the same public calls as ``thermohom macro`` / ``thermohom micro`` and prints
one JSON object with the timings, the output-check verdicts and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import (
    MECH_RESIDUAL_MAX,
    REFERENCE_RTOL,
    ROOT,
    THREAD_VARS,
    WORKLOADS,
    import_program,
    load_reference,
)

PROBE_GRID = 9      # final fields are compared at the (i/8, j/8) grid vertices


class Progress:
    """What a repetition reached before it returned or raised."""

    def __init__(self, setups):
        self.setups = setups     # set-ups timed, the first one cold
        self.setup_s = []
        self.solve_s = None
        self.step_s = []
        self.t = 0.0
        self.dt = 0.0
        self.n_hosts = None
        self.peak_rss_mb = None


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_twoscale(th, cfg_path):
    """The objects ``thermohom macro`` builds before time stepping."""
    cfg = th.parse_config(cfg_path)
    cell = th.build_cell_mesh(cfg.radius, cfg.cell_resolution, dim=cfg.dimension)
    ctx = th.CellContext(cell, cfg.material(), cfg.transformation())
    provider = th.EffectiveProvider(
        ctx, sources=cfg.sources(), latent_in_source=cfg.latent_heat_in_weff,
        solver_tol=cfg.corrector_tol,
    )
    macro = th.build_uniform_mesh(cfg.macro_resolution, dim=cfg.dimension)
    return cfg, macro, th.TwoScaleSolver(macro, provider, cfg.settings())


def _setup_resolved(th, cfg_path):
    """The solver ``thermohom micro`` builds before time stepping."""
    cfg = th.parse_config(cfg_path)
    cell = th.build_cell_mesh(cfg.radius, cfg.cell_resolution, dim=cfg.dimension)
    return cfg, th.EpsilonSolver(cell, cfg.material(), cfg.transformation(),
                                 cfg.eps_list[0], settings=cfg.settings(),
                                 sources=cfg.sources(),
                                 latent_in_load=cfg.latent_heat_in_weff)


def _ready_twoscale(th, cfg_path):
    """Set up and initialize the state, without time stepping."""
    cfg, _, solver = _setup_twoscale(th, cfg_path)
    solver.run(0.0, cfg.dt, cfg.theta0_profile())


def _more_setups(progress, setup, *args):
    """Time the remaining set-ups of the repetition, each from scratch."""
    for _ in range(progress.setups - 1):
        start = time.perf_counter()
        setup(*args)
        progress.setup_s.append(time.perf_counter() - start)


def _twoscale(th, cfg_path, progress, tracer):
    """Set-up and time stepping as in ``thermohom macro``; set-up ends at the
    observer's t = 0 call, after ``init_state``."""
    start = time.perf_counter()
    cfg, macro, solver = _setup_twoscale(th, cfg_path)
    progress.dt = cfg.dt
    progress.n_hosts = solver.n_hosts
    last = [start]

    def observer(state):
        now = time.perf_counter()
        if not progress.setup_s:
            progress.setup_s.append(now - start)
        else:
            progress.step_s.append(now - last[0])
        last[0] = now
        progress.t = state.t

    states = solver.run(cfg.t_final, cfg.dt, cfg.theta0_profile(), observer=observer)
    progress.solve_s = time.perf_counter() - start - progress.setup_s[0]
    tracer.enabled = False
    progress.peak_rss_mb = _peak_rss_mb()
    _more_setups(progress, _ready_twoscale, th, cfg_path)

    problems = {}
    for k, state in enumerate(states[1:], start=1):
        found = []
        if not 1 <= state.fixed_point_iterations <= cfg.fixed_point_max_iter:
            found.append(f"fixed-point sweeps {state.fixed_point_iterations}")
        if not state.mech_residual < MECH_RESIDUAL_MAX:
            found.append(f"mech_residual {state.mech_residual:.3e} "
                         f">= {MECH_RESIDUAL_MAX:g}")
        if not (all(map(math.isfinite, state.theta)) and all(map(math.isfinite, state.u))):
            found.append("non-finite macro field")
        if found:
            problems[k] = (state.t, "twoscale.macro_step", "; ".join(found))
    final = {"theta": _probe(macro.vertices, states[-1].theta, 1),
             "u": _probe(macro.vertices, states[-1].u, cfg.dimension)}
    iters = {"twoscale": sum(s.fixed_point_iterations for s in states[1:])}
    return problems, final, iters


def _resolved(th, cfg_path, progress, tracer):
    """Set-up (the ``EpsilonSolver`` construction) and time stepping as in
    ``thermohom micro``."""
    start = time.perf_counter()
    cfg, solver = _setup_resolved(th, cfg_path)
    ready = time.perf_counter()
    progress.dt = cfg.dt
    progress.setup_s.append(ready - start)
    last = [ready]

    def observer(t, theta, u):
        now = time.perf_counter()
        progress.step_s.append(now - last[0])
        last[0] = now
        progress.t = t

    sol = solver.solve(cfg.t_final, cfg.dt, cfg.theta0_profile(), observer=observer)
    progress.solve_s = time.perf_counter() - ready
    tracer.enabled = False
    progress.peak_rss_mb = _peak_rss_mb()
    _more_setups(progress, _setup_resolved, th, cfg_path)

    problems = {}
    max_iter = cfg.fixed_point_max_iter
    for k, (t, theta, u) in enumerate(zip(sol.times[1:], sol.theta[1:], sol.u[1:]), start=1):
        found = []
        if not 1 <= sol.fixed_point_iterations[k - 1] <= max_iter:
            found.append(f"fixed-point sweeps {sol.fixed_point_iterations[k - 1]}")
        if not (all(map(math.isfinite, theta)) and all(map(math.isfinite, u))):
            found.append("non-finite field")
        if found:
            problems[k] = (t, "reference.solve", "; ".join(found))
    final = {"theta": _probe(sol.mesh.vertices, sol.theta[-1], 1),
             "u": _probe(sol.mesh.vertices, sol.u[-1], cfg.dimension),
             "norms": [float(v) for v in th.apriori_norm_bundle(sol).as_array()]}
    return problems, final, {"reference": sum(sol.fixed_point_iterations)}


def _probe(vertices, field, width):
    """Field values at the mesh vertices nearest to a fixed grid of points."""
    import numpy as np

    axis = np.linspace(0.0, 1.0, PROBE_GRID)
    d = vertices.shape[1]
    grid = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    nearest = [int(np.argmin(np.sum((vertices - p) ** 2, axis=1))) for p in grid]
    values = np.asarray(field).reshape(-1, width)[nearest]
    return [float(v) for v in values.ravel()]


def compare_final(final, reference):
    """Largest relative deviation (by max norm) of each stored quantity."""
    out = {}
    for key, ref in reference.items():
        got = final.get(key)
        if got is None or len(got) != len(ref):
            out[key] = math.inf
            continue
        scale = max(max(abs(r) for r in ref), 1e-300)
        out[key] = max(abs(g - r) for g, r in zip(got, ref)) / scale
    return out


def _layer_of(exc):
    """Innermost thermohom function on the traceback, as module.function."""
    layer = "perfbench"
    src = (ROOT / "src" / "thermohom").resolve()
    for frame in traceback.extract_tb(exc.__traceback__):
        path = Path(frame.filename).resolve()
        if path.parent == src:
            layer = f"{path.stem}.{frame.name}"
    return layer


def environment():
    import numpy as np
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(np.__config__.CONFIG),
        "blas_scipy": blas(scipy.__config__.CONFIG),
    }


def run_rep(cfg_path, workload, steps, trace=False, reference=None, run_id="",
            spans_path=None):
    """Run one repetition; every failure is recorded, none is raised."""
    th = import_program()
    kind = WORKLOADS[workload].kind
    progress = Progress(WORKLOADS[workload].setups)
    tracer = Tracer(run_id)
    problems = {}
    final = None
    iters = {}
    with tracer.installed() if trace else nullcontext():
        tracer.enabled = trace
        try:
            run = _twoscale if kind == "twoscale" else _resolved
            problems, final, iters = run(th, str(cfg_path), progress, tracer)
        except Exception as exc:  # a failed step is a result, not a crash
            tracer.enabled = False
            traceback.print_exc(file=sys.stderr)
            done = len(progress.step_s)
            first = min(done + 1, steps)
            for k in range(first, steps + 1):
                problems[k] = (progress.t + (k - done) * progress.dt, _layer_of(exc),
                               f"{type(exc).__name__}: {exc}" if k == first
                               else "not reached")
    deviation = {}
    if final is not None:
        if reference is None:
            problems.setdefault(steps, (progress.t, "output.final_state",
                                        "no stored reference for this seed"))
        else:
            deviation = compare_final(final, reference)
            bad = {k: v for k, v in deviation.items() if not v <= REFERENCE_RTOL}
            if bad:
                problems.setdefault(steps, (progress.t, "output.final_state", ", ".join(
                    f"{k} deviates by {v:.3e} > {REFERENCE_RTOL:g}" for k, v in bad.items())))
    result = {
        "workload": workload,
        "attempted": steps,
        "failed": len(problems),
        "failures": [f"{workload} t={t:.6g} layer={layer}: {msg}"
                     for _, (t, layer, msg) in sorted(problems.items())],
        "setup_s": progress.setup_s,
        "solve_s": progress.solve_s,
        "step_s": progress.step_s,
        "peak_rss_mb": progress.peak_rss_mb,
        "n_hosts": progress.n_hosts,
        "final": final,
        "deviation": deviation,
    }
    if trace:
        result["layers"] = layer_metrics(tracer, iters)
        result["layers"]["traced.solve_s"] = progress.solve_s
        result["trace_missing"] = tracer.missing
        if spans_path is not None:
            tracer.write_spans(spans_path)
    return result


def main(argv=None):
    for var in THREAD_VARS:
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--steps", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    result = run_rep(args.config, args.workload, args.steps, trace=bool(args.trace),
                     reference=load_reference(args.workload, args.variant),
                     run_id=args.run_id, spans_path=args.spans)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
