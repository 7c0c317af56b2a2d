"""Spans around the public functions of each thermohom layer, from outside.

The program imports functions by name, so one function can be bound in
several modules (``assemble_operator`` lives in ``fem`` and is bound again in
``cell``, ``twoscale`` and ``reference``).  ``Tracer.installed`` replaces
every such binding, patches the traced methods on their classes and the
sparse direct solvers on ``scipy.sparse.linalg``, and restores all of them on
exit.  Spans ``[name, start, end, parent]`` are kept in memory while the
tracer is enabled; ``layer_metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute) -> span name; a function is wrapped wherever it is bound
FUNCTIONS = {
    ("kinematics", "pullback_fields"): "kinematics.pullback",
    ("kinematics", "interface_batch"): "kinematics.interface",
    ("mesh", "build_cell_mesh"): "mesh.build",
    ("mesh", "build_uniform_mesh"): "mesh.build",
    ("mesh", "build_epsilon_mesh"): "mesh.build",
    ("mesh", "extract_phase_submesh"): "mesh.build",
    ("fem", "assemble_operator"): None,            # named by kind, see _assemble_name
    ("fem", "assemble_scalar_load"): "fem.load",
    ("fem", "assemble_vector_load"): "fem.load",
    ("fem", "assemble_gradient_load"): "fem.load",
    ("fem", "assemble_strain_load"): "fem.load",
    ("fem", "assemble_interface_load"): "fem.load",
    ("fem", "apply_constraints"): "fem.constraints",
    ("fem", "solve_spd"): "fem.cg",
    ("cell", "solve_correctors"): "cell.correctors",
}

# (module, class, method) -> span name
METHODS = {
    ("effective", "EffectiveProvider", "at"): "effective.at",
    ("twoscale", "TwoScaleSolver", "macro_step"): "twoscale.macro_step",
    ("twoscale", "TwoScaleSolver", "effective_fields"): "twoscale.effective_fields",
    ("twoscale", "TwoScaleSolver", "macro_operators"): "twoscale.macro_operators",
    ("twoscale", "TwoScaleSolver", "micro_sweep"): "twoscale.micro_sweep",
    ("twoscale", "MicroModel", "step"): "twoscale.micro_step",
    ("twoscale", "MicroModel", "bundle"): "twoscale.micro_bundle",
    ("reference", "EpsilonSolver", "bundle"): "reference.bundle",
    ("reference", "EpsilonSolver", "solve"): "reference.solve",
    ("reference", "EpsilonCoefficients", "surface_loads"): "reference.surface_loads",
}

SCIPY = {"splu": "fem.direct.factor", "spsolve": "fem.direct.spsolve"}

OPERATOR_KINDS = ("mass", "scalar_diffusion", "elasticity", "advection", "coupling")


def _assemble_name(args, kwargs):
    kind = args[1] if len(args) > 1 else kwargs["kind"]
    return f"fem.assemble.{kind}"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index or -1]
        self.enabled = False
        self.cg_iterations = 0
        self.cg_failed = 0
        self.missing = []        # targets this version of the program lacks
        self._stack = []

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            span = [name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def _counting_cg(self, fn, solver_error):
        tracer = self

        @functools.wraps(fn)
        def solve(*args, **kwargs):
            try:
                x, info = fn(*args, **kwargs)
            except solver_error:
                if tracer.enabled:
                    tracer.cg_failed += 1
                raise
            if tracer.enabled:
                tracer.cg_iterations += info.iterations
            return x, info

        return solve

    @contextmanager
    def installed(self):
        """Wrap every traced binding; restore the originals on exit."""
        import scipy.sparse.linalg as spla

        import thermohom  # noqa: F401  (loads every submodule)
        from thermohom import fem

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "thermohom" or n.startswith("thermohom."))]
        undo = []

        def rebind(original, replacement, extra=()):
            for owner in list(modules) + list(extra):
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        undo.append((owner, attr, value))
                        setattr(owner, attr, replacement)

        try:
            for (mod, attr), name in FUNCTIONS.items():
                original = getattr(sys.modules.get(f"thermohom.{mod}"), attr, None)
                if original is None:
                    self.missing.append(f"{mod}.{attr}")
                    continue
                fn = original
                if attr == "solve_spd":
                    fn = self._counting_cg(original, fem.SolverError)
                rebind(original, self._wrap(fn, name or _assemble_name))
            for (mod, cls_name, attr), name in METHODS.items():
                cls = getattr(sys.modules.get(f"thermohom.{mod}"), cls_name, None)
                original = cls.__dict__.get(attr) if cls is not None else None
                if original is None:
                    self.missing.append(f"{mod}.{cls_name}.{attr}")
                    continue
                undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, name))
            # every transformation family defines its own kinematics_batch
            kin = sys.modules["thermohom.kinematics"]
            for cls in [c for c in vars(kin).values() if isinstance(c, type)]:
                original = cls.__dict__.get("kinematics_batch")
                if original is not None:
                    undo.append((cls, "kinematics_batch", original))
                    setattr(cls, "kinematics_batch",
                            self._wrap(original, "kinematics.batch"))
            for attr, name in SCIPY.items():
                original = getattr(spla, attr)
                rebind(original, self._wrap(original, name), extra=(spla,))
            yield self
        finally:
            self.enabled = False
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def write_spans(self, path):
        """One JSON line per span: name, start, end, parent, run id."""
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps([name, start, end, parent, self.run_id]) + "\n")


def layer_metrics(tracer: Tracer, fixed_point_iters: dict):
    """Per-layer counts and times from the recorded spans.

    ``.s`` is inclusive time (spans nested in a span of the same name are not
    counted twice), ``.self_s`` subtracts the time covered by child spans.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    has_child = [False] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
            has_child[parent] = True

    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    corrector_misses = 0
    bundle_misses = 0
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child_time[i]
        nested = False
        inside_at = False
        p = parent
        while p >= 0:
            nested = nested or spans[p][0] == name
            inside_at = inside_at or spans[p][0] == "effective.at"
            p = spans[p][3]
        if not nested:
            incl[name] += end - start
        if name == "cell.correctors" and inside_at:
            corrector_misses += 1
        # a cache hit returns without calling into any traced layer
        if name == "twoscale.micro_bundle" and has_child[i]:
            bundle_misses += 1

    def hit_ratio(misses, total):
        return 1.0 - misses / total if total else 0.0

    m = {}
    for layer in ("pullback", "batch", "interface"):
        m[f"kinematics.{layer}.calls"] = calls[f"kinematics.{layer}"]
        m[f"kinematics.{layer}.self_s"] = self_s[f"kinematics.{layer}"]
    m["mesh.build.s"] = incl["mesh.build"]
    for kind in OPERATOR_KINDS:
        m[f"fem.assemble.{kind}.calls"] = calls[f"fem.assemble.{kind}"]
        m[f"fem.assemble.{kind}.self_s"] = self_s[f"fem.assemble.{kind}"]
    for layer in ("load", "constraints"):
        m[f"fem.{layer}.calls"] = calls[f"fem.{layer}"]
        m[f"fem.{layer}.self_s"] = self_s[f"fem.{layer}"]
    m["fem.cg.calls"] = calls["fem.cg"]
    m["fem.cg.iters"] = tracer.cg_iterations
    m["fem.cg.self_s"] = self_s["fem.cg"]
    m["fem.cg.failed"] = tracer.cg_failed
    for layer in ("factor", "spsolve"):
        m[f"fem.direct.{layer}.calls"] = calls[f"fem.direct.{layer}"]
        m[f"fem.direct.{layer}.s"] = incl[f"fem.direct.{layer}"]
    m["cell.correctors.calls"] = calls["cell.correctors"]
    m["cell.correctors.s"] = incl["cell.correctors"]
    m["effective.at.calls"] = calls["effective.at"]
    m["effective.at.s"] = incl["effective.at"]
    m["effective.miss"] = corrector_misses
    m["effective.hit_ratio"] = hit_ratio(corrector_misses, calls["effective.at"])
    m["twoscale.macro_step.calls"] = calls["twoscale.macro_step"]
    m["twoscale.macro_step.s"] = incl["twoscale.macro_step"]
    m["twoscale.macro_step.self_s"] = self_s["twoscale.macro_step"]
    m["twoscale.effective_fields.s"] = incl["twoscale.effective_fields"]
    m["twoscale.macro_operators.s"] = incl["twoscale.macro_operators"]
    m["twoscale.micro_sweep.calls"] = calls["twoscale.micro_sweep"]
    m["twoscale.micro_sweep.s"] = incl["twoscale.micro_sweep"]
    m["twoscale.micro_step.calls"] = calls["twoscale.micro_step"]
    m["twoscale.micro_step.self_s"] = self_s["twoscale.micro_step"]
    m["twoscale.micro_bundle.calls"] = calls["twoscale.micro_bundle"]
    m["twoscale.micro_bundle.miss"] = bundle_misses
    m["twoscale.micro_bundle.hit_ratio"] = hit_ratio(
        bundle_misses, calls["twoscale.micro_bundle"])
    m["twoscale.micro_bundle.s"] = incl["twoscale.micro_bundle"]
    m["twoscale.fixed_point_iters"] = fixed_point_iters.get("twoscale", 0)
    m["reference.bundle.calls"] = calls["reference.bundle"]
    m["reference.bundle.s"] = incl["reference.bundle"]
    m["reference.bundle.self_s"] = self_s["reference.bundle"]
    m["reference.surface_loads.s"] = incl["reference.surface_loads"]
    m["reference.solve.self_s"] = self_s["reference.solve"]
    m["reference.fixed_point_iters"] = fixed_point_iters.get("reference", 0)
    return m
