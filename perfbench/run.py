"""thermohom benchmark: end-to-end timings and traced per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]

The first form measures one workload.  It repeats the workload, each
repetition a fresh single-threaded process (``worker.py``), for about ``S``
seconds, and prints every metric by name with its unit and sample
count, the output-check verdicts and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer ones.
``attempted``/``failed`` count implicit-Euler steps; a step fails when it
raises or fails an output check.

The second form runs every workload untraced and then traced, and reports
the tracing overhead (traced minus untraced ``solve_s``) per workload.

Run it from anywhere; it uses the checkout that contains this directory and
exits with status 2, printing no result, when that checkout has no
``src/thermohom`` or ``configs/standard.cfg``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import (
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    STANDARD_CONFIG,
    THREAD_VARS,
    WORKLOADS,
    variant_of,
    write_config,
)

# stop starting repetitions once another one could end past this many seconds;
# a run must end within 180 s
RUN_LIMIT_S = 150.0


def _failed_rep(workload, steps, why):
    return {"workload": workload, "attempted": steps, "failed": steps,
            "failures": [f"{workload} layer=perfbench: {why}"]}


def run_child(workload, variant, steps, cfg_path, trace, run_id, timeout,
              spans_path=None):
    """One repetition in a fresh process with every thread pool pinned to 1."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--config", str(cfg_path),
           "--workload", workload, "--variant", str(variant), "--steps", str(steps),
           "--trace", str(int(trace)), "--run-id", run_id]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return _failed_rep(workload, steps, f"repetition exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return _failed_rep(workload, steps, f"worker exited with status {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return _failed_rep(workload, steps, "worker printed no result")


def measure(workload, seed, seconds, trace):
    """Repeat one workload, at least once, while another repetition would end
    within ``seconds`` plus half a repetition; returns the repetitions."""
    variant = variant_of(seed)
    cfg_path, steps = write_config(WORKLOADS[workload], variant)
    reps = []
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if reps and (elapsed + 0.5 * elapsed / len(reps) > seconds
                     or elapsed + longest > RUN_LIMIT_S):
            break
        began = time.monotonic()
        rep = len(reps)
        # one span file per workload and repetition, so later runs overwrite it
        spans = OUT_DIR / "spans" / f"{workload}-rep{rep}.jsonl" if trace else None
        if spans is not None:
            spans.parent.mkdir(parents=True, exist_ok=True)
        reps.append(run_child(workload, variant, steps, cfg_path, trace,
                              run_id=f"{workload}-seed{seed}-rep{rep}",
                              timeout=max(10.0, RUN_LIMIT_S + 20.0 - elapsed),
                              spans_path=spans))
        longest = max(longest, time.monotonic() - began)
    return reps


def _median(values):
    values = [v for v in values if v is not None]
    return (statistics.median(values), len(values)) if values else (None, 0)


def aggregate(reps, trace, bench):
    """name -> (value, unit, sample count) for every metric of the mode."""
    specs = bench["per_layer" if trace else "end_to_end"]
    if trace:
        samples = {s["name"]: [r["layers"][s["name"]] for r in reps if "layers" in r]
                   for s in specs}
    else:
        samples = {
            "setup_s": [t for r in reps for t in r.get("setup_s", [])],
            "solve_s": [r.get("solve_s") for r in reps],
            "step_s.p50": [t for r in reps for t in r.get("step_s", [])],
            "peak_rss_mb": [r.get("peak_rss_mb") for r in reps],
        }
    names = {s["name"] for s in specs}
    if set(samples) != names:
        raise KeyError(f"metrics computed {sorted(set(samples) ^ names)} "
                       "do not match BENCHMARK.json")
    return {s["name"]: (*_median(samples[s["name"]]), s["unit"]) for s in specs}


def report(workload, seed, trace, reps, bench, elapsed):
    """Print the metrics and verdicts of one run; returns the result object."""
    metrics = aggregate(reps, trace, bench)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    n_steps = sum(len(r.get("step_s", [])) for r in reps)
    print(f"# {workload} seed={seed} variant={variant_of(seed)} trace={int(trace)}: "
          f"{len(reps)} repetitions, {n_steps} steps timed, {elapsed:.1f} s")
    for name, (value, n, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name} = {shown} {unit} (n={n})")
    missing = sorted({m for r in reps for m in r.get("trace_missing", [])})
    if missing:
        print(f"# not traced (absent from the program): {', '.join(missing)}")
    for r in reps:
        for line in r.get("failures", []):
            print(f"FAIL seed={seed} {line}")
    deviation = {}
    for r in reps:
        for key, value in r.get("deviation", {}).items():
            deviation[key] = max(deviation.get(key, 0.0), value)
    verdict = "PASS" if failed == 0 else "FAIL"
    print(f"check {workload} seed={seed}: {verdict}, fail_ratio {failed}/{attempted} "
          f"steps; converged, mech_residual and final state vs stored values "
          f"(max relative deviation: "
          + ", ".join(f"{k} {v:.2e}" for k, v in sorted(deviation.items())) + ")")
    return {
        "correct": failed == 0 and all(v is not None for v, _, _ in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, _, unit) in metrics.items()},
    }


def run_one(workload, seed, seconds, trace, bench):
    start = time.monotonic()
    reps = measure(workload, seed, seconds, trace)
    env = next((r["env"] for r in reps if "env" in r), None)
    if env is not None:
        print("# env " + json.dumps(env, sort_keys=True))
    return report(workload, seed, trace, reps, bench, time.monotonic() - start)


def main(argv=None):
    # on SIGTERM unwind through subprocess.run, which kills the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(
        description="thermohom benchmark", epilog="see the module docstring")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = ROOT / "src" / "thermohom" / "__init__.py"
    if not program.is_file() or not STANDARD_CONFIG.is_file():
        print(f"perfbench: no thermohom checkout at {ROOT} "
              "(need src/thermohom and configs/standard.cfg)", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    if args.workload is not None:
        result = run_one(args.workload, args.seed, seconds, bool(args.trace), bench)
        print(json.dumps(result))
        return 0

    summary = {}
    for spec in bench["workloads"]:
        name = spec["name"]
        print(f"## {name}: {spec['why']}")
        untraced = run_one(name, args.seed, seconds, False, bench)
        traced = run_one(name, args.seed, seconds, True, bench)
        solve = untraced["metrics"]["solve_s"]["value"]
        traced_solve = traced["metrics"]["traced.solve_s"]["value"]
        overhead = None
        if solve is not None and traced_solve is not None:
            overhead = traced_solve - solve
            print(f"trace overhead {name} = {overhead:.4g} s "
                  f"({100.0 * overhead / solve:.1f} % of solve_s)")
        summary[name] = {"untraced": untraced, "traced": traced,
                         "trace_overhead_s": overhead}
    correct = all(s["untraced"]["correct"] and s["traced"]["correct"]
                  for s in summary.values())
    print(json.dumps({"correct": correct, "workloads": summary}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
