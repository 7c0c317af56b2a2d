"""Self-test of the benchmark harness at tiny size.

    python3 -m pytest -q perfbench

Checks that every metric named in BENCHMARK.json is emitted, that the exact
count identities between layers hold, that the output checks catch a wrong
final state, that the seeded variants stay admissible and keep the work of
their workload, and that the launcher refuses a directory without the
program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from run import aggregate
from workloads import (
    N_VARIANTS,
    ROOT,
    STANDARD_CONFIG,
    WORKLOADS,
    import_program,
    load_reference,
    write_config,
)
from worker import run_rep

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_DIR = ROOT / "perfbench" / "out" / "selftest"


def test_benchmark_json_names_the_harness_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seeded_variants(name):
    th = import_program()
    from thermohom.fem import P1Space

    workload = WORKLOADS[name]
    base = th.parse_config(STANDARD_CONFIG)
    for variant in range(N_VARIANTS):
        path, steps = write_config(workload, variant, out_dir=TINY_DIR)
        cfg = th.parse_config(path)
        assert cfg.t_final == pytest.approx(steps * cfg.dt)
        assert load_reference(name, variant) is not None
        tr = cfg.transformation()
        report = th.validate_admissibility(tr, grid=cfg.validation_grid,
                                           t_final=cfg.t_final)
        assert report.ok, report.summary()
        changed = {f for f in vars(cfg) if getattr(cfg, f) != getattr(base, f)}
        allowed = {"t_final", "amplitude_x_slope", "eps_list"}
        if variant == 0:
            assert changed <= allowed
            assert cfg.amplitude_x_slope == workload.slope
        else:
            assert changed <= allowed | {"theta0"}
        if workload.kind == "twoscale":
            hosts = P1Space(th.build_uniform_mesh(cfg.macro_resolution)).qpoints
            keys = {tr.sample_key(cfg.dt, x) for x in hosts.reshape(-1, cfg.dimension)}
            assert len(keys) == (129 if workload.slope else 1)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_metric_and_count_identities(name):
    th = import_program()
    original = th.fem.assemble_operator
    path, steps = write_config(WORKLOADS[name], 3, tiny=True, out_dir=TINY_DIR)

    first = run_rep(path, name, steps)
    assert [f for f in first["failures"] if "no stored reference" not in f] == []
    reference = first["final"]
    untraced = run_rep(path, name, steps, reference=reference)
    traced = run_rep(path, name, steps, trace=True, reference=reference)
    assert untraced["failures"] == [] and traced["failures"] == []
    assert th.fem.assemble_operator is original      # tracing was undone

    for trace, rep in ((False, untraced), (True, traced)):
        metrics = aggregate([rep], trace, BENCH)
        specs = BENCH["per_layer" if trace else "end_to_end"]
        assert list(metrics) == [m["name"] for m in specs]
        assert all(value is not None for value, _, _ in metrics.values())
    assert len(untraced["setup_s"]) == WORKLOADS[name].setups
    assert min(untraced["setup_s"]) > 0 and untraced["solve_s"] > 0
    assert untraced["peak_rss_mb"] > 0

    m = traced["layers"]
    assert traced["trace_missing"] == []
    assert m["fem.cg.failed"] == 0
    if WORKLOADS[name].kind == "twoscale":
        assert m["twoscale.micro_sweep.calls"] == m["twoscale.fixed_point_iters"] > 0
        assert m["twoscale.micro_step.calls"] == (
            traced["n_hosts"] * m["twoscale.micro_sweep.calls"])
        assert m["twoscale.macro_step.calls"] == steps
        assert m["effective.at.calls"] > 0
        others = [k for k in m if k.startswith("reference.")]
    else:
        assert m["fem.direct.spsolve.calls"] == m["reference.fixed_point_iters"] > 0
        assert m["fem.direct.factor.calls"] == steps + 1
        others = [k for k in m if k.startswith(("twoscale.", "effective."))]
    assert others and all(m[k] == 0 for k in others)

    wrong = {key: [v * (1.0 + 1e-5) + 1e-5 for v in values]
             for key, values in reference.items()}
    checked = run_rep(path, name, steps, reference=wrong)
    assert checked["failed"] == 1
    assert "layer=output.final_state" in checked["failures"][0]


def test_launcher_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "growth2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
