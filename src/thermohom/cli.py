"""Command-line front end: ``thermohom <subcommand> --config FILE``.

Subcommands: ``cell`` (corrector solve + VTK), ``effective`` (coefficient
table), ``macro`` (homogenized two-scale run), ``micro`` (resolved run at the
first eps), ``compare`` (resolved vs homogenized sweep), ``checks``
(admissibility, mesh quality, operator structure).  Every artifact directory
receives a manifest with the config hash; reruns with equal manifests are
byte-identical.  ``--workers`` is accepted and validated, but every solve
runs serially.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

import numpy as np

from .cell import CellContext
from .config import ConfigError, parse_config
from .effective import EffectiveProvider, tabulate_effective
from .kinematics import validate_admissibility
from .mesh import build_cell_mesh, build_uniform_mesh, mesh_quality, write_vtk
from .output import ensure_dir, fmt, write_csv, write_manifest
from .reference import (
    EpsilonSolver,
    NormBundle,
    apriori_norm_bundle,
    operator_structure_checks,
    two_scale_compare,
)
from .twoscale import TwoScaleSolver, diagnostics_header, diagnostics_row, time_levels


def _build_provider(cfg):
    cell = build_cell_mesh(cfg.radius, cfg.cell_resolution, dim=cfg.dimension)
    ctx = CellContext(cell, cfg.material(), cfg.transformation())
    provider = EffectiveProvider(
        ctx, sources=cfg.sources(), latent_in_source=cfg.latent_heat_in_weff,
        solver_tol=cfg.corrector_tol,
    )
    return cell, ctx, provider


def _sample_points(cfg):
    return [np.array(p) for p in itertools.product((0.25, 0.5, 0.75), repeat=cfg.dimension)]


def cmd_cell(cfg, out):
    _, ctx, provider = _build_provider(cfg)
    cors = provider.correctors(0.0, np.full(cfg.dimension, 0.5))
    point_data = {}
    d = cfg.dimension
    for j in range(d):
        point_data[f"flux_corrector_{j}"] = cors.thermal[j]
    for (j, k), tau in sorted(cors.mechanical.items()):
        point_data[f"strain_corrector_{j}{k}"] = tau.reshape(-1, d)
    point_data["expansion_corrector"] = cors.thermal_stress.reshape(-1, d)
    write_vtk(os.path.join(out, "correctors.vtk"), ctx.sub_a.mesh,
              point_data=point_data, title="cell correctors")
    rows = [[key if isinstance(key, str) else "_".join(map(str, key)), res]
            for key, res in sorted(cors.residuals.items(), key=lambda kv: str(kv[0]))]
    write_csv(os.path.join(out, "corrector_residuals.csv"),
              ["problem", "relative_residual"], rows)
    write_manifest(os.path.join(out, "manifest.json"), cfg, "cell")
    return 0


def cmd_effective(cfg, out):
    _, _, provider = _build_provider(cfg)
    header, rows = tabulate_effective(provider, time_levels(cfg.t_final, cfg.dt),
                                      _sample_points(cfg))
    write_csv(os.path.join(out, "effective.csv"), header, rows)
    write_manifest(os.path.join(out, "manifest.json"), cfg, "effective",
                   extras={"rows": len(rows)})
    return 0


def cmd_macro(cfg, out):
    _, _, provider = _build_provider(cfg)
    macro = build_uniform_mesh(cfg.macro_resolution, dim=cfg.dimension)
    solver = TwoScaleSolver(macro, provider, cfg.settings())
    rows = []

    def observer(state):
        rows.append(diagnostics_row(solver, state))
        if cfg.vtk:
            step = len(rows) - 1
            write_vtk(os.path.join(out, f"macro_{step:04d}.vtk"), macro,
                      point_data={"temperature": state.theta,
                                  "deformation": state.u.reshape(-1, cfg.dimension)})

    solver.run(cfg.t_final, cfg.dt, cfg.theta0_profile(), observer=observer)
    write_csv(os.path.join(out, "diagnostics.csv"),
              diagnostics_header(cfg.dimension), rows)
    write_manifest(os.path.join(out, "manifest.json"), cfg, "macro",
                   extras={"steps": len(rows) - 1})
    return 0


def cmd_micro(cfg, out):
    cell = build_cell_mesh(cfg.radius, cfg.cell_resolution, dim=cfg.dimension)
    eps = cfg.eps_list[0]
    solver = EpsilonSolver(cell, cfg.material(), cfg.transformation(), eps,
                           settings=cfg.settings(), sources=cfg.sources(),
                           latent_in_load=cfg.latent_heat_in_weff)
    sol = solver.solve(cfg.t_final, cfg.dt, cfg.theta0_profile())
    bundle = apriori_norm_bundle(sol)
    write_csv(os.path.join(out, "norm_bundle.csv"),
              ["eps"] + list(NormBundle.names),
              [[eps] + list(bundle.as_array())])
    if cfg.vtk:
        write_vtk(os.path.join(out, "resolved_final.vtk"), sol.mesh,
                  point_data={"temperature": sol.theta[-1],
                              "deformation": sol.u[-1].reshape(-1, cfg.dimension)})
    write_manifest(os.path.join(out, "manifest.json"), cfg, "micro",
                   extras={"eps": fmt(eps), "steps": len(sol.times) - 1})
    return 0


def cmd_compare(cfg, out):
    cell = build_cell_mesh(cfg.radius, cfg.cell_resolution, dim=cfg.dimension)
    rows = two_scale_compare(
        cell, cfg.material(), cfg.transformation(), list(cfg.eps_list),
        cfg.t_final, cfg.dt, cfg.theta0_profile(),
        macro_resolution=cfg.macro_resolution, settings=cfg.settings(),
        sources=cfg.sources(), latent_in_load=cfg.latent_heat_in_weff,
        solver_tol=cfg.corrector_tol,
    )
    write_csv(os.path.join(out, "compare.csv"),
              ["eps", "error_matrix", "error_inclusion", "interp_floor"],
              [[r.eps, r.error_matrix, r.error_inclusion, r.interp_floor]
               for r in rows])
    write_manifest(os.path.join(out, "manifest.json"), cfg, "compare",
                   extras={"eps_list": [fmt(e) for e in cfg.eps_list]})
    return 0


def cmd_checks(cfg, out):
    cell = build_cell_mesh(cfg.radius, cfg.cell_resolution, dim=cfg.dimension)
    transformation = cfg.transformation()
    report_lines = []
    ok = True

    adm = validate_admissibility(transformation, grid=cfg.validation_grid,
                                 t_final=max(cfg.t_final, 1e-9))
    report_lines.append(adm.summary())
    ok = ok and adm.ok

    quality = mesh_quality(cell)
    report_lines.append(quality.summary())
    ok = ok and quality.positively_oriented and not quality.degenerate_cells

    for eps in cfg.eps_list:
        rep = operator_structure_checks(
            cell, cfg.material(), transformation, eps,
            t_samples=(0.0, 0.5 * cfg.t_final, cfg.t_final) if cfg.t_final > 0
            else (0.0,),
        )
        report_lines.append(rep.summary())
        ok = ok and rep.passed

    text = "\n\n".join(report_lines) + "\n\nall checks: " + ("PASS" if ok else "FAIL") + "\n"
    with open(os.path.join(out, "checks.txt"), "w", newline="\n") as f:
        f.write(text)
    sys.stdout.write(text)
    write_manifest(os.path.join(out, "manifest.json"), cfg, "checks",
                   extras={"passed": ok})
    return 0 if ok else 1


_COMMANDS = {
    "cell": cmd_cell,
    "effective": cmd_effective,
    "macro": cmd_macro,
    "micro": cmd_micro,
    "compare": cmd_compare,
    "checks": cmd_checks,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="thermohom",
        description="Two-scale thermoelasticity solvers for periodic media "
                    "with prescribed phase growth.",
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--workers", type=int, default=None,
                        help="accepted for compatibility; the solvers run serially")
    parser.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"thermohom: {exc}", file=sys.stderr)
        return 1
    if args.workers is not None:
        if args.workers < 1:
            print("thermohom: workers must be at least 1", file=sys.stderr)
            return 1
        cfg.workers = args.workers
    out = ensure_dir(args.out if args.out is not None else cfg.directory)

    try:
        return _COMMANDS[args.subcommand](cfg, out)
    except Exception as exc:
        print(f"thermohom {args.subcommand}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
