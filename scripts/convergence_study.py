#!/usr/bin/env python3
"""Resolved-vs-homogenized temperature error sweep over the cell size.

Runs the comparison for a configuration file over its eps list and prints the
error table together with the observed reduction factors.  A thin wrapper
around the library; `thermohom compare` produces the same numbers as CSV.
"""

import argparse

from thermohom.config import parse_config
from thermohom.mesh import build_cell_mesh
from thermohom.reference import two_scale_compare


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="configs/decoupled.cfg")
    args = parser.parse_args()
    cfg = parse_config(args.config)

    cell = build_cell_mesh(cfg.radius, cfg.cell_resolution, dim=cfg.dimension)
    rows = two_scale_compare(
        cell, cfg.material(), cfg.transformation(), list(cfg.eps_list),
        cfg.t_final, cfg.dt, cfg.theta0_profile(),
        macro_resolution=cfg.macro_resolution, settings=cfg.settings(),
        sources=cfg.sources(), latent_in_load=cfg.latent_heat_in_weff,
        solver_tol=cfg.corrector_tol,
    )
    print(f"{'eps':>8} {'matrix error':>14} {'inclusion error':>16} "
          f"{'interp floor':>13}")
    for row in rows:
        print(f"{row.eps:>8g} {row.error_matrix:>14.6e} "
              f"{row.error_inclusion:>16.6e} {row.interp_floor:>13.3e}")
    for a, b in zip(rows, rows[1:]):
        print(f"reduction {a.eps:g} -> {b.eps:g}: "
              f"matrix x{a.error_matrix / b.error_matrix:.2f}, "
              f"inclusion x{a.error_inclusion / b.error_inclusion:.2f}")


if __name__ == "__main__":
    main()
