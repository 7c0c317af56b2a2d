"""Deterministic artifact writers: CSV tables, manifests, reports.

Every float is printed with 17 significant digits so that reruns can be
compared byte for byte.
"""

from __future__ import annotations

import json
import os

from . import __version__


def fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (int,)):
        return str(value)
    try:
        return format(float(value), ".17g")
    except (TypeError, ValueError):
        return str(value)


def write_csv(path, header, rows):
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(fmt(v) for v in row) + "\n")


def write_manifest(path, config, command, extras=None):
    """Reproducibility record: config hash, versions, tolerances.

    Worker counts and timestamps are deliberately excluded; two runs with
    equal manifests must produce byte-identical artifacts.
    """
    data = {
        "command": command,
        "config_hash": config.config_hash(),
        "package_version": __version__,
        "tolerances": {
            "fixed_point_tol": fmt(config.fixed_point_tol),
            "corrector_tol": fmt(config.corrector_tol),
        },
        "latent_heat_in_weff": config.latent_heat_in_weff,
        "latent_heat_sign": fmt(config.latent_heat_sign),
    }
    if extras:
        data.update(extras)
    with open(path, "w", newline="\n") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
