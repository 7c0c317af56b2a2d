"""Store the final-state values every shipped seed variant is checked against.

    python3 perfbench/make_references.py [--workload NAME ...]

Runs each variant once, untraced, with the same worker as the benchmark, and
rewrites ``references.json``.  Run it only on a commit whose results are the
accepted ones: the benchmark checks every later commit against these values.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import run_child
from workloads import N_VARIANTS, REFERENCES, WORKLOADS, write_config


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    stored = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    for name in args.workload or sorted(WORKLOADS):
        stored[name] = {}
        for variant in range(N_VARIANTS):
            cfg_path, steps = write_config(WORKLOADS[name], variant)
            rep = run_child(name, variant, steps, cfg_path, trace=False,
                            run_id=f"{name}-reference-v{variant}", timeout=600.0)
            # the stored values are being replaced, so only their check may fail
            other = [f for f in rep["failures"] if "layer=output.final_state" not in f]
            if other or rep.get("final") is None:
                print("\n".join(other) or f"{name} v{variant}: no result", file=sys.stderr)
                return 1
            stored[name][str(variant)] = rep["final"]
            print(f"{name} v{variant}: {rep['solve_s']:.2f} s")
    REFERENCES.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
