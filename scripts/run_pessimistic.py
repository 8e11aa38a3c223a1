"""Pessimistic (min-max) benchmark: UL-objective error for the value-function
solver vs unmodified unrolled baselines.  bvfsm runs the benchmark's own
solver profile (``SIN_PESS_SOLVER_PROFILE``).

Usage: python scripts/run_pessimistic.py [--out-dir runs/pessimistic]
"""

import argparse
import json
import tempfile
from pathlib import Path

from bvfsm.cli import run_experiment


def config() -> dict:
    return {
        "problem": "sin-pessimistic:n=2,a=2,c=2",
        "methods": ["bvfsm", "rhg", "bda:0.5"],
        "x0": 8.0,
        "y0": 8.0,
        "seed": 0,
        "baseline": {"T": 100, "I": 100, "ul_steps": 400},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="runs/pessimistic")
    args = ap.parse_args()
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(config(), fh)
        path = fh.name
    code = run_experiment(path, out_dir=Path(args.out_dir))
    print(f"exit {code}; artifacts in {args.out_dir}")


if __name__ == "__main__":
    main()
