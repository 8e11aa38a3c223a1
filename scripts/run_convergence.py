"""Convergence comparison on the closed-form sin benchmark (optimistic mode).

Runs the value-function solver next to the unrolled/implicit baselines from
two initial points and writes per-method trace CSVs plus a summary JSON.
bvfsm runs the benchmark's own solver profile (``SIN_SOLVER_PROFILE``).

Usage: python scripts/run_convergence.py [--out-dir runs/convergence] [--n 2]
"""

import argparse
import json
import tempfile
from pathlib import Path

from bvfsm.cli import run_experiment


def config(n: int = 2, init: float = 8.0) -> dict:
    return {
        "problem": f"sin:n={n},a=2,c=2",
        "methods": ["bvfsm", "rhg", "bda:0.5", "cg:20", "neumann:20"],
        "x0": init,
        "y0": init,
        "seed": 0,
        "baseline": {"T": 100, "I": 100, "Q": 20, "ul_steps": 500,
                     "aggregation_decay": 0.95},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="runs/convergence")
    ap.add_argument("--n", type=int, default=2)
    args = ap.parse_args()
    for init in (8.0, 0.0):
        out = Path(args.out_dir) / f"init_{init:g}"
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            json.dump(config(args.n, init), fh)
            cfg_path = fh.name
        code = run_experiment(cfg_path, out_dir=out)
        print(f"init {init}: exit {code}; artifacts in {out}")


if __name__ == "__main__":
    main()
