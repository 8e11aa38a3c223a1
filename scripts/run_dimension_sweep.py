"""High-dimensional LL sweep: final UL error per (n, method).

Reproduces the error-vs-dimension comparison: the value-function solver keeps
a bounded error as n grows while unrolled/implicit estimators stall in the
wrong valley from the far initialization.

Usage: python scripts/run_dimension_sweep.py [--n 50 100 200] [--out sweep.csv]
"""

import argparse

from bvfsm.cli import run_dimension_sweep

METHODS = ["bvfsm", "rhg", "bda:0.5", "cg:20", "neumann:20"]


def config() -> dict:
    return {
        "x0": 8.0,
        "y0": 8.0,
        "bvfsm": {
            "K": 2000,
            "aux_f": {"name": "inverse", "modified": True},
            # the A2 profile, run at n = 50 to 200; the sin family's suggested
            # shift 2.0 is tuned for n = 2
            "schedule": {"sigma2": {"value": 50.0, "decay_pow": 0.6}},
        },
        "baseline": {"T": 100, "I": 100, "Q": 20, "ul_steps": 300,
                     "aggregation_decay": 0.95},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, nargs="+", default=[50, 100, 200])
    ap.add_argument("--methods", nargs="+", default=METHODS)
    ap.add_argument("--out", default="runs/sweep.csv")
    args = ap.parse_args()
    rows = run_dimension_sweep("sin", args.n, args.methods, config(), out_path=args.out)
    for r in rows:
        print(f"n={r['n']:<4d} {r['method']:<12s} rel_err_x={r['rel_err_x']:.4f} "
              f"({r['wall_time_s']:.1f}s) {r['note']}")
    print(f"table written to {args.out}")


if __name__ == "__main__":
    main()
