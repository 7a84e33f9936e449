#!/usr/bin/env python3
"""Run the full four-target resonance battery over a grid of primes and
kernel lengths, and write one CSV row per run.

Usage:
    python3 scripts/run_battery.py [--out results/battery.csv]

The grid is ``experiments.battery_configs``: q in {101, 211, 499, 1009},
ell in {1, 2, 3}, X in {20, 50}, Y = 1000, sigma in {0.75, 0.9} for the
strip targets (with the strip logderiv ell cap enforced).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dirichlet_resonance.experiments import battery_configs, run_theorem, write_reports_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/battery.csv")
    parser.add_argument("--qs", type=int, nargs="+", default=[101, 211, 499, 1009])
    args = parser.parse_args()

    reports = []
    for config in battery_configs(args.qs, (1, 2, 3), (20.0, 50.0), (0.75, 0.9)):
        rep = run_theorem(config)
        reports.append(rep)
        flag = "" if rep.passed else "  <-- FAIL"
        print(
            f"thm {rep.theorem} q={rep.q:5d} ell={rep.ell} X={rep.x:4.0f} "
            f"sigma={rep.sigma if rep.sigma else 1.0:.2f}: margin {rep.margin:12.6g}{flag}"
        )
    failures = sum(not rep.passed for rep in reports)

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    write_reports_csv(args.out, reports)
    print(f"\n{len(reports)} runs, {failures} failures -> {args.out}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
