#!/usr/bin/env python3
"""Print one line, `<count> <sha256>`, over the canonical JSON of a fixed set
of reports, sweep rows and oracle tables.  Two checkouts whose outputs are
byte-identical print the same line.

Usage:
    python3 scripts/report_digest.py
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/report_digest.py

The set:
  - run_theorem for theorems 1-4 (sigma in {0.75, 0.9} for theorems 2 and 4),
    q in {17, 101, 211, 499, 1009, 10007}, ell in {1, 2, 3}, excluded in
    {(), (3,), (5, 7)}, X default and 20.0; a rejected configuration is
    hashed by its error text;
  - sweeps of theorems 1, 3 and 2 (sigma = 0.8) over primes 100..400;
  - oracle tables for q in {101, 499}, sigma = 0.75, Y in {100, 1000}.

Each entry is json.dumps(..., sort_keys=True) with the wall-time field
`seconds` dropped.
"""

import hashlib
import json
import os
import sys

# appended, so a PYTHONPATH pointing at another checkout's src/ wins
sys.path.append(os.path.join(os.path.dirname(__file__), "..", "src"))

from dirichlet_resonance.experiments import (
    ConfigError,
    ExperimentConfig,
    oracle_comparison,
    run_theorem,
    sweep,
)

QS = (17, 101, 211, 499, 1009, 10007)
SIGMAS = {1: (None,), 2: (0.75, 0.9), 3: (None,), 4: (0.75, 0.9)}


def _report(report) -> dict:
    row = report.to_dict()
    del row["seconds"]
    return row


def entries():
    for theorem, sigmas in SIGMAS.items():
        for sigma in sigmas:
            for q in QS:
                for ell in (1, 2, 3):
                    for excluded in ((), (3,), (5, 7)):
                        for x in (None, 20.0):
                            cfg = ExperimentConfig(theorem, q, ell, x=x, sigma=sigma,
                                                   excluded=excluded)
                            try:
                                yield _report(run_theorem(cfg))
                            except ConfigError as exc:
                                yield {"error": str(exc)}
    for theorem, sigma in ((1, None), (3, None), (2, 0.8)):
        for report in sweep(theorem, (100, 400), sigma=sigma).reports:
            yield _report(report)
    for q in (101, 499):
        yield oracle_comparison(q, 0.75, (100, 1000)).to_dict()


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    for entry in entries():
        digest.update(json.dumps(entry, sort_keys=True).encode() + b"\n")
        count += 1
    print(count, digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
