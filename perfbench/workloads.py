"""Seeded workload generators (standard library only).

A workload is a seed-determined list of CLI operations ("ops"); the program
sees only the generated arguments and config files.  An op is a plain dict
with a ``kind`` (run, sweep, oracle or verify) and its inputs.

Ops come in cycles.  The runner stops a timed window only at a cycle
boundary, and each cycle spreads its inputs over fixed strata (one draw per
stratum, shuffled), so the cost of a cycle hardly depends on the seed.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterator

WORKLOADS = ("run-large", "sweep-small", "verify-oracle")

# run-large: one `run` per op, theorems in this cycle order.  The cheap
# theorem 3 comes first because op 0 is also the fresh-process setup probe.
# Theorem 1 runs twice a cycle, which puts the median op inside the
# theorem-2 cost cluster instead of in the gap between two clusters.
RUN_CYCLE = (3, 1, 4, 2, 1)
RUN_Q = (9800, 10200)  # a fresh prime q per op, drawn without replacement
RUN_Y = (9800, 10200)
RUN_SIGMA = (0.6, 0.9)
RUN_SAMPLES = 3  # seeded character indices for the reference cross-check

# sweep-small: one `sweep` per op over SWEEP_WINDOW consecutive primes.
SWEEP_THEOREMS = (1, 3)
SWEEP_START = (100, 4000)
SWEEP_STRATA = 4
SWEEP_WINDOW = 32

# verify-oracle: one `verify` (full battery) before every two `oracle` ops, so
# the median op falls inside the oracle cost range, not between the two.
ORACLE_Q_STRATA = ((300, 400), (400, 500))
ORACLE_SIGMAS = (1.0, 0.75)
ORACLE_Y_TOP = 100_000
ORACLE_SAMPLES = 2

CYCLE_LENGTH = {
    "run-large": len(RUN_CYCLE),
    "sweep-small": SWEEP_STRATA * len(SWEEP_THEOREMS),
    "verify-oracle": 3 * len(ORACLE_Q_STRATA) * len(ORACLE_SIGMAS) // 2,
}

# op_s.tail is this percentile, fixed per workload so that it means the same
# on every run; at the seed commit a --seconds 24 window leaves at least ten
# samples beyond it (run-large: 15 ops, sweep-small: ~120, verify-oracle: ~40).
TAIL_PERCENTILE = {"run-large": 100.0 / 3.0, "sweep-small": 90.0, "verify-oracle": 70.0}


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, by a plain sieve."""
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, hi + 1, p)))
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw in each of k equal bins of [lo, hi), shuffled."""
    width = (hi - lo) / k
    out = [lo + (i + rng.random()) * width for i in range(k)]
    rng.shuffle(out)
    return out


def _run_ops(rng: random.Random) -> Iterator[dict]:
    pool = primes_between(*RUN_Q)
    rng.shuffle(pool)
    for i in itertools.count():
        theorem = RUN_CYCLE[i % len(RUN_CYCLE)]
        q = pool[i % len(pool)]
        config = {"theorem": theorem, "q": q, "y": rng.randint(*RUN_Y)}
        sigma = round(rng.uniform(*RUN_SIGMA), 4)
        ell = rng.choice((1, 2))
        if theorem in (2, 4):
            config["sigma"] = sigma
        if theorem == 4 and not ell < 1.0 / (2.0 - 2.0 * sigma) - 1e-6:
            ell = 1  # theorem 4 admits ell < 1/(2 - 2 sigma) only
        config["ell"] = ell
        samples = [rng.randrange(1, q - 1) for _ in range(RUN_SAMPLES)]
        yield {"kind": "run", "config": config, "samples": samples}


def _sweep_ops(rng: random.Random) -> Iterator[dict]:
    primes = primes_between(SWEEP_START[0], SWEEP_START[1] * 2)
    while True:
        starts = {t: _strata(rng, *SWEEP_START, SWEEP_STRATA) for t in SWEEP_THEOREMS}
        for j in range(SWEEP_STRATA):
            for theorem in SWEEP_THEOREMS:
                first = next(i for i, p in enumerate(primes) if p >= starts[theorem][j])
                window = primes[first : first + SWEEP_WINDOW]
                yield {
                    "kind": "sweep", "theorem": theorem,
                    "lo": window[0], "hi": window[-1],
                    "primes": window, "sample": rng.randrange(SWEEP_WINDOW),
                }


def _verify_oracle_ops(rng: random.Random) -> Iterator[dict]:
    n = len(ORACLE_Q_STRATA) * len(ORACLE_SIGMAS)
    while True:
        cells = [(s, sg) for s in ORACLE_Q_STRATA for sg in ORACLE_SIGMAS]
        rng.shuffle(cells)
        y3 = _strata(rng, math.log(1e4), math.log(1e5), n)
        for j, ((q_lo, q_hi), sigma) in enumerate(cells):
            q = rng.choice(primes_between(q_lo, q_hi - 1))
            ys = [
                int(_log_uniform(rng, 100, 1000)),
                int(_log_uniform(rng, 1000, 10_000)),
                min(int(math.exp(y3.pop())), ORACLE_Y_TOP - 1),
                ORACLE_Y_TOP,
            ]
            if j % 2 == 0:
                yield {"kind": "verify"}
            yield {
                "kind": "oracle", "q": q, "sigma": sigma, "ys": ys,
                "samples": [rng.random() for _ in range(ORACLE_SAMPLES)],
            }


_GENERATORS = {
    "run-large": _run_ops,
    "sweep-small": _sweep_ops,
    "verify-oracle": _verify_oracle_ops,
}


def generate(workload: str, seed: int) -> Iterator[dict]:
    """The endless op sequence of (workload, seed)."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
