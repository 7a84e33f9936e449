"""The prime sieve and prime-power table, discrete logs, smooth numbers and
the classical prime sums behind the resonance bounds, plus the input rules
every module shares: ``require_positive``, ``require_cutoff``, ``require_odd_prime``.

Everything here is exact integer combinatorics plus double-precision prime
sums.  Long sums are correctly rounded (``math.fsum``, or ``exact_sum`` and
``_fsum_complex`` for arrays), so results are reproducible bit-for-bit
across platforms and call orders.  The cached prime and prime-power arrays
are read-only, so every caller can share them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "PrecisionError",
    "PrimeTable",
    "DiscreteLogTable",
    "sieve_primes",
    "primes_up_to",
    "prime_powers_up_to",
    "is_prime",
    "exact_sum",
    "require_positive",
    "require_cutoff",
    "require_odd_prime",
    "primitive_root",
    "build_dlog",
    "enumerate_smooth",
    "harmonic",
    "prime_power_tail_constant",
    "mertens_product",
]


class PrecisionError(ValueError):
    """Requested tolerance is not reachable in double precision or feasible memory."""


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, strictly ascending."""

    limit: int
    primes: np.ndarray  # int64, ascending, read-only


@dataclass(frozen=True)
class DiscreteLogTable:
    """Discrete logarithms in (Z/qZ)* for prime q, base the primitive root g.

    ``dlog[a]`` is the exponent k in {0, ..., q-2} with g^k = a (mod q), for
    a in {1, ..., q-1}; index 0 is unused and holds -1.
    """

    q: int
    g: int
    dlog: np.ndarray  # int64, length q

    def of(self, a: int) -> int:
        r = a % self.q
        if r == 0:
            raise ValueError(f"{a} is divisible by q={self.q}; no discrete log")
        return int(self.dlog[r])


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes up to ``limit`` inclusive.

    Raises ValueError for limit < 2 (empty domain).
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.nonzero(sieve)[0].astype(np.int64)
    primes.setflags(write=False)
    return PrimeTable(limit, primes)


@lru_cache(maxsize=8)
def _primes_cached(limit: int) -> PrimeTable:
    return sieve_primes(limit)


def primes_up_to(limit: int) -> np.ndarray:
    """Cached prime array for internal reuse, read-only."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    return _primes_cached(int(limit)).primes


@lru_cache(maxsize=8)
def prime_powers_up_to(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """All prime powers n = p^k <= limit with their von Mangoldt weights.

    Returns (n, log p) as read-only parallel arrays sorted by n.  The primes
    with p^k <= limit are a prefix, so each power k is one product.
    """
    ps = primes_up_to(limit)  # empty below 2, and so are both results
    logs = np.fromiter(map(math.log, ps.tolist()), np.float64, len(ps))
    ns, ws, power = [ps], [logs], ps
    while True:
        power = power * ps[: len(power)]
        power = power[: np.searchsorted(power, limit, side="right")]
        if not len(power):
            break
        ns.append(power)
        ws.append(logs[: len(power)])
    n = np.concatenate(ns)
    order = np.argsort(n, kind="stable")
    n, w = n[order], np.concatenate(ws)[order]
    n.setflags(write=False)
    w.setflags(write=False)
    return n, w


_EXACT_SUM_MIN = 1000  # math.fsum is faster below; both give the same double


def exact_sum(values: np.ndarray) -> float:
    """The correctly rounded sum of a 1-D float64 array: the double
    ``math.fsum`` returns, without building a list.

    Each value is m 2^(e-27) with |m| < 2^27 (``np.frexp``).  The integer
    parts of m and their 26-bit fractions are summed per exponent by
    ``np.bincount``; below 2^26 terms every partial sum is exact.  The bins
    form one Python int, rounded once by int division.  Short arrays, a nan
    or inf, and magnitudes where fsum could overflow go to ``math.fsum``.
    """
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    # a nan or inf fails the magnitude test, as does a sum that could overflow
    if not (_EXACT_SUM_MIN <= n <= 2**26 and max(x.max(), -x.min()) < 2.0**1021 / n):
        return math.fsum(x.tolist())
    m, e = np.frexp(x)
    m *= 2.0**27
    whole = np.trunc(m)
    m -= whole
    base = int(e.min())
    e -= base
    hi = np.bincount(e, weights=whole)
    lo = np.bincount(e, weights=m) * 2.0**26
    k = np.flatnonzero((hi != 0) | (lo != 0))
    total = sum((int(h) << 26) + int(l) << b
                for b, h, l in zip(k.tolist(), hi[k].tolist(), lo[k].tolist()))
    shift = base - 53
    return float(total << shift) if shift >= 0 else total / (1 << -shift)


def _fsum_complex(arr: np.ndarray) -> complex:
    """``exact_sum`` of the real and the imaginary parts."""
    return complex(exact_sum(arr.real), exact_sum(arr.imag))


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (desk-scale n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def require_positive(name: str, value: int) -> None:
    """Raise ValueError unless the count ``name`` is at least 1."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def require_cutoff(y: int) -> None:
    """Raise ValueError unless the truncation cutoff y is >= 1, and
    PrecisionError past the double-precision budget of 1e8."""
    require_positive("truncation cutoff", y)
    if y > 10**8:
        raise PrecisionError(f"cutoff {y} exceeds the double-precision budget (1e8)")


def require_odd_prime(q: int) -> None:
    """Raise ValueError unless q is an odd prime, the only moduli handled here;
    PrecisionError, before any trial division, past the int64 dlog bound."""
    if q >= 3_037_000_500:
        raise PrecisionError(f"q = {q} must be below 3037000500 for the int64 dlog table")
    if q < 3 or not is_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def primitive_root(q: int) -> int:
    """Smallest primitive root of the odd prime q.

    The smallest-root convention keeps every downstream table deterministic.
    """
    require_odd_prime(q)
    factors = _prime_factors(q - 1)
    for g in range(2, q):
        if all(pow(g, (q - 1) // f, q) != 1 for f in factors):
            return g
    raise AssertionError(f"no primitive root found for prime {q}")  # unreachable


def build_dlog(q: int) -> DiscreteLogTable:
    """Discrete-log table for (Z/qZ)*, from baby steps g^j and giant steps
    g^(ib), b = isqrt(q-1) + 1: one int64 outer product mod q lists every power
    g^(ib+j) in exponent order.  Residue products stay below q^2, so
    q >= 3,037,000,500 fails ``require_odd_prime`` before anything is allocated."""
    g, n = primitive_root(q), q - 1
    b = math.isqrt(n) + 1
    baby = list(itertools.accumulate(range(b), lambda acc, _: acc * g % q, initial=1))
    giant = itertools.accumulate(range((n - 1) // b), lambda acc, _: acc * baby[b] % q, initial=1)
    powers = np.outer(list(giant), baby[:b]).ravel()[:n] % q
    table = np.full(q, -1, dtype=np.int64)
    table[powers] = np.arange(n)
    return DiscreteLogTable(q, g, table)


def enumerate_smooth(x: int, cap: int) -> tuple[int, ...]:
    """All x-smooth integers up to ``cap``, ascending (1 is always smooth), by
    depth-first search over prime exponents (no filtering, so caps up to 1e9
    stay cheap when x is small)."""
    if x < 2:
        raise ValueError(f"smoothness bound must be >= 2, got {x}")
    require_positive("cap", cap)
    ps = [int(p) for p in primes_up_to(min(x, cap))]
    out: list[int] = []

    def descend(i: int, val: int) -> None:
        out.append(val)
        for j in range(i, len(ps)):
            nxt = val * ps[j]
            if nxt > cap:
                break  # primes ascend, so every later branch overflows too
            descend(j, nxt)

    descend(0, 1)
    return tuple(sorted(out))


def harmonic(j: int) -> float:
    """H_j = sum_{k<=j} 1/k."""
    require_positive("j", j)
    return math.fsum(1.0 / k for k in range(1, j + 1))


def _tail_cutoff(tolerance: float) -> int:
    # Partial summation with theta(x) < 1.01624 x (Rosser-Schoenfeld 1962,
    # Thm 9) bounds the tail beyond P by
    #   sum_{p>P} log p/(p(p-1)) <= 1.01624 (1/(P-1) - log(1 - 1/P))
    #                            <= 2 * 1.01624 (P+1)/P^2      (P >= 4);
    # pick P so that bound < tolerance/2.
    limit = 1024
    while 2.0 * 1.01624 * (limit + 1.0) / limit**2 > tolerance / 2.0:
        limit *= 2
    return limit


@lru_cache(maxsize=8)
def prime_power_tail_constant(tolerance: float = 1e-6, sieve_limit: int | None = None) -> float:
    """sum_p log p / (p (p-1)), the prime-power part of sum Lambda(n)/n.

    The sieve limit is chosen so the explicit prime tail bound stays below
    tolerance/2; pass ``sieve_limit`` to override (used by stability tests).
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if tolerance < 1e-7:
        raise PrecisionError(
            f"tolerance {tolerance:g} would need a sieve beyond feasible memory"
        )
    limit = sieve_limit if sieve_limit is not None else _tail_cutoff(tolerance)
    ps = primes_up_to(limit).astype(np.float64)
    terms = np.log(ps) / (ps * (ps - 1.0))
    return math.fsum(terms.tolist())


def mertens_product(x: float) -> float:
    """prod_{p<=x} p/(p-1), to compare against the e^gamma log x envelope."""
    if x < 3:
        raise ValueError(f"mertens product needs x >= 3, got {x}")
    ps = primes_up_to(int(math.floor(x))).astype(np.float64)
    return math.exp(math.fsum(np.log(ps / (ps - 1.0)).tolist()))
