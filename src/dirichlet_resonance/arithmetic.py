"""Prime sieving, multiplicative-function tables, and the classical prime sums
the resonance bounds are built from, plus the input rules every module
shares: ``require_positive`` (counts) and ``require_odd_prime`` (the modulus).

Everything here is exact integer combinatorics plus double-precision prime
sums.  Long sums go through ``math.fsum`` (an error-free summation), so
results are reproducible bit-for-bit across platforms and call orders.  All
returned tables are immutable after construction and safe to share across
concurrent tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "PrecisionError",
    "PrimeTable",
    "DiscreteLogTable",
    "SmoothSet",
    "sieve_primes",
    "primes_up_to",
    "prime_powers_up_to",
    "is_prime",
    "require_positive",
    "require_odd_prime",
    "von_mangoldt",
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
    primes: np.ndarray  # int64, ascending

    def __len__(self) -> int:
        return len(self.primes)


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


@dataclass(frozen=True)
class SmoothSet:
    """All x-smooth integers up to ``cap``, ascending (1 is always smooth)."""

    x: int
    cap: int
    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)


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
    return PrimeTable(limit, np.nonzero(sieve)[0].astype(np.int64))


@lru_cache(maxsize=8)
def _primes_cached(limit: int) -> PrimeTable:
    return sieve_primes(limit)


def primes_up_to(limit: int) -> np.ndarray:
    """Cached prime array for internal reuse.  Do not mutate the result."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    return _primes_cached(int(limit)).primes


@lru_cache(maxsize=8)
def prime_powers_up_to(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """All prime powers n = p^k <= limit with their von Mangoldt weights.

    Returns (n, log p) as parallel arrays sorted by n.  Do not mutate.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    ns: list[int] = []
    ws: list[float] = []
    for p in primes_up_to(limit):
        p = int(p)
        lp = math.log(p)
        n = p
        while n <= limit:
            ns.append(n)
            ws.append(lp)
            n *= p
    order = np.argsort(np.asarray(ns, dtype=np.int64), kind="stable")
    return (
        np.asarray(ns, dtype=np.int64)[order],
        np.asarray(ws, dtype=np.float64)[order],
    )


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


def require_odd_prime(q: int) -> None:
    """Raise ValueError unless q is an odd prime, the only moduli handled here."""
    if q < 3 or not is_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")


def von_mangoldt(n: int) -> float:
    """Lambda(n): log p if n = p^k for a prime p, else 0.  Natural-log units."""
    require_positive("n", n)
    if n == 1:
        return 0.0
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return math.log(p) if n == 1 else 0.0
    return math.log(n)  # n itself is prime


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
    """Discrete-log table for (Z/qZ)*, built by iterating powers of g."""
    g = primitive_root(q)
    table = np.full(q, -1, dtype=np.int64)
    acc = 1
    for k in range(q - 1):
        table[acc] = k
        acc = (acc * g) % q
    return DiscreteLogTable(q, g, table)


def enumerate_smooth(x: int, cap: int) -> SmoothSet:
    """All x-smooth integers up to ``cap``, by depth-first search over prime
    exponents (no filtering, so caps up to 1e9 stay cheap when x is small)."""
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
    out.sort()
    return SmoothSet(x, cap, tuple(out))


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
