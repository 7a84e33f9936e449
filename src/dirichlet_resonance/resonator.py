"""Resonance kernels, resonator weights, the sum S1, the per-character S2
summands for all four target inequalities, a congruence-sum oracle for S1,
and the exact finite lower bounds for S2/S1.

The resonator attached to a completely multiplicative kernel r is

    R(chi) = prod_{p <= X, p != q} (1 - r(p) chi(p))^-1,

so |R(chi)|^2 is a finite product (r(p) < 1 keeps every factor finite).  The
factor at p = q is skipped explicitly: chi(q) = 0 would make it 1 anyway,
and skipping keeps the principal character on the same code path.

S1 = sum_chi |R(chi)|^2 collapses by orthogonality to a congruence sum
phi(q) * sum_{m = n mod q, (n,q)=1} r(m) r(n) over smooth integers, which
``s1_congruence_oracle`` evaluates directly as an independent check.

``s2_terms`` attaches one of three target weights to |R(chi)|^2, per
character:

    l-product:          prod_{j<=ell} L(sigma, chi^j; Y)        (sigma = 1 here)
    prime-sum:          sum_{j<=ell} sum_{p<=Y} chi(p)^j p^-sigma
    logderiv-product:   prod_{j<=ell} D_j,  D_j = sum_{n<=Y} Lambda(n) chi(n)^j n^-sigma

The summands stay complex; ``experiments.run_theorem`` sums them, checks
that the imaginary part is negligible (trusting conjugate symmetry silently
would hide character-indexing bugs) and reduces to the real part.
X is real-valued; kernel support compares primes by p <= floor(X).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .arithmetic import primes_up_to
from .characters import Character, CharacterGroup
from .lfunctions import (
    EULER_GAMMA,
    logderiv_poly_all,
    prime_sum_all,
    truncated_l_all,
)

__all__ = [
    "LinearKernel",
    "SigmaKernel",
    "ResonanceKernel",
    "CongruenceS1",
    "kernel_value",
    "resonator_sq",
    "resonator_sq_all",
    "s1",
    "s1_congruence_oracle",
    "s2_terms",
    "power_product",
    "power_sum",
    "bound_l_product",
    "bound_prime_sum",
    "bound_logderiv_product",
    "p_j",
    "p_j_linear_asymptotic",
    "p_j_sigma_asymptotic",
    "max_ell_for_sigma",
    "strip_ell_limit",
]

@dataclass(frozen=True)
class LinearKernel:
    """r(p) = 1 - p/X on primes p <= floor(X); the sigma = 1 kernel."""

    x: float

    @property
    def sigma(self) -> float:
        return 1.0

    def prime_values(self, ps: np.ndarray) -> np.ndarray:
        ps = ps.astype(np.float64)
        vals = 1.0 - ps / self.x
        return np.where(ps <= math.floor(self.x), np.maximum(vals, 0.0), 0.0)


@dataclass(frozen=True)
class SigmaKernel:
    """r(p) = 1 - (p/X)^sigma on primes p <= floor(X); the critical-strip kernel."""

    x: float
    sigma: float

    def __post_init__(self):
        if not (0.5 < self.sigma < 1.0):
            raise ValueError(f"kernel sigma must lie in (1/2, 1), got {self.sigma}")

    def prime_values(self, ps: np.ndarray) -> np.ndarray:
        ps = ps.astype(np.float64)
        vals = 1.0 - (ps / self.x) ** self.sigma
        return np.where(ps <= math.floor(self.x), np.maximum(vals, 0.0), 0.0)


ResonanceKernel = Union[LinearKernel, SigmaKernel]


def kernel_value(kernel: ResonanceKernel, p: int) -> float:
    """r(p) for a single prime."""
    return float(kernel.prime_values(np.asarray([p], dtype=np.int64))[0])


def _support(kernel: ResonanceKernel, exclude_q: int | None = None):
    """(primes, r-values) on the kernel support, optionally skipping p = q."""
    cap = math.floor(kernel.x)
    if cap < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    ps = primes_up_to(cap)
    if exclude_q is not None:
        ps = ps[ps != exclude_q]
    return ps, kernel.prime_values(ps)


# ---------------------------------------------------------------------------
# resonator weights and S1
# ---------------------------------------------------------------------------

def resonator_sq(chi: Character, kernel: ResonanceKernel) -> float:
    """|R(chi)|^2 = prod_{p <= X, p != q} |1 - r(p) chi(p)|^-2."""
    ps, rv = _support(kernel, exclude_q=chi.group.q)
    if len(ps) == 0:
        return 1.0
    vals = chi.values(ps)
    factors = np.abs(1.0 - rv * vals) ** 2
    return float(1.0 / np.prod(factors))


def resonator_sq_all(group: CharacterGroup, kernel: ResonanceKernel) -> np.ndarray:
    """|R(chi_k)|^2 for every character index k."""
    ps, rv = _support(kernel, exclude_q=group.q)
    if len(ps) == 0:
        return np.ones(group.order, dtype=np.float64)
    mat = group.values_matrix(ps)
    factors = np.abs(1.0 - rv[None, :] * mat) ** 2
    return 1.0 / np.prod(factors, axis=1)


def s1(group: CharacterGroup, kernel: ResonanceKernel) -> float:
    """S1 = sum over all phi(q) characters of |R(chi)|^2; always >= phi(q)."""
    return math.fsum(resonator_sq_all(group, kernel).tolist())


@dataclass(frozen=True)
class CongruenceS1:
    """Congruence-sum route to S1, with an explicit bound on the part the
    cap discarded."""

    value: float
    tail_bound: float
    terms: int


def s1_congruence_oracle(group: CharacterGroup, kernel: ResonanceKernel,
                         cap: int) -> CongruenceS1:
    """phi(q) * sum_{smooth m, n <= cap, m = n mod q, (n,q)=1} r(m) r(n).

    Smooth integers are walked by depth-first search over prime exponents,
    accumulating class totals T_a = sum_{n = a mod q} r(n); the congruence
    sum is then sum_a T_a^2.  The discarded tail is bounded by
    phi(q) * (F^2 - S_cap^2) with F = prod (1 - r(p))^-1 >= sum_all r(n),
    intentionally a crude majorant.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    q = group.q
    ps, rv = _support(kernel, exclude_q=q)
    active = rv > 0.0
    ps_l = [int(p) for p in ps[active]]
    rv_l = [float(r) for r in rv[active]]

    totals = np.zeros(q, dtype=np.float64)
    captured: list[float] = []
    count = 0

    def descend(i: int, n: int, weight: float) -> None:
        nonlocal count
        totals[n % q] += weight
        captured.append(weight)
        count += 1
        for j in range(i, len(ps_l)):
            nxt = n * ps_l[j]
            if nxt > cap:
                break
            descend(j, nxt, weight * rv_l[j])

    descend(0, 1, 1.0)
    full = float(np.prod(1.0 / (1.0 - np.asarray(rv_l)))) if rv_l else 1.0
    caught = math.fsum(captured)
    tail = group.order * max(full * full - caught * caught, 0.0)
    value = group.order * math.fsum((totals * totals).tolist())
    return CongruenceS1(value=value, tail_bound=tail, terms=count)


# ---------------------------------------------------------------------------
# per-character S2 terms for the four targets
# ---------------------------------------------------------------------------

def power_product(vec: np.ndarray, ell: int) -> np.ndarray:
    """out[k] = prod_{j=1}^{ell} vec[(k*j) mod order]; chi_k^j = chi_{kj}."""
    order = len(vec)
    ks = np.arange(order, dtype=np.int64)
    out = vec.copy()
    for j in range(2, ell + 1):
        out *= vec[(ks * j) % order]
    return out


def power_sum(vec: np.ndarray, ell: int) -> np.ndarray:
    """out[k] = sum_{j=1}^{ell} vec[(k*j) mod order]."""
    order = len(vec)
    ks = np.arange(order, dtype=np.int64)
    out = vec.copy()
    for j in range(2, ell + 1):
        out = out + vec[(ks * j) % order]
    return out


def _require_y_covers_x(kernel: ResonanceKernel, y: int) -> None:
    if y < kernel.x:
        raise ValueError(
            f"the truncation cutoff must dominate the resonator support "
            f"(X <= Y is required); got X = {kernel.x}, Y = {y}"
        )


def strip_ell_limit(sigma: float) -> float:
    """The strict upper limit 1/(2 - 2 sigma) for ell on the strip logderiv
    target, with boundary noise snapped to the nearest integer."""
    limit = 1.0 / (2.0 - 2.0 * sigma)
    nearest = round(limit)
    if nearest >= 1 and abs(limit - nearest) <= 1e-9 * limit:
        return float(nearest)
    return limit


def max_ell_for_sigma(sigma: float) -> int:
    """Largest integer ell with ell < 1/(2 - 2 sigma) (strip logderiv target)."""
    limit = strip_ell_limit(sigma)
    ell = int(math.floor(limit))
    if ell >= limit:  # the bound is strict
        ell -= 1
    return ell


def s2_terms(group: CharacterGroup, target: str, ell: int,
             kernel: ResonanceKernel, y: int) -> np.ndarray:
    """Per-character S2 summands (complex), indexed by character index.

    ``run_theorem`` sums these for S2 and subtracts the excluded characters'
    terms from the same numbers for the certificate.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    _require_y_covers_x(kernel, y)
    rsq = resonator_sq_all(group, kernel)
    if target == "l-product":
        base = truncated_l_all(group, kernel.sigma, y)
        core = power_product(base, ell)
    elif target == "prime-sum":
        base = prime_sum_all(group, kernel.sigma, y)
        core = power_sum(base, ell)
    elif target == "logderiv-product":
        if isinstance(kernel, SigmaKernel) and ell >= strip_ell_limit(kernel.sigma):
            raise ValueError(
                f"the strip logderiv target needs 1 <= ell < 1/(2 - 2 sigma) "
                f"= {strip_ell_limit(kernel.sigma):g}; got ell = {ell}"
            )
        base = logderiv_poly_all(group, kernel.sigma, y)
        core = power_product(base, ell)
    else:
        raise ValueError(f"unknown S2 target {target!r}")
    return core * rsq


# ---------------------------------------------------------------------------
# exact finite lower bounds for S2/S1
# ---------------------------------------------------------------------------

def bound_l_product(kernel: LinearKernel, ell: int) -> float:
    """prod_{j<=ell} prod_{p<=X} (1 - r(p)^j / p)^-1, the exact finite form
    of the line-target ratio bound (not its asymptotic expansion)."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    ps, rv = _support(kernel)
    if len(ps) == 0:
        return 1.0
    pf = ps.astype(np.float64)
    logs = []
    for j in range(1, ell + 1):
        logs.extend((-np.log(1.0 - rv**j / pf)).tolist())
    return math.exp(math.fsum(logs))


def bound_prime_sum(kernel: SigmaKernel, ell: int) -> float:
    """sum_{j<=ell} sum_{p<=X} r(p)^j p^-sigma (strip L target)."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    ps, rv = _support(kernel)
    if len(ps) == 0:
        return 0.0
    w = ps.astype(np.float64) ** (-kernel.sigma)
    terms = []
    for j in range(1, ell + 1):
        terms.extend((rv**j * w).tolist())
    return math.fsum(terms)


def p_j(kernel: ResonanceKernel, j: int) -> float:
    """P_j = sum_{p<=X} (log p / p^sigma) r(p)^j, the per-factor bound piece."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    ps, rv = _support(kernel)
    if len(ps) == 0:
        return 0.0
    pf = ps.astype(np.float64)
    terms = np.log(pf) / pf**kernel.sigma * rv**j
    return math.fsum(terms.tolist())


def bound_logderiv_product(kernel: ResonanceKernel, ell: int) -> float:
    """prod_{j<=ell} P_j, the logderiv-target ratio bound at the kernel's sigma."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    out = 1.0
    for j in range(1, ell + 1):
        out *= p_j(kernel, j)
    return out


def p_j_linear_asymptotic(x: float, j: int, prime_constant: float) -> float:
    """Large-X form of P_j for the linear kernel:
    log X - gamma - sum_p log p/(p(p-1)) - H_j."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    harmonic_j = math.fsum(1.0 / k for k in range(1, j + 1))
    return math.log(x) - EULER_GAMMA - prime_constant - harmonic_j


def p_j_sigma_asymptotic(kernel: SigmaKernel, j: int) -> float:
    """Large-X form of P_j for the sigma kernel:
    X^(1-sigma)/(1-sigma) * j! * prod_{m<j} (m + 1/sigma)^-1."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    s = kernel.sigma
    denom = 1.0
    for m in range(j):
        denom *= m + 1.0 / s
    return kernel.x ** (1.0 - s) / (1.0 - s) * math.factorial(j) / denom
