"""Resonance kernels, resonator weights, the sum S1, the per-character S2
summands for all four target inequalities, a congruence-sum oracle for S1,
and the exact finite lower bounds for S2/S1.

The resonator attached to a completely multiplicative kernel r is

    R(chi) = prod_{p <= X, p != q} (1 - r(p) chi(p))^-1,

so |R(chi)|^2 is a finite product (r(p) < 1 keeps every factor finite).  The
factor at p = q is skipped explicitly: chi(q) = 0 would make it 1 anyway,
and skipping keeps the principal character on the same code path.
``resonator_sq_all`` evaluates every factor in real arithmetic as
(1 - r)^2 + 4 r sin^2(theta/2) from one mirrored half-angle table, so no
complex character values are formed; the scalar ``resonator_sq`` keeps the
root-table evaluation as the reference it is tested against.

S1 = sum_chi |R(chi)|^2 collapses by orthogonality to a congruence sum
phi(q) * sum_{m = n mod q, (n,q)=1} r(m) r(n) over smooth integers, which
``s1_congruence_oracle`` evaluates directly as an independent check.

``s2_terms`` attaches one of three target weights to |R(chi)|^2, per
character:

    l-product:          prod_{j<=ell} L(sigma, chi^j; Y)        (sigma = 1 here)
    prime-sum:          sum_{j<=ell} sum_{p<=Y} chi(p)^j p^-sigma
    logderiv-product:   prod_{j<=ell} D_j,  D_j = sum_{n<=Y} Lambda(n) chi(n)^j n^-sigma

Each is one whole-group base vector reduced over the power family by
``characters.power_reduce``.  The summands stay complex;
``experiments.run_theorem`` sums them, reports a failure when the imaginary
part is not negligible (trusting conjugate symmetry silently would hide
character-indexing bugs) and reduces to the real part.
X is real-valued; kernel support compares primes by p <= floor(X).  The
hypotheses on sigma and ell are checked by ``constants.require_strip_sigma``,
``constants.require_strip_ell`` and ``arithmetic.require_positive``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .arithmetic import harmonic, primes_up_to, require_positive
from .characters import Character, CharacterGroup, power_reduce
from .constants import max_ell_for_sigma, require_strip_ell, require_strip_sigma
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
    "bound_l_product",
    "bound_prime_sum",
    "bound_logderiv_product",
    "p_j",
    "p_j_linear_asymptotic",
    "p_j_sigma_asymptotic",
    "max_ell_for_sigma",  # from .constants; scripts and tests import it from here
    "require_y_covers_x",
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
        require_strip_sigma(self.sigma)

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
    """|R(chi_k)|^2 for every character index k, in real arithmetic.

    With chi_k(p) = e^{i theta}, theta = 2 pi k dlog(p)/N and N = q - 1,
    each factor is |1 - r e^{i theta}|^2 = (1 - r)^2 + 4 r sin^2(theta/2).
    Both terms are >= 0, so nothing cancels as r -> 1.  sin^2(pi e/N) is
    tabulated for e <= N/2 and mirrored, so sin2[N - e] == sin2[e] bitwise
    and conjugate characters get bitwise-equal weights.
    """
    ps, rv = _support(kernel, exclude_q=group.q)
    order = group.order
    if len(ps) == 0:
        return np.ones(order, dtype=np.float64)
    half = order // 2
    sin2 = np.empty(order, dtype=np.float64)
    sin2[: half + 1] = np.sin(np.pi * np.arange(half + 1) / order) ** 2
    sin2[half + 1 :] = sin2[1 : order - half][::-1]
    d = group.dlog.dlog[ps % group.q]
    ks = np.arange(order, dtype=np.int64)
    factors = sin2[(d[:, None] * ks[None, :]) % order]  # prime-major
    factors *= (4.0 * rv)[:, None]
    factors += ((1.0 - rv) ** 2)[:, None]
    return 1.0 / np.prod(factors, axis=0)


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
    require_positive("cap", cap)
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

def require_y_covers_x(x: float, y: float) -> None:
    """Raise ValueError unless X <= Y: the cutoff must cover the resonator support."""
    if y < x:
        raise ValueError(
            f"the truncation cutoff must dominate the resonator support "
            f"(X <= Y is required); got X = {x}, Y = {y}"
        )


def s2_terms(group: CharacterGroup, target: str, ell: int,
             kernel: ResonanceKernel, y: int) -> np.ndarray:
    """Per-character S2 summands (complex), indexed by character index.

    ``run_theorem`` sums these for S2 and subtracts the excluded characters'
    terms from the same numbers for the certificate.
    """
    require_positive("ell", ell)
    require_y_covers_x(kernel.x, y)
    rsq = resonator_sq_all(group, kernel)
    if target == "l-product":
        core = power_reduce(truncated_l_all(group, kernel.sigma, y), ell, np.multiply)
    elif target == "prime-sum":
        core = power_reduce(prime_sum_all(group, kernel.sigma, y), ell, np.add)
    elif target == "logderiv-product":
        if isinstance(kernel, SigmaKernel):
            require_strip_ell(kernel.sigma, ell)
        core = power_reduce(logderiv_poly_all(group, kernel.sigma, y), ell, np.multiply)
    else:
        raise ValueError(f"unknown S2 target {target!r}")
    return core * rsq


# ---------------------------------------------------------------------------
# exact finite lower bounds for S2/S1
# ---------------------------------------------------------------------------

def bound_l_product(kernel: LinearKernel, ell: int) -> float:
    """prod_{j<=ell} prod_{p<=X} (1 - r(p)^j / p)^-1, the exact finite form
    of the line-target ratio bound (not its asymptotic expansion)."""
    require_positive("ell", ell)
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
    require_positive("ell", ell)
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
    require_positive("j", j)
    ps, rv = _support(kernel)
    if len(ps) == 0:
        return 0.0
    pf = ps.astype(np.float64)
    terms = np.log(pf) / pf**kernel.sigma * rv**j
    return math.fsum(terms.tolist())


def bound_logderiv_product(kernel: ResonanceKernel, ell: int) -> float:
    """prod_{j<=ell} P_j, the logderiv-target ratio bound at the kernel's sigma."""
    require_positive("ell", ell)
    out = 1.0
    for j in range(1, ell + 1):
        out *= p_j(kernel, j)
    return out


def p_j_linear_asymptotic(x: float, j: int, prime_constant: float) -> float:
    """Large-X form of P_j for the linear kernel:
    log X - gamma - sum_p log p/(p(p-1)) - H_j."""
    return math.log(x) - EULER_GAMMA - prime_constant - harmonic(j)


def p_j_sigma_asymptotic(kernel: SigmaKernel, j: int) -> float:
    """Large-X form of P_j for the sigma kernel:
    X^(1-sigma)/(1-sigma) * j! * prod_{m<j} (m + 1/sigma)^-1."""
    require_positive("j", j)
    s = kernel.sigma
    denom = 1.0
    for m in range(j):
        denom *= m + 1.0 / s
    return kernel.x ** (1.0 - s) / (1.0 - s) * math.factorial(j) / denom
