"""Resonance kernels, resonator weights, the sum S1, the per-character S2
summands for all four target inequalities, a congruence-sum oracle for S1,
and the exact finite lower bounds for S2/S1.

The resonator attached to a completely multiplicative kernel r is

    R(chi) = prod_{p <= X, p != q} (1 - r(p) chi(p))^-1,

so |R(chi)|^2 is a finite product (r(p) < 1 keeps every factor finite);
kernels give r only as ``prime_values`` over a prime array.  The factor at
p = q is skipped explicitly: chi(q) = 0 would make it 1 anyway, and
skipping keeps the principal character on the same code path.
``resonator_sq_all`` evaluates every factor in real arithmetic as
(1 - r)^2 + 4 r sin^2(theta/2) from one mirrored half-angle table, so no
complex character values are formed, and multiplies the factors into one
running product one prime at a time: the working set is O(q) whatever the
number of primes.  The kernel's r(p) are real, so |R(conj chi)|^2 =
|R(chi)|^2: the weights, like the joint products and S2 summands below, are
kept for k <= (q-1)/2 only, and chi_{q-1-k} = conj(chi_k) reads entry k.
The scalar ``resonator_sq`` keeps the root-table evaluation as the
reference it is tested against.

S1 = sum_chi |R(chi)|^2, the ``characters.group_sum`` of the half,
collapses by orthogonality to a congruence sum
phi(q) * sum_{m = n mod q, (n,q)=1} r(m) r(n) over smooth integers, which
``s1_congruence_oracle`` evaluates directly as an independent check: the
integers and their weights r(n) come from ``arithmetic.smooth_walk``.

``joint_product`` gives one of three target weights for k <= (q-1)/2:

    l-product:          prod_{j<=ell} L(sigma, chi^j; Y)
    prime-sum:          sum_{j<=ell} sum_{p<=Y} chi(p)^j p^-sigma
    logderiv-product:   prod_{j<=ell} D_j,  D_j = sum_{n<=Y} Lambda(n) chi(n)^j n^-sigma

Each is one whole-group base vector reduced over the power family by
``characters.power_reduce`` and stored on the group; the extremal search
reads it, and ``s2_terms`` multiplies it by |R(chi)|^2.  The complex S2
summands are summed by ``experiments.run_theorem``: the conjugate pairs
make S2 real, and a non-finite summand makes its imaginary part nan.
X is real-valued; kernel support compares primes by p <= floor(X).  The
hypotheses on sigma and ell are checked by ``constants.require_strip_sigma``,
``constants.require_strip_ell`` and ``arithmetic.require_positive``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .arithmetic import primes_up_to, require_positive, smooth_walk
from .characters import Character, CharacterGroup, group_sum, power_reduce, unfold
# max_ell_for_sigma is not used here; tests/test_acceptance.py imports it from here
from .constants import (factorial_ratio, max_ell_for_sigma, require_finite,  # noqa: F401
                        require_strip_ell, require_strip_sigma)
from .lfunctions import logderiv_poly_all, prime_sum_all, truncated_l_all

__all__ = [
    "LinearKernel",
    "SigmaKernel",
    "ResonanceKernel",
    "CongruenceS1",
    "resonator_sq",
    "resonator_sq_all",
    "s1",
    "s1_congruence_oracle",
    "joint_product",
    "s2_terms",
    "bound_l_product",
    "bound_prime_sum",
    "bound_logderiv_product",
    "p_j",
    "p_j_sigma_asymptotic",
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


def _support(kernel: ResonanceKernel, exclude_q: int | None = None):
    """(primes, r-values) on the kernel support, optionally skipping p = q."""
    ps = primes_up_to(math.floor(kernel.x))
    if exclude_q is not None:
        ps = ps[ps != exclude_q]
    return ps, kernel.prime_values(ps)


# ---------------------------------------------------------------------------
# resonator weights and S1
# ---------------------------------------------------------------------------

def resonator_sq(chi: Character, kernel: ResonanceKernel) -> float:
    """|R(chi)|^2 = prod_{p <= X, p != q} |1 - r(p) chi(p)|^-2."""
    ps, rv = _support(kernel, exclude_q=chi.group.q)
    vals = chi.values(ps)
    factors = np.abs(1.0 - rv * vals) ** 2
    return float(1.0 / np.prod(factors))


def resonator_sq_all(group: CharacterGroup, kernel: ResonanceKernel) -> np.ndarray:
    """|R(chi_k)|^2 for k <= N/2, N = q - 1, in real arithmetic (stored, read-only).

    With chi_k(p) = e^{i theta}, theta = 2 pi k dlog(p)/N, each factor is
    |1 - r e^{i theta}|^2 = (1 - r)^2 + 4 r sin^2(theta/2).  Both terms are
    >= 0, so nothing cancels as r -> 1.  sin^2(pi e/N) is tabulated for
    e <= N/2 and unfolded, so sin2[N - e] == sin2[e] bitwise: the weight of
    chi_{N-k} = conj(chi_k) equals that of chi_k, and k <= N/2 covers the group.
    """
    return group.stored(_resonator_sq_vector, kernel)


def _resonator_sq_vector(group: CharacterGroup, kernel: ResonanceKernel) -> np.ndarray:
    ps, rv = _support(kernel, exclude_q=group.q)
    order = group.order
    half = order // 2
    sin2 = unfold(np.sin(np.pi * np.arange(half + 1) / order) ** 2, order)
    d = group.dlog.dlog[ps % group.q]
    ks = np.arange(half + 1, dtype=np.int64)
    e = np.empty_like(ks)
    t = np.empty_like(ks)
    f = np.empty(half + 1, dtype=np.float64)
    prod = np.ones(half + 1, dtype=np.float64)
    # one prime at a time, in prime order: the same roundings as a
    # prime-major P x N product over axis 0, in O(N) memory
    for dp, scale, shift in zip(d.tolist(), (4.0 * rv).tolist(), ((1.0 - rv) ** 2).tolist()):
        np.multiply(ks, dp, out=e)
        np.floor_divide(e, order, out=t)  # e mod N: numpy's scalar // is far faster than %
        t *= order
        e -= t
        sin2.take(e, out=f, mode="clip")  # e is in range; "raise" would buffer out
        f *= scale
        f += shift
        prod *= f
    return np.divide(1.0, prod, out=prod)


def s1(group: CharacterGroup, kernel: ResonanceKernel) -> float:
    """S1 = sum over all phi(q) characters of |R(chi)|^2; always >= phi(q)."""
    return group_sum(resonator_sq_all(group, kernel))


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

    The smooth integers and their weights r(n) come from
    ``arithmetic.smooth_walk`` and are added, in its depth-first order, into
    class totals T_a = sum_{n = a mod q} r(n); the congruence sum is then
    sum_a T_a^2.  The discarded tail is bounded by
    phi(q) * (F^2 - S_cap^2) with F = prod (1 - r(p))^-1 >= sum_all r(n),
    intentionally a crude majorant.
    """
    require_positive("cap", cap)
    q = group.q
    ps, rv = _support(kernel, exclude_q=q)
    ps, rv = ps[rv > 0.0], rv[rv > 0.0]
    ns, captured = smooth_walk(ps.tolist(), rv.tolist(), cap)
    totals = np.bincount([n % q for n in ns], captured, minlength=q)  # in walk order, from 0.0
    full = float(np.prod(1.0 / (1.0 - rv)))
    caught = math.fsum(captured)
    tail = group.order * max(full * full - caught * caught, 0.0)
    value = group.order * math.fsum((totals * totals).tolist())
    return CongruenceS1(value=value, tail_bound=tail, terms=len(ns))


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


def joint_product(group: CharacterGroup, target: str, ell: int, sigma: float,
                  y: int) -> np.ndarray:
    """The ``target``'s whole-group base vector reduced over chi_k, ...,
    chi_k^ell by ``power_reduce``, for k <= (q-1)/2 (stored, read-only);
    chi_{q-1-k} gets the exact conjugate."""
    require_positive("ell", ell)
    return group.stored(_joint_product_vector, target, ell, sigma, y)


def _joint_product_vector(group: CharacterGroup, target: str, ell: int, sigma: float,
                          y: int) -> np.ndarray:
    # an if-chain, not a module-level table, so each base is read as a module name per call
    if target == "l-product":
        return power_reduce(truncated_l_all(group, sigma, y), ell, np.multiply, half=True)
    if target == "prime-sum":
        return power_reduce(prime_sum_all(group, sigma, y), ell, np.add, half=True)
    if target == "logderiv-product":
        return power_reduce(logderiv_poly_all(group, sigma, y), ell, np.multiply, half=True)
    raise ValueError(f"unknown S2 target {target!r}")


def s2_terms(group: CharacterGroup, target: str, ell: int,
             kernel: ResonanceKernel, y: int) -> np.ndarray:
    """Per-character S2 summands (complex) for k <= (q-1)/2; the summand
    of chi_{q-1-k} is the exact conjugate of that of chi_k.

    ``run_theorem`` sums these for S2 and subtracts the excluded characters'
    terms from the same numbers for the certificate.
    """
    require_y_covers_x(kernel.x, y)
    if target == "logderiv-product" and isinstance(kernel, SigmaKernel):
        require_strip_ell(kernel.sigma, ell)
    return joint_product(group, target, ell, kernel.sigma, y) * resonator_sq_all(group, kernel)


# ---------------------------------------------------------------------------
# exact finite lower bounds for S2/S1
# ---------------------------------------------------------------------------

def bound_l_product(kernel: LinearKernel, ell: int) -> float:
    """prod_{j<=ell} prod_{p<=X} (1 - r(p)^j / p)^-1, the exact finite form
    of the line-target ratio bound (not its asymptotic expansion)."""
    require_positive("ell", ell)
    ps, rv = _support(kernel)
    pf = ps.astype(np.float64)
    logs = []
    for j in range(1, ell + 1):
        logs.extend((-np.log(1.0 - rv**j / pf)).tolist())
    return math.exp(math.fsum(logs))


def bound_prime_sum(kernel: SigmaKernel, ell: int) -> float:
    """sum_{j<=ell} sum_{p<=X} r(p)^j p^-sigma (strip L target)."""
    require_positive("ell", ell)
    ps, rv = _support(kernel)
    w = ps.astype(np.float64) ** (-kernel.sigma)
    terms = []
    for j in range(1, ell + 1):
        terms.extend((rv**j * w).tolist())
    return math.fsum(terms)


def p_j(kernel: ResonanceKernel, j: int) -> float:
    """P_j = sum_{p<=X} (log p / p^sigma) r(p)^j, the per-factor bound piece."""
    require_positive("j", j)
    ps, rv = _support(kernel)
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


def p_j_sigma_asymptotic(kernel: SigmaKernel, j: int) -> float:
    """Large-X form of P_j for the sigma kernel:
    X^(1-sigma)/(1-sigma) * j! * prod_{m<j} (m + 1/sigma)^-1."""
    require_positive("j", j)
    s = kernel.sigma
    value = kernel.x ** (1.0 - s) / (1.0 - s) * factorial_ratio(s, j)
    return require_finite(f"asymptotic P_{j}(X={kernel.x}, sigma={s})", value)
