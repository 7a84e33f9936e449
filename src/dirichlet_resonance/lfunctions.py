"""Truncated Euler products L(s,chi;Y), von-Mangoldt-weighted Dirichlet
polynomials for -L'/L, joint products over the power family chi, chi^2, ...,
and exact finite-sum oracles for both.

Truncated products are evaluated in log space,

    L(sigma, chi; Y) = exp( sum_{p <= Y, p != q} -log(1 - chi(p) p^-sigma) ),

with each complex log on the principal branch; every factor satisfies
|chi(p) p^-sigma| < 1, so no branch ambiguity can arise.  Scalar paths sum
with math.fsum.  The whole-group vector paths evaluate every character at
once as one real DFT over the discrete-log axis: the weights are bucketed by
dlog(n) mod q-1 and transformed, so a sum over N terms costs
O(N + q log q).  For L(sigma, chi; Y) each log factor is expanded as
sum_m chi(p)^m p^(-m sigma)/m and cut where its geometric tail falls below
2^-53 |chi(p) p^-sigma|, so the dropped tails total at most
2^-53 sum_p p^-sigma.  Both paths are deterministic.

The oracles are classical finite sums over residue classes:

    L(sigma, chi) = q^-sigma * sum_{a=1}^{q-1} chi(a) zeta(sigma, a/q)     (sigma != 1)
    L(1, chi)     = -(1/q)   * sum_{a=1}^{q-1} chi(a) psi(a/q)             (chi non-principal)

backed by an Euler-Maclaurin Hurwitz zeta and a recurrence+asymptotic-series
digamma, both implemented here so the oracle never shares code with the
truncated evaluators it is checking.  For non-principal chi the Hurwitz sum
is computed with the pole term 1/(s-1) subtracted from every zeta value
(their chi-weighted sum is zero), which keeps the oracle uniformly accurate
through sigma = 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import PrecisionError, prime_powers_up_to, primes_up_to, require_positive
from .characters import Character, CharacterGroup

__all__ = [
    "LValue",
    "NearZeroLValue",
    "EULER_GAMMA",
    "truncated_l",
    "logderiv_poly",
    "joint_l_product",
    "joint_logderiv_product",
    "truncated_l_all",
    "prime_sum_all",
    "logderiv_poly_all",
    "hurwitz_zeta",
    "digamma",
    "exact_l",
    "exact_l_all",
    "exact_logderiv",
]

EULER_GAMMA = float(np.euler_gamma)

_U = 2.0**-53  # unit roundoff of IEEE double


class NearZeroLValue(ValueError):
    """The oracle L-value is too close to zero to divide by safely."""


@dataclass(frozen=True)
class LValue:
    """A computed L-function (or log-derivative) value plus how it was made.

    method is one of: truncated-euler, dirichlet-poly, hurwitz-oracle,
    digamma-oracle.
    """

    value: complex
    method: str
    sigma: float
    y: int | None = None
    precision: float | None = None


def _check_sigma(sigma: float) -> None:
    if not (0.5 < sigma <= 1.0):
        raise ValueError(f"sigma must lie in (1/2, 1], got {sigma}")


def _check_cutoff(y: int) -> None:
    require_positive("truncation cutoff", y)
    if y > 10**8:
        raise PrecisionError(f"cutoff {y} exceeds the double-precision budget (1e8)")


def _fsum_complex(arr: np.ndarray) -> complex:
    return complex(math.fsum(arr.real.tolist()), math.fsum(arr.imag.tolist()))


# ---------------------------------------------------------------------------
# truncated evaluators, one character at a time
# ---------------------------------------------------------------------------

def truncated_l(chi: Character, sigma: float, y: int) -> LValue:
    """Truncated Euler product prod_{p <= y, p != q} (1 - chi(p) p^-sigma)^-1."""
    _check_sigma(sigma)
    _check_cutoff(y)
    ps = primes_up_to(y)
    ps = ps[ps != chi.group.q]
    if len(ps) == 0:
        return LValue(1 + 0j, "truncated-euler", sigma, y)
    vals = chi.values(ps)
    w = ps.astype(np.float64) ** (-sigma)
    logs = -np.log(1.0 - vals * w)
    return LValue(cmath.exp(_fsum_complex(logs)), "truncated-euler", sigma, y)


def logderiv_poly(chi: Character, sigma: float, y: int) -> LValue:
    """Dirichlet polynomial sum_{n <= y} Lambda(n) chi(n) n^-sigma.

    This is the finite approximation to -L'/L(sigma, chi).
    """
    _check_sigma(sigma)
    _check_cutoff(y)
    ns, logps = prime_powers_up_to(y)
    if len(ns) == 0:
        return LValue(0j, "dirichlet-poly", sigma, y)
    vals = chi.values(ns)  # zero at multiples of q
    w = logps * ns.astype(np.float64) ** (-sigma)
    return LValue(_fsum_complex(vals * w), "dirichlet-poly", sigma, y)


def _joint_product(evaluate, chi: Character, ell: int, sigma: float, y: int) -> complex:
    """prod_{j=1}^{ell} evaluate(chi^j, sigma, y).value, one character at a time."""
    require_positive("ell", ell)
    out = 1 + 0j
    for j in range(1, ell + 1):
        out *= evaluate(chi.power(j), sigma, y).value
    return out


def joint_l_product(chi: Character, ell: int, sigma: float, y: int) -> complex:
    """prod_{j=1}^{ell} L(sigma, chi^j; y), truncated factors."""
    return _joint_product(truncated_l, chi, ell, sigma, y)


def joint_logderiv_product(chi: Character, ell: int, sigma: float, y: int) -> complex:
    """prod_{j=1}^{ell} of the -L'/L polynomial for chi^j; equals
    (-1)^ell prod_j L'/L up to the truncation error of each factor."""
    return _joint_product(logderiv_poly, chi, ell, sigma, y)


# ---------------------------------------------------------------------------
# whole-group vector evaluators (index k runs over the full dual group)
# ---------------------------------------------------------------------------

def _dlog_transform(group: CharacterGroup, exponents: np.ndarray,
                    weights: np.ndarray) -> np.ndarray:
    """vec[k] = sum_i weights[i] e^{2 pi i k exponents[i] / order}, all k.

    Since chi_k(n) = e^{2 pi i k dlog(n) / order}, a whole-group character sum
    is one length-order DFT of the real weights bucketed by exponent (the
    discrete-log reindexing of Rader, 1968).  The upper half is mirrored from
    the lower one, so vec[-k] == conj(vec[k]) holds exactly.
    """
    order = group.order
    half = np.conj(np.fft.rfft(np.bincount(exponents, weights, minlength=order)))
    vec = np.empty(order, dtype=np.complex128)
    vec[: len(half)] = half
    vec[len(half) :] = np.conj(half[1 : order - len(half) + 1][::-1])
    return vec


def truncated_l_all(group: CharacterGroup, sigma: float, y: int) -> np.ndarray:
    """L(sigma, chi_k; y) for every character index k at once.

    log L is the sum over primes of -log(1 - z) = sum_m z^m / m with
    z = chi(p) p^-sigma, so term m of prime p lands on exponent
    m dlog(p) with weight p^(-m sigma) / m.  Each prime's series stops at
    M = ceil(log(u (1 - |z|)) / log |z|) (u = 2^-53), where the tail
    |z|^(M+1) / ((M+1)(1 - |z|)) is below u |z|, so the dropped tails total
    at most u sum_p p^-sigma.
    """
    _check_sigma(sigma)
    _check_cutoff(y)
    ps = primes_up_to(y)
    ps = ps[ps != group.q]
    a = ps.astype(np.float64) ** (-sigma)
    counts = np.ceil(np.log(_U * (1.0 - a)) / np.log(a)).astype(np.int64)
    which = np.repeat(np.arange(len(ps)), counts)
    m = np.arange(len(which)) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    exponents = (m * group.dlog.dlog[ps % group.q][which]) % group.order
    return np.exp(_dlog_transform(group, exponents, a[which] ** m / m))


def prime_sum_all(group: CharacterGroup, sigma: float, y: int) -> np.ndarray:
    """sum_{p <= y, p != q} chi_k(p) p^-sigma for every character index k."""
    _check_sigma(sigma)
    _check_cutoff(y)
    ps = primes_up_to(y)
    ps = ps[ps != group.q]
    w = ps.astype(np.float64) ** (-sigma)
    return _dlog_transform(group, group.dlog.dlog[ps % group.q], w)


def logderiv_poly_all(group: CharacterGroup, sigma: float, y: int) -> np.ndarray:
    """The -L'/L polynomial sum_{n <= y} Lambda(n) chi_k(n) n^-sigma, all k."""
    _check_sigma(sigma)
    _check_cutoff(y)
    ns, logps = prime_powers_up_to(y)
    keep = ns % group.q != 0  # chi(n) = 0 there anyway
    ns, logps = ns[keep], logps[keep]
    w = logps * ns.astype(np.float64) ** (-sigma)
    return _dlog_transform(group, group.dlog.dlog[ns % group.q], w)


# ---------------------------------------------------------------------------
# exact oracles: Euler-Maclaurin Hurwitz zeta and digamma
# ---------------------------------------------------------------------------

# B_2, B_4, ..., B_30 (even-index Bernoulli numbers, exact rationals rounded once)
_BERNOULLI_EVEN = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
    -23749461029.0 / 870.0,
    8615841276005.0 / 14322.0,
)


def _hurwitz_em_terms(s: float, a: float, n_terms: int, order: int):
    """Shared Euler-Maclaurin pieces: head sum, correction, tail base."""
    k = np.arange(n_terms, dtype=np.float64)
    head = math.fsum(((k + a) ** (-s)).tolist())
    base = n_terms + a
    corr = 0.5 * base ** (-s)
    poch = s
    tail = 0.0
    for j in range(1, order + 1):
        tail += _BERNOULLI_EVEN[j - 1] / math.factorial(2 * j) * poch * base ** (-s - 2 * j + 1)
        poch *= (s + 2 * j - 1) * (s + 2 * j)
    return head, corr, tail, base


def hurwitz_zeta(s: float, a: float, n_terms: int = 30, order: int = 12) -> float:
    """zeta(s, a) for s > 1/2 (s != 1), a in (0, 1], by Euler-Maclaurin.

    Defaults give well over 10 significant digits in the ranges used here;
    ``n_terms``/``order`` exist so tests can double them and watch the value
    stay put.
    """
    if s == 1.0:
        raise ValueError("zeta(s, a) has a pole at s = 1")
    if s <= 0.5:
        raise ValueError(f"s must exceed 1/2, got {s}")
    if not (0.0 < a <= 1.0):
        raise ValueError(f"a must lie in (0, 1], got {a}")
    if order > len(_BERNOULLI_EVEN):
        raise ValueError(f"order is capped at {len(_BERNOULLI_EVEN)}")
    head, corr, tail, base = _hurwitz_em_terms(s, a, n_terms, order)
    return head + base ** (1.0 - s) / (s - 1.0) + corr + tail


def _hurwitz_zeta_reg(s: float, a: float) -> float:
    """zeta(s, a) - 1/(s - 1), analytic through s = 1 (limit -psi(a)).

    Used by the oracle for non-principal characters, whose chi-weighted pole
    terms cancel exactly; subtracting them term by term avoids catastrophic
    cancellation when sigma sits near 1.  Same 30 terms and order 12 as
    ``hurwitz_zeta``'s defaults.
    """
    if s <= 0.5:
        raise ValueError(f"s must exceed 1/2, got {s}")
    head, corr, tail, base = _hurwitz_em_terms(s, a, 30, 12)
    lb = math.log(base)
    if s == 1.0:
        pole_free = -lb
    else:
        pole_free = -math.expm1((1.0 - s) * lb) / (1.0 - s)
    return head + pole_free + corr + tail


def digamma(x: float) -> float:
    """psi(x) for x > 0 by upward recurrence into the asymptotic series."""
    if x <= 0:
        raise ValueError(f"digamma needs x > 0, got {x}")
    acc = 0.0
    while x < 12.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    power = inv2
    for j in range(1, 9):
        series += _BERNOULLI_EVEN[j - 1] / (2 * j) * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x - series


# ---------------------------------------------------------------------------
# exact L and exact L'/L
# ---------------------------------------------------------------------------

def _residue_class_terms(q: int, s: float) -> tuple[float, np.ndarray]:
    """(coeff, f) with L(s, chi) = coeff * sum_{a=1}^{q-1} chi(a) f[a-1] for
    every non-principal chi mod q (digamma at s = 1, else Hurwitz zeta)."""
    if s == 1.0:
        return -1.0 / q, np.asarray([digamma(a / q) for a in range(1, q)])
    return q ** (-s), np.asarray([_hurwitz_zeta_reg(s, a / q) for a in range(1, q)])


def _exact_l_value(chi: Character, s: float) -> complex:
    """Finite-sum oracle for L(s, chi), non-principal chi, any s in (1/2, 1.2]."""
    q = chi.group.q
    coeff, vals = _residue_class_terms(q, s)
    return coeff * _fsum_complex(chi.values(np.arange(1, q, dtype=np.int64)) * vals)


def exact_l(chi: Character, sigma: float) -> LValue:
    """Ground-truth L(sigma, chi) for non-principal chi, sigma in (1/2, 1].

    sigma = 1 goes through the digamma formula, sigma < 1 through the
    Hurwitz-zeta formula; both are exact finite sums over residue classes.
    """
    if chi.is_principal:
        raise ValueError("the exact oracle is defined for non-principal characters")
    _check_sigma(sigma)
    method = "digamma-oracle" if sigma == 1.0 else "hurwitz-oracle"
    return LValue(_exact_l_value(chi, sigma), method, sigma, precision=1e-12)


def exact_l_all(group: CharacterGroup, sigma: float) -> np.ndarray:
    """Oracle L(sigma, chi_k) for every non-principal k; entry 0 is NaN."""
    _check_sigma(sigma)
    q = group.q
    coeff, vals = _residue_class_terms(q, sigma)
    mat = group.values_matrix(np.arange(1, q, dtype=np.int64))
    out = coeff * (mat @ vals.astype(np.complex128))
    out[0] = complex(float("nan"), float("nan"))
    return out


def exact_logderiv(chi: Character, sigma: float, h: float = 1e-4) -> LValue:
    """L'/L(sigma, chi) by Richardson-extrapolated central differences of
    log L along the real axis.

    One Richardson level on step h balances truncation against cancellation
    at double precision.  Raises NearZeroLValue instead of dividing by an
    L-value under 1e-8 in modulus (a zero might be nearby; we report, never
    guess).
    """
    if chi.is_principal:
        raise ValueError("the exact oracle is defined for non-principal characters")
    if not (0.55 < sigma <= 1.0):
        raise ValueError(f"sigma must lie in (0.55, 1], got {sigma}")
    base = _exact_l_value(chi, sigma)
    if abs(base) < 1e-8:
        raise NearZeroLValue(
            f"|L({sigma}, chi_{chi.index})| = {abs(base):.2e} < 1e-8; "
            "refusing the logarithmic derivative near a possible zero"
        )

    def log_l(s: float) -> complex:
        return cmath.log(_exact_l_value(chi, s))

    def central(step: float) -> complex:
        return (log_l(sigma + step) - log_l(sigma - step)) / (2.0 * step)

    d1 = central(h)
    d2 = central(h / 2.0)
    value = (4.0 * d2 - d1) / 3.0
    return LValue(value, "hurwitz-oracle", sigma, precision=abs(d2 - d1) / 3.0)
