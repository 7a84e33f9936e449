"""Closed-form constants and admissibility conditions of the four target
inequalities, and the one checker of each hypothesis on sigma and ell that
the kernels, ``ExperimentConfig.validated`` and the CLI all call:
``require_strip_sigma`` and ``require_strip_ell``.

Naming maps the targets to their constants:

    line L product      ->  joint_l_line_constant        C(ell)
    strip L product     ->  joint_l_strip_constant       S(sigma, ell)
    line logderiv       ->  joint_logderiv_line_constant Q(ell)
    strip logderiv      ->  joint_logderiv_strip_constant H(sigma, ell)

"log_2" in the sources is the iterated logarithm, so the additive constant
in C(ell) is log log 4 ~ 0.3266 (the printed check value ~1.33 for ell = 1
forces this reading).  Binomial coefficients come from math.comb, which is
exact at every size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arithmetic import harmonic, prime_power_tail_constant, require_positive
from .lfunctions import EULER_GAMMA

__all__ = [
    "AdmissibleRange",
    "LOG_LOG_4",
    "joint_l_line_constant",
    "joint_l_strip_constant",
    "joint_l_strip_constant_alt",
    "joint_logderiv_line_constant",
    "joint_logderiv_line_coefficient",
    "joint_logderiv_strip_constant",
    "resonator_mass_integral",
    "strip_l_inequality_slack",
    "strip_logderiv_inequality_slack",
    "strip_l_admissible_range",
    "strip_logderiv_admissible_range",
    "default_strip_epsilon",
    "strip_logderiv_poly_params",
    "binomial_beta_identity_check",
    "require_strip_sigma",
    "strip_ell_limit",
    "max_ell_for_sigma",
    "require_strip_ell",
]

LOG_LOG_4 = math.log(math.log(4.0))


@dataclass(frozen=True)
class AdmissibleRange:
    """An open/closed interval of admissible parameter values.

    Emptiness (upper <= lower) is representable and must be reported, never
    silently clamped.
    """

    name: str
    lower: float
    upper: float
    lower_open: bool
    upper_open: bool
    source: str

    @property
    def is_empty(self) -> bool:
        return not (self.lower < self.upper)

    @property
    def midpoint(self) -> float:
        if self.is_empty:
            raise ValueError(f"admissible range for {self.name} is empty")
        return 0.5 * (self.lower + self.upper)


def require_strip_sigma(sigma: float) -> None:
    """Raise ValueError unless sigma lies in the open strip (1/2, 1)."""
    if not (0.5 < sigma < 1.0):
        raise ValueError(f"sigma must lie in (1/2, 1), got {sigma}")


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


def require_strip_ell(sigma: float, ell: int) -> None:
    """Raise ValueError unless sigma is in the strip and 1 <= ell < 1/(2 - 2 sigma)
    (strip logderiv target)."""
    require_strip_sigma(sigma)
    require_positive("ell", ell)
    limit = strip_ell_limit(sigma)
    if not ell < limit:
        raise ValueError(
            f"the strip logderiv target needs 1 <= ell < 1/(2 - 2 sigma) "
            f"= {limit:g}; got ell = {ell}"
        )


def joint_l_line_constant(ell: int) -> float:
    """C(ell) = (ell + 1)/2 + log log 4."""
    require_positive("ell", ell)
    return (ell + 1) / 2.0 + LOG_LOG_4


def joint_l_strip_constant(sigma: float, ell: int) -> float:
    """S(sigma, ell) = ell/(1-sigma)
    + sum_{m=1}^{ell} (-1)^m C(ell+1, m+1) / (1 + sigma (m-1))."""
    require_strip_sigma(sigma)
    require_positive("ell", ell)
    terms = [ell / (1.0 - sigma)]
    for m in range(1, ell + 1):
        terms.append((-1) ** m * math.comb(ell + 1, m + 1) / (1.0 + sigma * (m - 1)))
    return math.fsum(terms)


def joint_l_strip_constant_alt(sigma: float, ell: int) -> float:
    """The other printed form of S(sigma, ell), with the m = 1 term written
    out as -(ell+1) ell / 2; agrees with the first to rounding."""
    require_strip_sigma(sigma)
    require_positive("ell", ell)
    terms = [ell / (1.0 - sigma), -((ell + 1) * ell) / 2.0]
    for m in range(2, ell + 1):
        terms.append((-1) ** m * math.comb(ell + 1, m + 1) / (1.0 + sigma * (m - 1)))
    return math.fsum(terms)


def joint_logderiv_line_coefficient(tolerance: float = 1e-6) -> float:
    """1 - log log 4 - gamma - sum_p log p/(p(p-1)), the per-ell coefficient
    in Q(ell); approximately -0.659."""
    return 1.0 - LOG_LOG_4 - EULER_GAMMA - prime_power_tail_constant(tolerance)


def joint_logderiv_line_constant(ell: int) -> float:
    """Q(ell) = ell * (1 - loglog4 - gamma - sum_p log p/(p(p-1)))
    - (ell+1) H_ell.  Always negative; ~ -ell log ell for large ell."""
    require_positive("ell", ell)
    return ell * joint_logderiv_line_coefficient() - (ell + 1) * harmonic(ell)


def joint_logderiv_strip_constant(sigma: float, ell: int) -> float:
    """H(sigma, ell) = prod_{j<=ell} ( j!/(1-sigma) * prod_{m<j} (m + 1/sigma)^-1 )."""
    require_strip_sigma(sigma)
    require_positive("ell", ell)
    out = 1.0
    for j in range(1, ell + 1):
        denom = 1.0
        for m in range(j):
            denom *= m + 1.0 / sigma
        out *= math.factorial(j) / (1.0 - sigma) / denom
    return out


def resonator_mass_integral(sigma: float, tolerance: float = 1e-10) -> float:
    """c(sigma) = integral_0^1 dt / (2 t^-sigma - 1), as an exact series.

    The integrand is t^sigma / (2 - t^sigma) = sum_{k>=1} (t^sigma / 2)^k,
    and integrating term by term gives c(sigma) = sum_{k>=1} 2^-k / (k sigma + 1).
    The terms past K total less than 2^-K, so the sum stops at the first K
    with 2^-K <= tolerance.
    """
    require_strip_sigma(sigma)
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    n_terms = max(1, math.ceil(-math.log2(tolerance)))
    return math.fsum(2.0**-k / (k * sigma + 1.0) for k in range(1, n_terms + 1))


# ---------------------------------------------------------------------------
# admissibility inequalities for the strip targets
# ---------------------------------------------------------------------------

def strip_l_inequality_slack(kappa: float, sigma: float) -> float:
    """RHS - LHS of  2 kappa sigma + (9/4 - 3 sigma/2)/(7/4 - sigma/2)
    < 1 + kappa sigma (1 - c(sigma)); positive means satisfied strictly."""
    c = resonator_mass_integral(sigma)
    lhs = 2.0 * kappa * sigma + (2.25 - 1.5 * sigma) / (1.75 - 0.5 * sigma)
    rhs = 1.0 + kappa * sigma * (1.0 - c)
    return rhs - lhs


def strip_logderiv_inequality_slack(eta: float, sigma: float, eps: float) -> float:
    """RHS - LHS of  2 eta sigma + 3(1 - sigma + eps)/(2 - sigma + eps)
    < 1 + eta sigma (1 - c(sigma))."""
    c = resonator_mass_integral(sigma)
    lhs = 2.0 * eta * sigma + 3.0 * (1.0 - sigma + eps) / (2.0 - sigma + eps)
    rhs = 1.0 + eta * sigma * (1.0 - c)
    return rhs - lhs


def strip_l_admissible_range(sigma: float) -> AdmissibleRange:
    """kappa in (0, (1 - E)/(sigma (1 + c(sigma)))) with
    E = (9/4 - 3 sigma/2)/(7/4 - sigma/2); open at both ends."""
    require_strip_sigma(sigma)
    c = resonator_mass_integral(sigma)
    numer = 1.0 - (2.25 - 1.5 * sigma) / (1.75 - 0.5 * sigma)
    upper = numer / (sigma * (1.0 + c)) if numer > 0 else 0.0
    return AdmissibleRange(
        name="kappa", lower=0.0, upper=upper, lower_open=True, upper_open=True,
        source="strip-l-zero-density-admissibility",
    )


def default_strip_epsilon(sigma: float) -> float:
    """Default eps for the strip logderiv admissibility: min(0.01, (sigma-1/2)/10)."""
    return min(0.01, (sigma - 0.5) / 10.0)


def strip_logderiv_admissible_range(sigma: float, eps: float | None = None) -> AdmissibleRange:
    """eta in (0, (1 - E')/(sigma (1 + c(sigma)))) with
    E' = 3(1 - sigma + eps)/(2 - sigma + eps); honestly empty when E' >= 1."""
    require_strip_sigma(sigma)
    if eps is None:
        eps = default_strip_epsilon(sigma)
    if not (0.0 < eps < sigma - 0.5):
        raise ValueError(f"eps must lie in (0, sigma - 1/2) = (0, {sigma - 0.5:g}), got {eps}")
    c = resonator_mass_integral(sigma)
    numer = 1.0 - 3.0 * (1.0 - sigma + eps) / (2.0 - sigma + eps)
    upper = numer / (sigma * (1.0 + c)) if numer > 0 else 0.0
    return AdmissibleRange(
        name="eta", lower=0.0, upper=upper, lower_open=True, upper_open=True,
        source="strip-logderiv-zero-density-admissibility",
    )


def strip_logderiv_poly_params(sigma: float, ell: int) -> tuple[float, float]:
    """(omega, beta_min) for the strip logderiv polynomial approximation.

    omega must lie in ((1-sigma)(ell-1), sigma - 1/2); we take the midpoint
    (membership is all that is required).  beta_min = 1/(omega - (1-sigma)(ell-1))
    and is always > 1 on the admissible range.  For every ell that
    ``require_strip_ell`` admits the interval width (1-sigma)(limit - ell) is
    positive (> 5e-10 unless 1 - sigma < 1e-9), so omega and beta_min are finite.
    """
    require_strip_ell(sigma, ell)
    lower = (1.0 - sigma) * (ell - 1)
    upper = sigma - 0.5
    omega = 0.5 * (lower + upper)
    beta_min = 1.0 / (omega - lower)
    if not beta_min > 1.0:
        raise AssertionError("beta_min <= 1 should be impossible for omega < 1/2")
    return omega, beta_min


def binomial_beta_identity_check(j: int, sigma: float) -> tuple[float, float, float]:
    """(lhs, rhs, gap) for  sum_{k=0}^{j} (-1)^k C(j,k)/(k + alpha) = B(alpha, j+1)
    with alpha = (1 - sigma)/sigma, the rhs via log-Gamma."""
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    if not (0.0 < sigma < 1.0):
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    alpha = (1.0 - sigma) / sigma
    lhs = math.fsum(
        (-1) ** k * math.comb(j, k) / (k + alpha) for k in range(j + 1)
    )
    rhs = math.exp(
        math.lgamma(alpha) + math.lgamma(j + 1) - math.lgamma(alpha + j + 1)
    )
    return lhs, rhs, abs(lhs - rhs)
