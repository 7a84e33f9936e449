"""Closed-form constants, admissibility ranges, and the Beta/Gamma identities."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dirichlet_resonance.constants import (
    LOG_LOG_4,
    binomial_beta_identity_check,
    default_strip_epsilon,
    joint_l_line_constant,
    joint_l_strip_constant,
    joint_l_strip_constant_alt,
    joint_logderiv_line_coefficient,
    joint_logderiv_line_constant,
    joint_logderiv_strip_constant,
    require_finite,
    resonator_mass_integral,
    strip_l_admissible_range,
    strip_l_inequality_slack,
    strip_logderiv_admissible_range,
    strip_logderiv_inequality_slack,
    strip_logderiv_poly_params,
)
from dirichlet_resonance.experiments import ConfigError, ExperimentConfig

SIGMA_GRID = [0.51 + 0.024 * i for i in range(20)]


class TestLineLConstant:
    def test_ell_1_matches_printed_value(self):
        c1 = joint_l_line_constant(1)
        assert c1 == pytest.approx(1.0 + LOG_LOG_4, rel=1e-15)
        assert 1.32 <= c1 <= 1.34

    def test_formula(self):
        assert joint_l_line_constant(2) == pytest.approx(1.5 + LOG_LOG_4, rel=1e-15)
        assert joint_l_line_constant(3) == pytest.approx(2.0 + LOG_LOG_4, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            joint_l_line_constant(0)


class TestStripLConstant:
    def test_ell_1_closed_form(self):
        for sigma in SIGMA_GRID:
            want = sigma / (1.0 - sigma)
            assert joint_l_strip_constant(sigma, 1) == pytest.approx(want, rel=1e-12)

    def test_three_term_arithmetic(self):
        # sigma = 3/4, ell = 2: 8 - 3 + 1/1.75
        want = 8.0 - 3.0 + 1.0 / 1.75
        assert joint_l_strip_constant(0.75, 2) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("ell", range(1, 11))
    def test_both_printed_forms_agree(self, ell):
        for sigma in (0.6, 0.75, 0.9):
            a = joint_l_strip_constant(sigma, ell)
            b = joint_l_strip_constant_alt(sigma, ell)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.51, 0.6, 0.75, 0.9, 0.999])
    @pytest.mark.parametrize("ell", [1, 10, 40, 60, 100, 200])
    def test_matches_exact_rationals_at_large_ell(self, sigma, ell):
        # the printed alternating sum, in exact arithmetic on the double sigma
        s = Fraction(sigma)
        exact = ell / (1 - s) + sum((-1) ** m * math.comb(ell + 1, m + 1) / (1 + s * (m - 1))
                                    for m in range(1, ell + 1))
        got = joint_l_strip_constant(sigma, ell)
        assert abs(Fraction(got) - exact) <= 1e-13 * abs(exact)

    def test_finite_far_past_float_binomials(self):
        # math.comb(1101, m) overflows a float; the closed form never forms it
        assert math.isfinite(joint_l_strip_constant(0.75, 1100))


class TestLineLogderivConstant:
    def test_coefficient_band(self):
        assert joint_logderiv_line_coefficient() == pytest.approx(-0.659, abs=1e-3)

    def test_ell_1(self):
        want = joint_logderiv_line_coefficient() - 2.0
        assert joint_logderiv_line_constant(1) == pytest.approx(want, rel=1e-12)
        assert joint_logderiv_line_constant(1) == pytest.approx(-2.659, abs=2e-3)

    def test_always_negative_and_decreasing(self):
        vals = [joint_logderiv_line_constant(ell) for ell in range(1, 12)]
        assert all(v < 0 for v in vals)
        assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))

    def test_large_ell_trend(self):
        # Q(ell) ~ -ell log ell
        ell = 10**6
        ratio = joint_logderiv_line_constant(ell) / (-ell * math.log(ell))
        assert 0.85 <= ratio <= 1.15


class TestStripLogderivConstant:
    def test_ell_1_closed_form(self):
        for sigma in SIGMA_GRID:
            want = sigma / (1.0 - sigma)
            assert joint_logderiv_strip_constant(sigma, 1) == pytest.approx(want, rel=1e-12)

    def test_two_factor_arithmetic(self):
        # sigma = 3/4, ell = 2: 3 * 18/7 = 54/7
        assert joint_logderiv_strip_constant(0.75, 2) == pytest.approx(54.0 / 7.0, rel=1e-13)

    def test_large_ell_stays_finite_or_raises(self):
        # j! overflows a float from j = 171; the running product never forms it
        h170, h171 = (joint_logderiv_strip_constant(0.75, ell) for ell in (170, 171))
        assert h171 == pytest.approx(h170 * math.exp(
            math.lgamma(172) - math.lgamma(171 + 4 / 3) + math.lgamma(4 / 3)) / 0.25, rel=1e-11)
        with pytest.raises(ValueError, match="not a finite normal double"):
            joint_logderiv_strip_constant(0.75, 1100)  # underflows
        with pytest.raises(ValueError, match="not a finite normal double"):
            require_finite("x", math.inf)

    def test_growth_trend_toward_sigma_1(self):
        # log H(sigma, 5) / (-5 log(1 - sigma)) approaches 1 from inside [0.5, 1.5]
        ell = 5
        ratios = []
        for sigma in (0.9, 0.99, 0.999):
            h = joint_logderiv_strip_constant(sigma, ell)
            ratios.append(math.log(h) / (-ell * math.log(1.0 - sigma)))
        assert all(0.5 <= r <= 1.5 for r in ratios)
        assert abs(ratios[2] - 1.0) <= abs(ratios[1] - 1.0) <= abs(ratios[0] - 1.0)

    def test_per_factor_beta_form(self):
        # factor_j = (1/sigma) B(alpha, j+1) / (1 - sigma) * sigma ... checked via
        # the identity sum_k (-1)^k C(j,k)/(1+(k-1)sigma) = (1/sigma) B(alpha, j+1)
        sigma = 0.75
        alpha = (1.0 - sigma) / sigma
        for j in (1, 2, 3, 4):
            lhs = math.fsum(
                (-1) ** k * math.comb(j, k) / (1.0 + (k - 1) * sigma)
                for k in range(j + 1)
            )
            rhs = (1.0 / sigma) * math.exp(
                math.lgamma(alpha) + math.lgamma(j + 1) - math.lgamma(alpha + j + 1)
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestResonatorMassIntegral:
    def test_in_unit_interval(self):
        for sigma in (0.55, 0.6, 0.75, 0.9, 0.95):
            c = resonator_mass_integral(sigma)
            assert 0.0 < c < 1.0

    def test_monotone_decreasing(self):
        # the integrand t^sigma/(2 - t^sigma) decreases pointwise in sigma on
        # (0, 1), so c(sigma) is strictly decreasing; cross-checked against a
        # midpoint Riemann oracle
        grid = [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95]
        vals = [resonator_mass_integral(s) for s in grid]
        assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
        n = 200000
        t = (np.arange(n) + 0.5) / n
        for s, v in zip(grid, vals):
            riemann = float(np.mean(1.0 / (2.0 * t ** (-s) - 1.0)))
            assert v == pytest.approx(riemann, abs=5e-9)

    def test_tolerance_halving_stability(self):
        a = resonator_mass_integral(0.75, 1e-10)
        b = resonator_mass_integral(0.75, 5e-11)
        assert abs(a - b) < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            resonator_mass_integral(1.0)

    def test_series_matches_adaptive_quadrature(self):
        quad = pytest.importorskip("scipy.integrate").quad
        for sigma in (0.55, 0.6, 0.75, 0.9, 0.95):
            want, _ = quad(lambda t: 1.0 / (2.0 * t ** (-sigma) - 1.0), 0.0, 1.0,
                           epsabs=1e-14, epsrel=1e-14, limit=200)
            assert abs(resonator_mass_integral(sigma, 1e-17) - want) <= 1e-15
            assert abs(resonator_mass_integral(sigma) - want) <= 1e-10


def test_package_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, dirichlet_resonance; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


class TestStripLAdmissibility:
    def test_upper_endpoint_formula(self):
        sigma = 0.75
        c = resonator_mass_integral(sigma)
        want = (1.0 - 9.0 / 11.0) / (sigma * (1.0 + c))
        rng = strip_l_admissible_range(sigma)
        assert rng.upper == pytest.approx(want, rel=1e-10)
        assert (rng.name, rng.lower) == ("kappa", 0.0)

    def test_numerator_positive_above_half(self):
        for sigma in np.linspace(0.52, 0.98, 24):
            numer = 1.0 - (2.25 - 1.5 * sigma) / (1.75 - 0.5 * sigma)
            assert numer > 0.0

    @pytest.mark.parametrize("sigma", [0.6, 0.75, 0.9])
    def test_non_empty_and_sharp(self, sigma):
        rng = strip_l_admissible_range(sigma)
        assert not rng.is_empty
        assert strip_l_inequality_slack(rng.midpoint, sigma) > 0.0
        assert strip_l_inequality_slack(rng.upper * 1.01, sigma) < 0.0


def test_strip_bounds_and_slacks_keep_their_printed_bits():
    # both targets share one bound (1 - E)/(sigma (1 + c)) and one slack;
    # each must round exactly as its own printed formula does
    for sigma in SIGMA_GRID:
        c = resonator_mass_integral(sigma)
        eps = default_strip_epsilon(sigma)
        targets = (
            ((2.25 - 1.5 * sigma) / (1.75 - 0.5 * sigma), strip_l_admissible_range(sigma),
             lambda p: strip_l_inequality_slack(p, sigma)),
            (3.0 * (1.0 - sigma + eps) / (2.0 - sigma + eps), strip_logderiv_admissible_range(sigma),
             lambda p: strip_logderiv_inequality_slack(p, sigma, eps)),
        )
        for e, rng, slack in targets:
            assert rng.upper == (1.0 - e) / (sigma * (1.0 + c)), sigma
            for param in (rng.midpoint, rng.upper * 1.01, 0.3):
                want = (1.0 + param * sigma * (1.0 - c)) - (2.0 * param * sigma + e)
                assert slack(param) == want, (sigma, param)


class TestStripLogderivAdmissibility:
    def test_upper_endpoint_formula(self):
        sigma, eps = 0.9, 0.01
        c = resonator_mass_integral(sigma)
        want = (1.0 - 3.0 * (1.0 - sigma + eps) / (2.0 - sigma + eps)) / (
            sigma * (1.0 + c)
        )
        rng = strip_logderiv_admissible_range(sigma, eps)
        assert rng.upper == pytest.approx(want, rel=1e-10)
        assert not rng.is_empty

    def test_emptiness_limit_and_representation(self):
        # The upper-endpoint numerator is (2 sigma - 1 - 2 eps)/(2 - sigma + eps),
        # so an admissible eps < sigma - 1/2 always leaves the range non-empty;
        # emptiness only appears in the sigma -> 1/2 limit where eps leaves its
        # domain.  Check the limit on the formula and the representation itself.
        for eps in (0.001, 0.01):
            numer = 1.0 - 3.0 * (0.5 + eps) / (1.5 + eps)
            assert numer < 0.0
        from dirichlet_resonance.constants import AdmissibleRange

        empty = AdmissibleRange("eta", 0.0, 0.0)
        assert empty.is_empty
        with pytest.raises(ValueError):
            _ = empty.midpoint
        # just inside the domain the range is non-empty but collapses with eps
        wide = strip_logderiv_admissible_range(0.51, 0.001)
        narrow = strip_logderiv_admissible_range(0.51, 0.009)
        assert 0.0 < narrow.upper < wide.upper

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            strip_logderiv_admissible_range(0.75, 0.3)
        with pytest.raises(ValueError):
            strip_logderiv_admissible_range(0.75, 0.0)

    def test_default_eps(self):
        assert default_strip_epsilon(0.9) == pytest.approx(0.01)
        assert default_strip_epsilon(0.52) == pytest.approx(0.002)

    @pytest.mark.parametrize("sigma", [0.6, 0.75, 0.9])
    def test_non_empty_and_sharp_with_default_eps(self, sigma):
        eps = default_strip_epsilon(sigma)
        rng = strip_logderiv_admissible_range(sigma, eps)
        assert not rng.is_empty
        assert strip_logderiv_inequality_slack(rng.midpoint, sigma, eps) > 0.0
        assert strip_logderiv_inequality_slack(rng.upper * 1.01, sigma, eps) < 0.0


class TestStripPolyParams:
    def test_example(self):
        omega, beta_min = strip_logderiv_poly_params(0.9, 2)
        assert omega == pytest.approx(0.25, rel=1e-14)
        assert beta_min == pytest.approx(1.0 / 0.15, rel=1e-12)
        assert beta_min > 1.0

    def test_boundary_is_empty(self):
        with pytest.raises(ValueError):
            strip_logderiv_poly_params(0.75, 2)  # ell = 1/(2 - 2 sigma) exactly

    def test_same_verdict_as_validated(self):
        # one rule: a theorem-4 config validates exactly when (omega, beta)
        # exist, including at the snapped integer limits (0.75 -> 2, 0.9 -> 5)
        # and just beside them (0.750000000375: limit 2.000000003)
        sigmas = [0.51 + 0.02 * i for i in range(25)] + [
            0.75, 0.9, 5.0 / 6.0, 0.875, 11.0 / 12.0,
            0.750000000375, 0.749999999625, 0.9000000001, 0.8999999999,
        ]
        for sigma in sigmas:
            for ell in range(1, 7):
                try:
                    ExperimentConfig(4, 101, ell, x=20.0, y=1000, sigma=sigma).validated()
                    valid = True
                except ConfigError:
                    valid = False
                try:
                    omega, beta = strip_logderiv_poly_params(sigma, ell)
                    has_params = math.isfinite(omega) and math.isfinite(beta) and beta > 1.0
                except ValueError:
                    has_params = False
                assert valid == has_params, (sigma, ell)

    def test_ell_one_interval(self):
        omega, beta_min = strip_logderiv_poly_params(0.8, 1)
        assert 0.0 < omega < 0.3
        assert beta_min > 1.0


class TestBetaIdentity:
    def test_j1_alpha1(self):
        # sigma = 1/2 gives alpha = 1: 1/1 - 1/2 = 1/2 = B(1, 2)
        lhs, rhs, gap = binomial_beta_identity_check(1, 0.5)
        assert lhs == pytest.approx(0.5, rel=1e-14)
        assert rhs == pytest.approx(0.5, rel=1e-12)
        assert gap < 1e-12

    def test_j3_sigma_three_quarters(self):
        _, _, gap = binomial_beta_identity_check(3, 0.75)
        assert gap < 1e-12

    @pytest.mark.parametrize("sigma", [0.6, 0.75, 0.9])
    def test_gap_small_up_to_j10(self, sigma):
        for j in range(11):
            _, _, gap = binomial_beta_identity_check(j, sigma)
            assert gap < 1e-10

    def test_alternating_harmonic_corollary(self):
        # sum_{m=1}^{j} (-1)^m C(j,m)/m = -H_j, spot j = 2: -2 + 1/2 = -3/2
        for j in (1, 2, 5, 8):
            lhs = math.fsum((-1) ** m * math.comb(j, m) / m for m in range(1, j + 1))
            h_j = math.fsum(1.0 / k for k in range(1, j + 1))
            assert lhs == pytest.approx(-h_j, rel=1e-12)


class TestCrossIdentities:
    def test_s_equals_h_at_ell_1_on_grid(self):
        for sigma in SIGMA_GRID:
            s_val = joint_l_strip_constant(sigma, 1)
            h_val = joint_logderiv_strip_constant(sigma, 1)
            assert s_val == pytest.approx(h_val, rel=1e-12)
