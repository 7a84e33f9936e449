"""Truncated evaluators, the special-function oracles, and exact L-values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_resonance import lfunctions
from dirichlet_resonance.arithmetic import PrecisionError, prime_powers_up_to, primes_up_to
from dirichlet_resonance.characters import CharacterGroup
from dirichlet_resonance.lfunctions import (
    EULER_GAMMA,
    NearZeroLValue,
    _hurwitz_zeta_reg,
    digamma,
    exact_l,
    exact_l_all,
    exact_logderiv,
    hurwitz_zeta,
    joint_l_product,
    joint_logderiv_product,
    logderiv_poly,
    logderiv_poly_all,
    prime_sum_all,
    truncated_l,
    truncated_l_all,
)
from full_group import bits

GOLDEN_L5 = 2.0 * math.log((1.0 + math.sqrt(5.0)) / 2.0) / math.sqrt(5.0)
ODD_L3 = math.pi / (3.0 * math.sqrt(3.0))


@pytest.fixture(scope="module")
def g5():
    return CharacterGroup(5)


@pytest.fixture(scope="module")
def g7():
    return CharacterGroup(7)


class TestTruncatedL:
    def test_principal_small_product(self, g5):
        # only p = 2, 3 contribute: (1 - 1/2)^-1 (1 - 1/3)^-1 = 3
        val = truncated_l(g5.character(0), 1.0, 3)
        assert val.value == pytest.approx(3.0, rel=1e-14)

    def test_empty_product(self, g5):
        assert bits(truncated_l(g5.character(1), 1.0, 1).value) == bits(complex(1.0, 0.0))

    def test_quadratic_against_class_number(self, g5):
        val = truncated_l(g5.character(2), 1.0, 10**6).value
        assert abs(val - GOLDEN_L5) < 1e-3

    def test_conjugate_pairing_exact(self, g7):
        for a in range(1, g7.order):
            chi = g7.character(a)
            v = truncated_l(chi, 1.0, 500).value
            vbar = truncated_l(g7.character(-a), 1.0, 500).value
            assert vbar == complex(v).conjugate()

    def test_sigma_validation(self, g5):
        with pytest.raises(ValueError):
            truncated_l(g5.character(1), 0.4, 100)
        with pytest.raises(ValueError):
            truncated_l(g5.character(1), 1.2, 100)

    def test_cutoff_budget(self, g5):
        with pytest.raises(PrecisionError):
            truncated_l(g5.character(1), 1.0, 10**9)


class TestLogderivPoly:
    def test_principal_three_terms(self, g5):
        want = math.log(2) / 2 + math.log(3) / 3 + math.log(2) / 4
        got = logderiv_poly(g5.character(0), 1.0, 4)
        assert got.value == pytest.approx(want, rel=1e-14)

    def test_empty_sum(self, g5):
        assert bits(logderiv_poly(g5.character(1), 1.0, 1).value) == bits(complex(0.0, 0.0))

    def test_additivity_in_cutoff(self, g7):
        chi = g7.character(1)
        lo, hi = 50, 200
        ns, logps = prime_powers_up_to(hi)
        mask = ns > lo
        extra = sum(
            complex(chi(int(n))) * lp / float(n)
            for n, lp in zip(ns[mask], logps[mask])
        )
        got = logderiv_poly(chi, 1.0, hi).value - logderiv_poly(chi, 1.0, lo).value
        assert got == pytest.approx(extra, abs=1e-13)


class TestJointProducts:
    def test_single_factor(self, g7):
        chi = g7.character(1)
        assert joint_l_product(chi, 1, 1.0, 100) == truncated_l(chi, 1.0, 100).value
        assert joint_logderiv_product(chi, 1, 1.0, 100) == logderiv_poly(chi, 1.0, 100).value

    def test_modulus_multiplicative(self, g7):
        chi = g7.character(1)
        prod = joint_l_product(chi, 2, 1.0, 100)
        mods = abs(truncated_l(chi, 1.0, 100).value) * abs(
            truncated_l(chi.power(2), 1.0, 100).value
        )
        assert abs(prod) == pytest.approx(mods, rel=1e-12)

    def test_factor_by_factor_recomputation(self, g7):
        chi = g7.character(1)
        expect = 1 + 0j
        for j in (1, 2):
            expect *= truncated_l(g7.character((1 * j) % 6), 1.0, 100).value
        assert joint_l_product(chi, 2, 1.0, 100) == pytest.approx(expect, rel=1e-13)

    def test_conjugate_real_parts_agree(self, g7):
        chi = g7.character(1)
        a = joint_logderiv_product(chi, 2, 1.0, 300)
        b = joint_logderiv_product(g7.character(-1), 2, 1.0, 300)
        assert a.real == pytest.approx(b.real, rel=1e-12)

    def test_double_sum_expansion_q11(self):
        # prod_{j<=2} D_j equals the expanded double sum over (n1, n2).
        group = CharacterGroup(11)
        chi = group.character(1)
        y = 10**3
        ns, logps = prime_powers_up_to(y)
        d1 = chi.values(ns) * (logps / ns.astype(float))
        d2 = chi.power(2).values(ns) * (logps / ns.astype(float))
        brute = np.sum(np.outer(d1, d2))
        got = joint_logderiv_product(chi, 2, 1.0, y)
        assert got == pytest.approx(complex(brute), rel=1e-9)

    @pytest.mark.parametrize("q,ell", [(7, 2), (31, 3)])
    def test_multinomial_expansion(self, q, ell):
        group = CharacterGroup(q)
        chi = group.character(1)
        y = 200
        ns, logps = prime_powers_up_to(y)
        vecs = [
            chi.power(j).values(ns) * (logps / ns.astype(float))
            for j in range(1, ell + 1)
        ]
        brute = vecs[0]
        for v in vecs[1:]:
            brute = np.outer(brute, v).ravel()
        want = complex(np.sum(brute))
        got = joint_logderiv_product(chi, ell, 1.0, y)
        assert got == pytest.approx(want, rel=1e-9)


class TestVectorizedAgainstScalar:
    @pytest.mark.parametrize("q,sigma,y", [(7, 1.0, 300), (11, 0.75, 200), (31, 0.9, 500)])
    def test_all_three_vector_paths(self, q, sigma, y):
        group = CharacterGroup(q)
        lvec = truncated_l_all(group, sigma, y)
        dvec = logderiv_poly_all(group, sigma, y)
        from dirichlet_resonance.arithmetic import primes_up_to

        ps = primes_up_to(y)
        ps = ps[ps != q]
        for k in range(group.order):
            chi = group.character(k)
            assert lvec[k] == pytest.approx(truncated_l(chi, sigma, y).value, rel=1e-12)
            assert dvec[k] == pytest.approx(logderiv_poly(chi, sigma, y).value, abs=1e-12)
        avec = prime_sum_all(group, sigma, y)
        chi = group.character(1)
        scalar = sum(complex(chi(int(p))) * float(p) ** (-sigma) for p in ps)
        assert avec[1] == pytest.approx(scalar, abs=1e-12)


_U = 2.0**-53
_ODD_PRIMES = [int(p) for p in primes_up_to(2000)[1:]]


def _gather_bound(order, tail, scale, n_ref, n_bucket):
    """Stated bound on |fast - gather| for one character sum, in the units of
    ``scale`` (an upper bound on the sum of |term| on either side).

    tail       the series terms the transform drops (truncated_l_all only);
    n_bucket   np.bincount adds at most n_bucket terms per bucket in order:
               (n_bucket - 1) u scale (Higham, 2nd ed., section 4.2);
    log2 order the DFT: each output is a unit-modulus combination of the
               buckets through at most ceil(log2 order) butterfly levels of
               relative error 8u each (Higham, section 24.1: mu + gamma_4
               (sqrt 2 + mu) < 8u for twiddles accurate to u);
    n_ref      the reference gather sums n_ref terms in any order: (n_ref - 1) u scale;
    6          rounding of each term's weight and root-of-unity product.
    """
    levels = math.ceil(math.log2(order)) if order > 1 else 0
    return _U * (tail + (n_bucket + n_ref + 8 * levels + 6) * scale)


class TestDlogTransform:
    """The three DFT-based vectors against the direct values_matrix gather."""

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.sampled_from(_ODD_PRIMES),
        sigma=st.floats(0.5, 1.0, exclude_min=True),
        y=st.integers(1, 5000),
    )
    def test_matches_direct_gather(self, q, sigma, y):
        group = CharacterGroup(q)
        order = group.order
        ps = primes_up_to(y)
        ps = ps[ps != q]
        a = ps.astype(np.float64) ** (-sigma)
        d = group.dlog.dlog[ps % q]
        mat = group.values_matrix(ps)

        # prime sum: one term per prime, bucketed by dlog(p)
        got = prime_sum_all(group, sigma, y)
        want = mat @ a
        most = int(np.bincount(d, minlength=1).max(initial=0))
        tol = _gather_bound(order, 0.0, a.sum(), len(ps), most)
        assert np.max(np.abs(got - want), initial=0.0) <= tol

        # -L'/L polynomial: one term per prime power prime to q
        ns, logps = prime_powers_up_to(y)
        keep = ns % q != 0
        w = logps[keep] * ns[keep].astype(np.float64) ** (-sigma)
        got = logderiv_poly_all(group, sigma, y)
        want = group.values_matrix(ns[keep]) @ w
        most = int(np.bincount(group.dlog.dlog[ns[keep] % q], minlength=1).max(initial=0))
        tol = _gather_bound(order, 0.0, w.sum(), len(w), most)
        assert np.max(np.abs(got - want), initial=0.0) <= tol

        # L(sigma, chi; y): log L against sum_p -log(1 - chi(p) p^-sigma).
        # a/(1-a) bounds the weights of p's series, |log(1 - chi(p) a)| and
        # its conditioning.  The transform keeps ceil(log(u (1-a)) / log a)
        # terms per prime (+1 covers a different rounding of the logs), and no
        # bucket holds more than all of them.
        got = truncated_l_all(group, sigma, y)
        log_want = np.sum(-np.log(1.0 - mat * a), axis=1)
        want = np.exp(log_want)
        n_terms = int(np.sum(np.ceil(np.log(_U * (1.0 - a)) / np.log(a)) + 1.0))
        tol = _gather_bound(order, a.sum(), np.sum(a / (1.0 - a)), len(ps), n_terms)
        rel = tol * math.exp(tol) + 4.0 * _U  # exp turns the log error relative
        assert np.all(np.abs(got - want) <= rel * np.abs(want))

    @settings(max_examples=20, deadline=None)
    @given(
        q=st.sampled_from(_ODD_PRIMES),
        sigma=st.floats(0.5, 1.0, exclude_min=True),
        y=st.integers(1, 5000),
    )
    def test_conjugate_symmetry_and_repeats_are_exact(self, q, sigma, y):
        group = CharacterGroup(q)
        ks = np.arange(group.order)
        for fn in (truncated_l_all, prime_sum_all, logderiv_poly_all):
            vec = fn(group, sigma, y)
            assert np.array_equal(vec[(-ks) % group.order], np.conj(vec))
            assert fn(CharacterGroup(q), sigma, y).tobytes() == vec.tobytes()


_EVALUATORS = {
    "truncated_l": lambda g, y: truncated_l(g.character(1), 1.0, y),
    "logderiv_poly": lambda g, y: logderiv_poly(g.character(1), 1.0, y),
    "truncated_l_all": lambda g, y: truncated_l_all(g, 1.0, y),
    "prime_sum_all": lambda g, y: prime_sum_all(g, 1.0, y),
    "logderiv_poly_all": lambda g, y: logderiv_poly_all(g, 1.0, y),
}


class TestCutoffGuard:
    @pytest.mark.parametrize("name", sorted(_EVALUATORS))
    @pytest.mark.parametrize("y,error", [(0, ValueError), (10**8 + 1, PrecisionError)])
    def test_rejected_before_any_sieve(self, g5, monkeypatch, name, y, error):
        def no_sieve(limit):
            raise AssertionError(f"sieved to {limit} before checking the cutoff")

        monkeypatch.setattr(lfunctions, "primes_up_to", no_sieve)
        monkeypatch.setattr(lfunctions, "prime_powers_up_to", no_sieve)
        with pytest.raises(error) as info:
            _EVALUATORS[name](g5, y)
        assert (info.type is PrecisionError) == (error is PrecisionError)


class TestHurwitzZeta:
    def test_known_values(self):
        assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6, abs=1e-10)
        # zeta(s, 1/2) = (2^s - 1) zeta(s) at s = 2
        assert hurwitz_zeta(2.0, 0.5) == pytest.approx(3.0 * math.pi**2 / 6, abs=1e-10)

    @pytest.mark.parametrize("s", [0.75, 2.0])
    def test_half_shift_closed_form(self, s):
        # zeta(s, 1/2) = (2^s - 1) zeta(s, 1)
        want = (2.0**s - 1.0) * hurwitz_zeta(s, 1.0)
        assert hurwitz_zeta(s, 0.5) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("s", [0.6, 0.75, 0.9, 1.5, 2.0])
    def test_multiplication_formula(self, s):
        # sum_{k<n} zeta(s, (a+k)/n) = n^s zeta(s, a), to 1e-13 of the largest term
        for a in (0.1, 0.37, 1.0):
            for n in (2, 3, 7):
                terms = [hurwitz_zeta(s, (a + k) / n) for k in range(n)]
                scale = max(map(abs, terms))
                assert abs(math.fsum(terms) - n**s * hurwitz_zeta(s, a)) <= 1e-13 * scale, (a, n)

    def test_pole_and_domain(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(1.0, 0.5)
        with pytest.raises(ValueError):
            hurwitz_zeta(0.3, 0.5)
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 1.5)

    def test_regularized_limit_matches_digamma(self):
        # lim_{s->1} (zeta(s,a) - 1/(s-1)) = -psi(a)
        for a in (0.25, 0.5, 0.8, 1.0):
            assert _hurwitz_zeta_reg(1.0, a) == pytest.approx(-digamma(a), abs=1e-12)

    def test_regularized_closed_forms_at_s_2(self):
        # zeta(2, a) - 1 at a = 1, 1/2, 1/4: pi^2/6, pi^2/2 and pi^2 + 8 G, G Catalan's constant
        catalan = 0.915965594177219015
        for a, zeta in ((1.0, math.pi**2 / 6), (0.5, math.pi**2 / 2), (0.25, math.pi**2 + 8 * catalan)):
            assert _hurwitz_zeta_reg(2.0, a) == pytest.approx(zeta - 1.0, rel=1e-14), a


class TestDigamma:
    def test_known_values(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2 * math.log(2), abs=1e-12)

    def test_recurrence(self):
        x = 0.7
        assert digamma(x + 1) == pytest.approx(digamma(x) + 1 / x, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            digamma(0.0)


class TestExactL:
    def test_class_number_values(self, g5):
        assert exact_l(g5.character(2), 1.0).value == pytest.approx(GOLDEN_L5, abs=1e-10)
        g3 = CharacterGroup(3)
        assert exact_l(g3.character(1), 1.0).value == pytest.approx(ODD_L3, abs=1e-10)

    def test_principal_rejected(self, g5):
        with pytest.raises(ValueError):
            exact_l(g5.character(0), 1.0)

    def test_strip_value_against_truncation(self, g5):
        chi = g5.character(2)
        ex = exact_l(chi, 0.75).value
        tr = truncated_l(chi, 0.75, 10**6).value
        assert abs(tr - ex) / abs(ex) < 0.05

    def test_exact_l_all_matches_scalar(self):
        group = CharacterGroup(11)
        for sigma in (1.0, 0.8):
            vec = exact_l_all(group, sigma)
            assert np.isnan(vec[0].real)
            for k in range(1, group.order):
                assert vec[k] == pytest.approx(
                    exact_l(group.character(k), sigma).value, abs=1e-12
                )

    def test_conjugate_symmetry(self, g7):
        for sigma in (1.0, 0.8):
            a = exact_l(g7.character(1), sigma).value
            b = exact_l(g7.character(5), sigma).value
            assert b == pytest.approx(complex(a).conjugate(), abs=1e-12)


class TestExactLogderiv:
    def test_against_dirichlet_poly(self, g5):
        chi = g5.character(2)
        oracle = exact_logderiv(chi, 1.0).value
        poly = logderiv_poly(chi, 1.0, 10**6).value
        assert abs(oracle - (-poly)) < 1e-2

    def test_richardson_self_consistency(self, g5):
        chi = g5.character(2)
        a = exact_logderiv(chi, 0.9, h=1e-4).value
        b = exact_logderiv(chi, 0.9, h=5e-5).value
        assert abs(a - b) < 1e-8

    def test_conjugate_symmetry(self, g7):
        a = exact_logderiv(g7.character(1), 0.9).value
        b = exact_logderiv(g7.character(5), 0.9).value
        assert b == pytest.approx(complex(a).conjugate(), abs=1e-9)

    def test_real_character_gives_real_value(self, g5):
        val = exact_logderiv(g5.character(2), 1.0).value
        assert abs(val.imag) < 1e-10

    def test_domain(self, g5):
        with pytest.raises(ValueError):
            exact_logderiv(g5.character(0), 1.0)
        with pytest.raises(ValueError):
            exact_logderiv(g5.character(2), 0.52)

    def test_near_zero_is_reported_not_inverted(self, g5, monkeypatch):
        # no small-q L-value on (0.55, 1] is actually near zero, so force one
        import dirichlet_resonance.lfunctions as lf

        monkeypatch.setattr(lf, "_exact_l_value", lambda chi, s: 1e-9 + 0j)
        with pytest.raises(NearZeroLValue):
            lf.exact_logderiv(g5.character(2), 0.9)


class TestTruncationEnvelope:
    @pytest.mark.parametrize("q", [5, 31, 101])
    def test_decade_maxima(self, q):
        group = CharacterGroup(q)
        exact = exact_l_all(group, 1.0)
        grid = [10**2, 10**3, 10**4, 10**5, 10**6]
        maxima = []
        for y in grid:
            tl = truncated_l_all(group, 1.0, y)
            errs = [
                abs(tl[k] - exact[k]) for k in range(1, group.order)
            ]
            maxima.append(max(errs))
        assert maxima[3] < 1e-2  # Y = 1e5
        # non-increasing from 1e3 on
        assert maxima[1] >= maxima[2] >= maxima[3] >= maxima[4]
