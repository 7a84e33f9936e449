"""Sieve, multiplicative tables, and prime-sum constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_resonance import arithmetic
from dirichlet_resonance.arithmetic import (
    PrecisionError,
    build_dlog,
    enumerate_smooth,
    harmonic,
    is_prime,
    mertens_product,
    prime_power_tail_constant,
    primitive_root,
    sieve_primes,
    von_mangoldt,
)
from dirichlet_resonance.lfunctions import EULER_GAMMA


def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, int(math.isqrt(n)) + 1)):
            out.append(n)
    return out


def brute_smooth(x, cap):
    out = []
    for n in range(1, cap + 1):
        m = n
        for p in trial_division_primes(x):
            while m % p == 0:
                m //= p
        if m == 1:
            out.append(n)
    return out


class TestSievePrimes:
    def test_small(self):
        assert sieve_primes(10).primes.tolist() == [2, 3, 5, 7]
        assert sieve_primes(2).primes.tolist() == [2]

    def test_against_trial_division(self):
        table = sieve_primes(100)
        oracle = trial_division_primes(100)
        assert table.primes.tolist() == oracle
        assert len(oracle) == 25 and oracle[-1] == 97

    def test_empty_domain(self):
        with pytest.raises(ValueError):
            sieve_primes(1)

    def test_strictly_increasing(self):
        ps = sieve_primes(10**4).primes
        assert np.all(np.diff(ps) > 0)


class TestVonMangoldt:
    def test_examples(self):
        assert von_mangoldt(8) == pytest.approx(math.log(2), rel=1e-15)
        assert von_mangoldt(6) == 0.0
        assert von_mangoldt(7) == pytest.approx(math.log(7), rel=1e-15)
        assert von_mangoldt(1) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            von_mangoldt(0)

    def test_prime_power_support_up_to_1e4(self):
        # Lambda(n) != 0 iff n is a prime power, cross-checked by factorization.
        for n in range(1, 10**4 + 1):
            m, distinct = n, 0
            for p in range(2, int(math.isqrt(n)) + 1):
                if m % p == 0:
                    distinct += 1
                    while m % p == 0:
                        m //= p
            if m > 1 and m != n:
                distinct += 1
            is_pp = (distinct == 1 and m == 1) or (distinct == 0 and n > 1)
            assert (von_mangoldt(n) != 0.0) == is_pp, n


class TestPrimitiveRoot:
    @staticmethod
    def exhaustive_smallest_root(q):
        for g in range(2, q):
            seen = set()
            acc = 1
            for _ in range(q - 1):
                seen.add(acc)
                acc = acc * g % q
            if len(seen) == q - 1:
                return g
        raise AssertionError

    def test_examples(self):
        assert primitive_root(7) == self.exhaustive_smallest_root(7) == 3
        assert primitive_root(5) == self.exhaustive_smallest_root(5) == 2
        assert primitive_root(3) == 2

    def test_matches_oracle_for_many_primes(self):
        for q in trial_division_primes(200)[1:]:
            assert primitive_root(q) == self.exhaustive_smallest_root(q)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            primitive_root(15)
        with pytest.raises(ValueError):
            primitive_root(2)


class TestDiscreteLog:
    def test_power_enumeration_examples(self):
        t7 = build_dlog(7)
        assert pow(t7.g, t7.of(2), 7) == 2
        assert t7.of(2) == 2  # 3^2 = 9 = 2 mod 7
        assert t7.of(1) == 0
        t5 = build_dlog(5)
        assert t5.of(4) == 2  # 2^2 = 4

    def test_inverts_powers_of_g(self):
        # pow is the independent reference below 2000 and at 10007
        for q in trial_division_primes(2000)[1:] + [10007]:
            t = build_dlog(q)
            assert t.dlog.dtype == np.int64 and t.dlog[0] == -1
            assert all(pow(t.g, k, q) == a for a, k in enumerate(t.dlog.tolist()[1:], 1))
        # at 1000003 the reference is the q-step power loop
        q = 1000003
        t = build_dlog(q)
        ref = [-1] * q
        acc = 1
        for k in range(q - 1):
            ref[acc] = k
            acc = acc * t.g % q
        assert t.dlog.tolist() == ref

    def test_int64_bound_raises_before_allocating(self, monkeypatch):
        q = 3_037_000_507  # the first prime above the bound
        assert is_prime(q)
        monkeypatch.setattr(arithmetic, "np", None)  # any array use would raise AttributeError
        with pytest.raises(PrecisionError, match="3037000500"):
            build_dlog(q)

    def test_zero_class_rejected(self):
        t = build_dlog(11)
        with pytest.raises(ValueError):
            t.of(22)


class TestEnumerateSmooth:
    def test_examples(self):
        assert enumerate_smooth(3, 10).members == (1, 2, 3, 4, 6, 8, 9)
        assert enumerate_smooth(2, 8).members == (1, 2, 4, 8)
        assert len(enumerate_smooth(5, 30)) == len(brute_smooth(5, 30)) == 18

    @settings(max_examples=25, deadline=None)
    @given(x=st.integers(2, 20), cap=st.integers(1, 3000))
    def test_matches_brute_filter(self, x, cap):
        assert list(enumerate_smooth(x, cap).members) == brute_smooth(x, cap)

    def test_large_cap_is_cheap(self):
        members = enumerate_smooth(3, 10**9).members
        assert members[0] == 1 and members[-1] <= 10**9
        assert all(members[i] < members[i + 1] for i in range(len(members) - 1))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            enumerate_smooth(1, 10)
        with pytest.raises(ValueError):
            enumerate_smooth(2, 0)


class TestHarmonic:
    def test_examples(self):
        assert harmonic(1) == 1.0
        assert harmonic(3) == pytest.approx(11.0 / 6.0, rel=1e-15)
        assert harmonic(10) == pytest.approx(sum(1.0 / k for k in range(1, 11)), rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            harmonic(0)

    @given(j=st.integers(1, 200))
    def test_monotone(self, j):
        assert harmonic(j + 1) > harmonic(j)


class TestPrimePowerTailConstant:
    def test_two_term_partial_sum(self):
        got = prime_power_tail_constant(tolerance=1e-6, sieve_limit=3)
        assert got == pytest.approx(math.log(2) / 2 + math.log(3) / 6, rel=1e-15)

    def test_full_constant(self):
        assert prime_power_tail_constant(1e-6) == pytest.approx(0.755366, abs=2e-6)

    def test_line_logderiv_coefficient(self):
        # 1 - loglog4 - gamma - constant, the printed check value ~ -0.659
        coeff = (
            1.0 - math.log(math.log(4.0)) - EULER_GAMMA - prime_power_tail_constant(1e-6)
        )
        assert coeff == pytest.approx(-0.659, abs=1e-3)

    def test_default_cutoff_within_tolerance_of_a_deeper_sieve(self):
        # the Rosser-Schoenfeld tail bound stops the sieve at 2^22 for 1e-6
        deep = prime_power_tail_constant(1e-6, sieve_limit=1 << 24)
        assert abs(prime_power_tail_constant(1e-6) - deep) <= 1e-6

    def test_stable_under_sieve_doubling(self):
        tol = 1e-4
        base_limit = 1 << 19
        a = prime_power_tail_constant(tol, sieve_limit=base_limit)
        b = prime_power_tail_constant(tol, sieve_limit=2 * base_limit)
        assert abs(a - b) < tol

    def test_precision_error(self):
        with pytest.raises(PrecisionError):
            prime_power_tail_constant(1e-9)
        with pytest.raises(ValueError):
            prime_power_tail_constant(-1.0)


class TestMertensProduct:
    def test_small_exact(self):
        assert mertens_product(3) == pytest.approx(3.0, rel=1e-14)
        assert mertens_product(10) == pytest.approx(4.375, rel=1e-14)

    def test_lower_bound_at_1e4(self):
        x = 10**4
        floor = math.exp(EULER_GAMMA) * math.log(x) * (1 - 1 / (2 * math.log(x) ** 2))
        assert mertens_product(x) >= floor

    @pytest.mark.parametrize("x", [10**3, 10**4, 10**5])
    def test_two_sided_band(self, x):
        ratio = mertens_product(x) / (math.exp(EULER_GAMMA) * math.log(x))
        assert 1 - 1 / (2 * math.log(x) ** 2) <= ratio <= 1 + 1 / math.log(x) ** 2

    def test_domain_error(self):
        with pytest.raises(ValueError):
            mertens_product(2)
