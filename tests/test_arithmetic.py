"""Sieve, multiplicative tables, and prime-sum constants."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_resonance import arithmetic
from dirichlet_resonance.arithmetic import (
    PrecisionError,
    build_dlog,
    enumerate_smooth,
    exact_sum,
    harmonic,
    is_prime,
    mertens_product,
    prime_power_tail_constant,
    prime_powers_up_to,
    primes_up_to,
    primitive_root,
    sieve_primes,
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

    def test_cached_tables_are_read_only(self):
        # every caller shares these arrays, so one in-place write would
        # corrupt every later run in the process
        tables = (sieve_primes(10).primes, primes_up_to(1000),
                  *prime_powers_up_to(1000), *prime_powers_up_to(1))
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[:1] = 0
        assert primes_up_to(1000)[:4].tolist() == [2, 3, 5, 7]


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
        assert enumerate_smooth(3, 10) == (1, 2, 3, 4, 6, 8, 9)
        assert enumerate_smooth(2, 8) == (1, 2, 4, 8)
        assert len(enumerate_smooth(5, 30)) == len(brute_smooth(5, 30)) == 18

    @settings(max_examples=25, deadline=None)
    @given(x=st.integers(2, 20), cap=st.integers(1, 3000))
    def test_matches_brute_filter(self, x, cap):
        assert list(enumerate_smooth(x, cap)) == brute_smooth(x, cap)

    def test_large_cap_is_cheap(self):
        members = enumerate_smooth(3, 10**9)
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

    @pytest.mark.parametrize("limit", [3, 100003, 1 << 22, 1 << 24])
    def test_segmented_sum_has_the_bits_of_one_sieve(self, fresh_store, limit):
        ps = sieve_primes(limit).primes.astype(np.float64)
        whole = math.fsum((np.log(ps) / (ps * (ps - 1.0))).tolist())
        got = prime_power_tail_constant.__wrapped__(1e-6, sieve_limit=limit)  # uncached
        assert got.hex() == whole.hex()
        assert arithmetic._STORE.primes.limit == 1  # the shared prime table did not grow

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


def fresh_primes(limit):
    return sieve_primes(limit).primes if limit >= 2 else np.empty(0, dtype=np.int64)


def loop_prime_powers(limit):
    """The per-prime Python loop the vectorised table replaced."""
    ns, ws = [], []
    for p in fresh_primes(limit):
        p = int(p)
        lp = math.log(p)
        n = p
        while n <= limit:
            ns.append(n)
            ws.append(lp)
            n *= p
    order = np.argsort(np.asarray(ns, dtype=np.int64), kind="stable")
    return np.asarray(ns, dtype=np.int64)[order], np.asarray(ws, dtype=np.float64)[order]


@pytest.fixture
def fresh_store(monkeypatch):
    """An empty process prime table for the test, so it grows from scratch."""
    monkeypatch.setattr(arithmetic, "_STORE", arithmetic._PrimeStore())


class TestPrimePowersUpTo:
    @pytest.mark.parametrize("limits", [range(3000), (10**4, 10**5 + 3, 10**6)],
                             ids=["below-3000", "1e4-1e5+3-1e6"])
    def test_matches_the_python_loop_bitwise(self, fresh_store, limits):
        for limit in limits:
            for ns, ws in (prime_powers_up_to(limit), arithmetic._prime_power_table(limit)):
                ref_ns, ref_ws = loop_prime_powers(limit)
                assert ns.dtype == ref_ns.dtype and ws.dtype == ref_ws.dtype, limit
                assert np.array_equal(ns, ref_ns), limit
                assert np.array_equal(ws.view(np.int64), ref_ws.view(np.int64)), limit


_LIMITS = (0, 1, 2, 3, 4, 10, 97, 100, 1000, 4096, 10**4 + 7, 65537)


class TestSharedPrimeTable:
    """primes_up_to and prime_powers_up_to are prefixes of one table per
    process, grown to the largest limit asked for so far."""

    @pytest.mark.parametrize("limits", [_LIMITS, _LIMITS[::-1],
                                        (1000, 10, 1000, 1000, 2, 65537, 65537, 3, 1000)],
                             ids=["ascending", "descending", "repeated"])
    def test_prefixes_match_a_fresh_sieve_and_the_loop(self, fresh_store, limits):
        for limit in limits:
            ps = primes_up_to(limit)
            ns, ws = prime_powers_up_to(limit)
            ref_ns, ref_ws = loop_prime_powers(limit)
            assert ps.dtype == np.int64 and ps.tobytes() == fresh_primes(limit).tobytes(), limit
            assert ns.dtype == ref_ns.dtype and ns.tobytes() == ref_ns.tobytes(), limit
            assert ws.dtype == ref_ws.dtype and ws.tobytes() == ref_ws.tobytes(), limit
            for table in (ps, ns, ws):
                with pytest.raises(ValueError, match="read-only"):
                    table[:1] = 0

    def test_grown_only_past_its_largest_limit(self, fresh_store):
        primes_up_to(1000)
        table = arithmetic._STORE.primes
        assert table.limit == 1000
        for limit in (10, 999, 1000, 2, 0):
            primes_up_to(limit)
            assert arithmetic._STORE.primes is table
        assert primes_up_to(1001)[-1] == 997 and arithmetic._STORE.primes.limit == 1001
        prime_powers_up_to(500)
        powers = arithmetic._STORE.powers
        prime_powers_up_to(100)
        assert arithmetic._STORE.powers is powers and arithmetic._STORE.powers_limit == 500
        assert arithmetic._STORE.primes.limit == 1001  # built from the prime table's prefix


def same_double(a, b):
    """Bitwise equality of two doubles: nan matches nan, and 0.0 and -0.0 differ."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1, a) == math.copysign(1, b)


_CUT = arithmetic._EXACT_SUM_MIN
_RNG = np.random.default_rng(20260)


def _padded(head, n=_CUT + 1):
    """``head`` followed by zeros up to length n, so the binned path runs."""
    out = np.zeros(max(n, len(head)))
    out[: len(head)] = head
    return out


def _shuffled(values):
    out = np.asarray(values, dtype=np.float64).copy()
    _RNG.shuffle(out)
    return out


def _adversarial(kind, n):
    signs = _RNG.choice([-1.0, 1.0], n)
    if kind == "mixed-magnitudes":
        return signs * 10.0 ** _RNG.uniform(-300, 300, n)
    if kind == "subnormals":
        return signs * _RNG.integers(1, 2**52, n) * 2.0**-1074
    if kind == "mirrored":
        half = 10.0 ** _RNG.uniform(-20, 20, n // 2)
        return _shuffled(np.concatenate([half, -half, [2.0**-1074] * (n % 2)]))
    if kind == "cancellation":
        big = _RNG.uniform(1e15, 1e16, n // 2)
        near = -big + _RNG.uniform(-1, 1, n // 2)
        return _shuffled(np.concatenate([big, near, [1e-30] * (n % 2)]))
    return signs * np.exp(_RNG.normal(0, 5, n))


class TestExactSum:
    """exact_sum returns the correctly rounded sum, the double math.fsum gives,
    on both sides of its math.fsum cut-off."""

    @pytest.mark.parametrize("values", [
        _padded([1.0, 2.0**-53]),  # a half-ulp tie rounds to even: 1.0
        _padded([1.0 + 2.0**-52, 2.0**-53]),  # ... and here up
        _padded([1.0] + [2.0**-63] * 1024),  # a tie built from many pieces
        _padded([1.0] + [2.0**-63] * 1024 + [2.0**-1074]),  # a sticky bit breaks it
        _padded([-1.0, -(2.0**-53)]),
        _padded([2.0**1000, 1.0, -(2.0**1000)]),  # full cancellation of a huge term
        _shuffled(np.concatenate([np.arange(1.0, 1501.0), -np.arange(1.0, 1501.0)])),
        np.zeros(_CUT + 1), -np.zeros(_CUT + 1), _padded([-0.0, 0.0, -0.0]),
        _padded([2.0**-1074] * 3), _padded([-(2.0**-1022), 2.0**-1074]),
        _padded([1e300, 1e-300, -1e300, 1e-300]),
        _padded([math.ulp(1.0) / 2] * 2000 + [1.0], n=2001),
    ], ids=["tie-even-down", "tie-even-up", "tie-many-pieces", "tie-sticky", "negative-tie",
            "cancel-huge", "cancel-mirrored", "zeros", "negative-zeros", "mixed-zeros",
            "subnormal", "subnormal-normal-edge", "cancel-1e300", "ulp-halves"])
    def test_hand_cases(self, values):
        want = math.fsum(values.tolist())
        assert same_double(exact_sum(values), want)
        assert same_double(float(sum(map(Fraction, values.tolist()))), want)

    @pytest.mark.parametrize("n", [0, 1, _CUT - 1, _CUT, _CUT + 1, 5000])
    @pytest.mark.parametrize("kind", ["mixed-magnitudes", "subnormals", "mirrored",
                                      "cancellation", "lognormal"])
    def test_adversarial_arrays_match_fsum_and_fractions(self, kind, n):
        for _ in range(4):
            values = _adversarial(kind, n)
            got = exact_sum(values)
            assert same_double(got, math.fsum(values.tolist())), (kind, n)
            assert same_double(got, float(sum(map(Fraction, values.tolist())))), (kind, n)

    @pytest.mark.parametrize("kind", ["mixed-magnitudes", "subnormals", "lognormal"])
    def test_a_million_terms_match_fsum(self, kind):
        values = _adversarial(kind, 10**6)
        assert same_double(exact_sum(values), math.fsum(values.tolist()))

    def test_views_and_lists_are_accepted(self):
        z = _RNG.normal(size=3000) + 1j * _RNG.normal(size=3000)
        for part in (z.real, z.imag, z.real[::3]):
            assert same_double(exact_sum(part), math.fsum(part.tolist()))
        assert same_double(exact_sum([0.1] * 2000), math.fsum([0.1] * 2000))

    @pytest.mark.parametrize("n", [3, _CUT + 1])
    def test_non_finite_values_behave_as_in_fsum(self, n):
        assert math.isnan(exact_sum(_padded([1.0, math.nan], n)))
        assert exact_sum(_padded([1.0, math.inf], n)) == math.inf
        assert exact_sum(_padded([1.0, -math.inf], n)) == -math.inf
        for values in (_padded([math.inf, -math.inf], n), _padded([1e308] * 3, n),
                       _padded([-1.7e308, -1.7e308], n)):
            with pytest.raises(Exception) as fsum_err:
                math.fsum(values.tolist())
            with pytest.raises(fsum_err.type):
                exact_sum(values)
