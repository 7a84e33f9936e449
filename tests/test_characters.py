"""Character evaluation, group structure, eligibility, orthogonality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_resonance.arithmetic import sieve_primes
from dirichlet_resonance.characters import (
    CharacterGroup,
    eligible,
    orthogonality_sum,
)

PRIMES_TO_1000 = [int(p) for p in sieve_primes(1000).primes if p >= 3]


def euler_phi(n):
    out = n
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


@pytest.fixture(scope="module")
def g5():
    return CharacterGroup(5)


@pytest.fixture(scope="module")
def g7():
    return CharacterGroup(7)


class TestEvaluation:
    def test_root_table_invariants(self, g7):
        assert g7.root_table[0] == 1.0 + 0.0j
        assert np.max(np.abs(np.abs(g7.root_table) - 1.0)) < 1e-14

    def test_q5_chi1_at_2_is_i(self, g5):
        # g = 2 mod 5, so dlog(2) = 1 and chi_1(2) = e^{2 pi i / 4} = i
        assert g5.dlog.g == 2
        val = g5.character(1)(2)
        assert val == pytest.approx(1j, abs=1e-15)

    def test_value_at_one_and_multiples_of_q(self, g5):
        for a in range(g5.order):
            assert g5.character(a)(1) == 1.0 + 0.0j
            assert g5.character(a)(10) == 0.0j
            assert g5.character(a)(0) == 0.0j

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.sampled_from([5, 7, 11, 101]),
        a=st.integers(0, 120),
        m=st.integers(0, 10**6),
        n=st.integers(0, 10**6),
    )
    def test_complete_multiplicativity(self, q, a, m, n):
        group = CharacterGroup(q)
        chi = group.character(a)
        assert chi(m * n) == pytest.approx(chi(m) * chi(n), abs=1e-12)

    def test_multiplicativity_500_fixed_pairs_per_q(self):
        rng = np.random.RandomState(0)
        for q in (5, 7, 11, 101):
            group = CharacterGroup(q)
            chi = group.character(1)
            for _ in range(500):
                m, n = int(rng.randint(1, 10**6)), int(rng.randint(1, 10**6))
                assert chi(m * n) == pytest.approx(chi(m) * chi(n), abs=1e-12)

    def test_conjugation_is_exact(self, g7):
        for a in range(g7.order):
            chi = g7.character(a)
            bar = chi.conjugate()
            assert bar.index == (g7.order - a) % g7.order
            for n in range(1, 30):
                assert bar(n) == complex(chi(n)).conjugate()

    def test_value_row_matches_scalar(self, g7):
        ns = np.arange(0, 50, dtype=np.int64)
        for a in (0, 1, 3):
            row = g7.character(a).values(ns)
            for i, n in enumerate(ns):
                assert row[i] == g7.character(a)(int(n))

    def test_values_matrix_matches_scalar(self, g5):
        ns = np.arange(0, 12, dtype=np.int64)
        mat = g5.values_matrix(ns)
        for k in range(g5.order):
            for i, n in enumerate(ns):
                assert mat[k, i] == g5.character(k)(int(n))


class TestGroupStructure:
    def test_order_examples(self, g7):
        assert g7.character(2).order() == 3  # 6/gcd(2,6)
        assert g7.character(0).order() == 1
        assert g7.character(1).order() == 6

    def test_power_examples(self, g7):
        assert g7.character(2).power(3).index == 0
        assert g7.character(2).power(1) == g7.character(2)
        assert g7.character(5).power(2).index == 4

    def test_power_agrees_with_value_powers(self, g7):
        chi = g7.character(2)
        for j in range(1, 5):
            pw = chi.power(j)
            for n in range(1, 15):
                assert pw(n) == pytest.approx(chi(n) ** j, abs=1e-12)
        # j = 0 is the principal character (still 0 at multiples of q)
        assert chi.power(0).is_principal
        assert chi.power(0)(7) == 0.0j

    def test_power_to_own_order_is_principal_to_1000(self):
        for q in PRIMES_TO_1000:
            group = CharacterGroup(q)
            order = group.order
            for a in range(order):
                assert (a * (order // math.gcd(a, order))) % order == 0

    def test_power_object_route_small(self):
        for q in (5, 7, 11, 13, 31):
            group = CharacterGroup(q)
            for chi in group.characters():
                assert chi.power(chi.order()).is_principal


class TestEligible:
    def test_examples(self, g7, g5):
        assert np.flatnonzero(eligible(g7, 2)).tolist() == [1, 2, 4, 5]
        assert not eligible(g7, 6).any()
        assert np.flatnonzero(eligible(g5, 1)).tolist() == [1, 2, 3]

    def test_count_matches_divisor_sum_oracle(self):
        for q in (7, 11, 31, 101, 499):
            group = CharacterGroup(q)
            for ell in (1, 2, 3, 5):
                count = int(eligible(group, ell).sum())
                oracle = sum(
                    euler_phi(d)
                    for d in range(1, q)
                    if (q - 1) % d == 0 and d > ell
                )
                assert count == oracle

    def test_members_have_large_order(self):
        group = CharacterGroup(101)
        for ell in (1, 2, 3):
            for a in np.flatnonzero(eligible(group, ell)):
                assert group.character(a).order() > ell

    def test_ell_validation(self, g5):
        with pytest.raises(ValueError):
            eligible(g5, 0)


class TestOrthogonality:
    def test_examples(self, g5, g7):
        assert orthogonality_sum(g5, 2, 2) == pytest.approx(4.0, abs=1e-12)
        assert orthogonality_sum(g5, 2, 3) == pytest.approx(0.0, abs=1e-12)
        assert orthogonality_sum(g7, 9, 2) == pytest.approx(6.0, abs=1e-12)

    @pytest.mark.parametrize("q", [5, 7, 11, 101])
    def test_kronecker_delta_contract(self, q):
        group = CharacterGroup(q)
        phi = q - 1
        for m in range(q):
            for n in range(q):
                got = orthogonality_sum(group, m, n)
                want = phi if (m % q == n % q and n % q != 0) else 0.0
                assert abs(got - want) <= 1e-9 * phi, (q, m, n)
