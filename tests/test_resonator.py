"""Kernels, resonator weights, S1/S2, the congruence oracle, and the bounds."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_resonance.arithmetic import prime_powers_up_to, primes_up_to
from dirichlet_resonance.characters import CharacterGroup, power_reduce
from dirichlet_resonance.constants import max_ell_for_sigma
from dirichlet_resonance.experiments import ExperimentConfig, run_theorem
from dirichlet_resonance.lfunctions import (logderiv_poly_all, prime_sum_all, truncated_l,
                                            truncated_l_all)
from dirichlet_resonance.resonator import (
    CongruenceS1,
    LinearKernel,
    SigmaKernel,
    bound_l_product,
    bound_logderiv_product,
    bound_prime_sum,
    joint_product,
    p_j,
    p_j_linear_asymptotic,
    p_j_sigma_asymptotic,
    resonator_sq,
    resonator_sq_all,
    s1,
    s1_congruence_oracle,
    s2_terms,
)
from full_group import full_resonator_sq, unfold

S1_CLOSED_FORM = 4.0 * (81.0 / 80.0) ** 2 * (820.0 / 729.0)

_U = 2.0**-53
_ODD_PRIMES = [int(p) for p in primes_up_to(3000) if p >= 3]


def _kernels(x):
    return st.one_of(st.just(LinearKernel(x)),
                     st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)
                     .map(lambda sg: SigmaKernel(x, sg)))


def _support(kernel, q):
    ps = primes_up_to(math.floor(kernel.x))
    ps = ps[ps != q]
    return ps, kernel.prime_values(ps)


def _rsq_rel_bound(rv):
    """Relative bound 2u (6 kappa + 8 n + 4), kappa = sum_p (1 + r)/(1 - r),
    on the gap between the half-angle weights and a root-table gather.

    Per prime, f = |1 - r e^{i theta}|^2 >= (1 - r)^2.  Half-angle path:
    the table angle pi e/N carries <= 3u relative error, which moves sin by
    <= 3u (x cot x <= 1 on [0, pi/2]); sin, the square, (1 - r)^2, 4 r s
    and the sum of two non-negative terms round once each, so f is within
    11u.  Gather path: the angle 2 pi e/N carries <= 3u theta, which moves f
    by <= 6u (2 r theta sin(theta) <= 2 f); the root's rounding (1.5u) and
    r w move 1 - r w by <= 2.5u r, i.e. 2.5u r/(1 - r) relative, and the
    subtraction adds u; the square doubles that, abs and the square add 3u,
    so f is within 11u + 5u r/(1 - r) <= 11u + 2.5u (1 + r)/(1 - r).  The
    n-fold product and the division add (n + 1)u per path.  First order:
    u (2.5 kappa + 24 n + 2) <= u (12 kappa + 16 n + 8) since kappa >= n,
    and the slack between the two covers every second-order term.
    """
    kappa = math.fsum(((1.0 + rv) / (1.0 - rv)).tolist())
    return 2.0 * _U * (6.0 * kappa + 8.0 * len(rv) + 4.0)


@pytest.fixture(scope="module")
def g5():
    return CharacterGroup(5)


@pytest.fixture(scope="module")
def g7():
    return CharacterGroup(7)


def _at(kernel, *ps):
    return kernel.prime_values(np.asarray(ps, dtype=np.int64)).tolist()


class TestKernels:
    def test_linear_examples(self):
        k = LinearKernel(10.0)
        r2, r11 = _at(k, 2, 11)
        assert r2 == pytest.approx(0.8, rel=1e-15)
        assert r11 == 0.0

    def test_sigma_example(self):
        k = SigmaKernel(16.0, 0.75)
        assert _at(k, 2)[0] == pytest.approx(1.0 - 0.125**0.75, rel=1e-14)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            SigmaKernel(16.0, 1.0)
        with pytest.raises(ValueError):
            SigmaKernel(16.0, 0.5)

    @pytest.mark.parametrize(
        "kernel", [LinearKernel(50.0), SigmaKernel(50.0, 0.75)]
    )
    def test_values_in_unit_interval_and_monotone(self, kernel):
        ps = primes_up_to(100)
        vals = kernel.prime_values(ps)
        assert np.all(vals >= 0.0) and np.all(vals < 1.0)
        assert np.all(vals[ps > 50] == 0.0)
        on_support = vals[ps <= 50]
        assert np.all(np.diff(on_support) <= 0)

    def test_real_valued_x_support_is_floor(self):
        r7, r11 = _at(LinearKernel(10.9), 7, 11)
        assert r7 > 0
        assert r11 == 0.0


class TestResonatorSq:
    def test_principal_one_factor(self, g5):
        # X = 3: r(2) = 1/3, r(3) = 0, so only p = 2 contributes
        assert resonator_sq(g5.character(0), LinearKernel(3.0)) == pytest.approx(
            2.25, rel=1e-14
        )

    def test_chi_of_2_equals_i(self, g5):
        # |1 - i/3|^-2 = 9/10
        assert resonator_sq(g5.character(1), LinearKernel(3.0)) == pytest.approx(
            0.9, rel=1e-14
        )

    def test_empty_kernel(self, g5):
        assert resonator_sq(g5.character(1), LinearKernel(1.5)) == 1.0

    def test_all_matches_scalar(self, g7):
        kernel = SigmaKernel(6.0, 0.8)
        vec = unfold(resonator_sq_all(g7, kernel))
        for k in range(g7.order):
            assert vec[k] == pytest.approx(
                resonator_sq(g7.character(k), kernel), rel=1e-13
            )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), q=st.sampled_from(_ODD_PRIMES), x=st.floats(2.0, 80.0))
    def test_half_angle_matches_gather_and_scalar(self, data, q, x):
        kernel = data.draw(_kernels(x))
        group = CharacterGroup(q)
        got = unfold(resonator_sq_all(group, kernel))
        ps, rv = _support(kernel, q)
        tol = _rsq_rel_bound(rv)
        mat = group.values_matrix(ps)
        want = 1.0 / np.prod(np.abs(1.0 - rv * mat) ** 2, axis=1)
        assert np.all(np.abs(got - want) <= tol * want)
        picks = {0, group.order // 2, data.draw(st.integers(0, group.order - 1))}
        for k in picks:
            scalar = resonator_sq(group.character(k), kernel)
            assert abs(got[k] - scalar) <= tol * scalar

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), q=st.sampled_from(_ODD_PRIMES), x=st.floats(2.0, 80.0))
    def test_conjugates_and_repeats_are_exact(self, data, q, x):
        # the half k <= N/2 is all there is: the prime-major product over the
        # whole group gives chi_{N-k} the bits of chi_k
        kernel = data.draw(_kernels(x))
        group = CharacterGroup(q)
        vec = resonator_sq_all(group, kernel)
        full = full_resonator_sq(group, kernel)
        ks = np.arange(group.order)
        assert np.array_equal(full[(-ks) % group.order], full)
        assert unfold(vec).tobytes() == full.tobytes()
        assert resonator_sq_all(CharacterGroup(q), kernel).tobytes() == vec.tobytes()


_stream_group = functools.cache(CharacterGroup)


class TestResonatorSqStreaming:
    @pytest.mark.parametrize("q", [101, 1009, 10007, 19997, 100003])
    @pytest.mark.parametrize("x", [7.08, 14.6, 40.0])
    @pytest.mark.parametrize("sigma", [None, 0.75])
    def test_bitwise_equal_to_prime_major_product(self, q, x, sigma):
        kernel = LinearKernel(x) if sigma is None else SigmaKernel(x, sigma)
        group = _stream_group(q)
        got = unfold(resonator_sq_all(group, kernel))
        assert got.tobytes() == full_resonator_sq(group, kernel).tobytes()

    @pytest.mark.parametrize("q", [101, 10007])
    def test_empty_support_is_all_ones(self, q):
        group = _stream_group(q)
        got = unfold(resonator_sq_all(group, LinearKernel(1.5)))
        assert got.tobytes() == np.ones(group.order).tobytes()
        assert got.tobytes() == full_resonator_sq(group, LinearKernel(1.5)).tobytes()


def test_resonator_sq_working_set_does_not_grow_with_primes():
    # one prime at a time: a fixed handful of length-N buffers, so the
    # peak is the same bound at P = 12 and P = 46
    order = 100002
    assert (len(primes_up_to(40)), len(primes_up_to(200))) == (12, 46)
    for x in (40.0, 200.0):
        group = CharacterGroup(100003)
        tracemalloc.start()
        try:
            resonator_sq_all(group, LinearKernel(x))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * order * 8, (x, peak)


class TestS1:
    def test_four_character_enumeration(self, g5):
        assert s1(g5, LinearKernel(3.0)) == pytest.approx(
            2.25 + 0.9 + 0.5625 + 0.9, abs=1e-13
        )

    def test_empty_kernel_gives_phi(self, g5):
        assert s1(g5, LinearKernel(1.0)) == 4.0

    def test_at_least_phi(self):
        for q in (7, 31, 101):
            group = CharacterGroup(q)
            assert s1(group, LinearKernel(20.0)) >= q - 1

    def test_congruence_oracle_closed_form(self, g5):
        got = s1_congruence_oracle(g5, LinearKernel(3.0), 3**20)
        assert isinstance(got, CongruenceS1)
        assert got.value == pytest.approx(S1_CLOSED_FORM, abs=1e-12)
        assert abs(got.value - s1(g5, LinearKernel(3.0))) <= max(got.tail_bound, 1e-12)

    def test_oracle_cap_one(self, g5):
        got = s1_congruence_oracle(g5, LinearKernel(3.0), 1)
        assert got.value == 4.0  # phi(q) * r(1)^2

    def test_tail_bound_non_increasing(self, g5):
        kernel = LinearKernel(3.0)
        caps = [1, 10, 100, 10**4, 10**6]
        tails = [s1_congruence_oracle(g5, kernel, c).tail_bound for c in caps]
        assert all(tails[i] >= tails[i + 1] for i in range(len(tails) - 1))

    def test_oracle_random_case_within_tail(self):
        group = CharacterGroup(11)
        kernel = LinearKernel(7.0)
        got = s1_congruence_oracle(group, kernel, 10**7)
        assert abs(got.value - s1(group, kernel)) <= got.tail_bound

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), q=st.sampled_from(_ODD_PRIMES[:45]), x=st.floats(2.0, 12.0))
    def test_matches_congruence_oracle_within_tail(self, data, q, x):
        """The oracle's capped sum never exceeds S1 and falls short of it by
        at most its tail bound.  Slack: each S1 weight is within
        _rsq_rel_bound of exact (the bound covers each path alone); an
        oracle weight is a product of <= log2(cap) factors, summed into its
        class with <= terms additions and squared, so the oracle is within
        (2 (terms + log2 cap) + 2) u relative."""
        kernel = data.draw(_kernels(x))
        group = CharacterGroup(q)
        cap = 10**8
        got = s1(group, kernel)
        oracle = s1_congruence_oracle(group, kernel, cap)
        slack = (_rsq_rel_bound(_support(kernel, q)[1]) * got
                 + (2.0 * (oracle.terms + math.log2(cap)) + 2.0) * _U * oracle.value)
        assert oracle.value - got <= slack
        assert got - oracle.value <= oracle.tail_bound + slack


class TestJointProduct:
    @pytest.mark.parametrize("target,base,op", [
        ("l-product", truncated_l_all, np.multiply), ("prime-sum", prime_sum_all, np.add),
        ("logderiv-product", logderiv_poly_all, np.multiply),
    ])
    def test_the_power_family_reduction_of_the_base_stored(self, target, base, op):
        group = CharacterGroup(101)
        got = joint_product(group, target, 3, 0.9, 500)
        assert got is joint_product(group, target, 3, 0.9, 500)
        assert not got.flags.writeable
        full = power_reduce(base(group, 0.9, 500), 3, op)
        assert got.tobytes() == full[: group.order // 2 + 1].tobytes()

    def test_input_checked_before_anything_is_stored(self):
        group = CharacterGroup(7)
        with pytest.raises(ValueError, match="ell"):
            joint_product(group, "l-product", 0, 1.0, 100)
        with pytest.raises(ValueError, match="unknown S2 target"):
            joint_product(group, "l-sum", 1, 1.0, 100)
        with pytest.raises(ValueError, match="sigma"):
            joint_product(group, "l-product", 1, 1.5, 100)
        assert group._vectors == {}


class TestS2LProduct:
    def test_hand_sum_q5(self, g5):
        kernel = LinearKernel(3.0)
        report = run_theorem(ExperimentConfig(1, 5, 1, x=3.0, y=3))
        expect = math.fsum(
            (truncated_l(g5.character(k), 1.0, 3).value
             * resonator_sq(g5.character(k), kernel)).real
            for k in range(4)
        )
        assert report.s2.real == pytest.approx(expect, rel=1e-13)
        assert report.s1 == pytest.approx(4.6125, abs=1e-13)
        assert report.ratio == pytest.approx(report.s2.real / report.s1, rel=1e-15)

    def test_resonator_off_is_plain_average(self, g7):
        report = run_theorem(ExperimentConfig(1, 7, 2, x=1.0, y=50))
        expect = math.fsum(
            (truncated_l(g7.character(k), 1.0, 50).value
             * truncated_l(g7.character((2 * k) % 6), 1.0, 50).value).real
            for k in range(6)
        )
        assert report.s1 == 6.0
        assert report.s2.real == pytest.approx(expect, rel=1e-12)

    def test_imaginary_part_negligible(self):
        report = run_theorem(ExperimentConfig(1, 101, 3, x=20.0, y=1000))
        assert abs(report.s2.imag) <= 1e-9 * (abs(report.s2.real) + report.s1)

    def test_y_below_x_rejected(self, g5):
        with pytest.raises(ValueError, match="X <= Y"):
            s2_terms(g5, "l-product", 1, LinearKernel(10.0), 5)


class TestS2PrimeSum:
    def test_orthogonality_collapse(self, g7):
        # X < 2 turns the resonator off; S2 = phi(q) sum_{p = 1 mod q} p^-sigma
        sigma, y = 0.75, 2000
        report = run_theorem(ExperimentConfig(2, 7, 1, x=1.0, y=y, sigma=sigma))
        ps = primes_up_to(y)
        expect = 6.0 * math.fsum(float(p) ** -sigma for p in ps if p % 7 == 1)
        assert report.s2.real == pytest.approx(expect, abs=1e-10)

    def test_term_by_term_recomputation(self, g5):
        sigma, ell, y = 0.75, 2, 100
        kernel = SigmaKernel(3.0, sigma)
        report = run_theorem(ExperimentConfig(2, 5, ell, x=3.0, y=y, sigma=sigma))
        ps = primes_up_to(y)
        total = 0.0
        for k in range(4):
            chi = g5.character(k)
            inner = 0j
            for j in range(1, ell + 1):
                pw = chi.power(j)
                inner += sum(complex(pw(int(p))) * float(p) ** -sigma for p in ps)
            total += inner.real * resonator_sq(chi, kernel)
        assert report.s2.real == pytest.approx(total, rel=1e-12)


class TestS2LogderivProduct:
    def test_orthogonality_collapse(self, g5):
        report = run_theorem(ExperimentConfig(3, 5, 1, x=1.0, y=10**4))
        ns, logps = prime_powers_up_to(10**4)
        expect = 4.0 * math.fsum(
            lp / float(n) for n, lp in zip(ns, logps) if n % 5 == 1
        )
        assert report.s2.real == pytest.approx(expect, abs=1e-10)

    def test_multinomial_recomputation_q7(self, g7):
        ell, y = 2, 50
        kernel = LinearKernel(5.0)
        report = run_theorem(ExperimentConfig(3, 7, ell, x=5.0, y=y))
        ns, logps = prime_powers_up_to(y)
        w = logps / ns.astype(float)
        total = 0.0
        for k in range(6):
            chi = g7.character(k)
            d1 = sum(complex(chi(int(n))) * wi for n, wi in zip(ns, w))
            d2 = sum(complex(chi.power(2)(int(n))) * wi for n, wi in zip(ns, w))
            total += (d1 * d2).real * resonator_sq(chi, kernel)
        assert report.s2.real == pytest.approx(total, rel=1e-12)

    def test_strip_ell_constraint(self, g5):
        with pytest.raises(ValueError, match="2 - 2 sigma"):
            s2_terms(g5, "logderiv-product", 2, SigmaKernel(3.0, 0.75), 100)

    def test_max_ell_for_sigma(self):
        assert max_ell_for_sigma(0.9) == 4  # 1/(2 - 1.8) = 5, strict
        assert max_ell_for_sigma(0.75) == 1
        assert max_ell_for_sigma(0.6) == 1

    def test_sigma_ell_one_reduces_to_single_weight(self):
        group = CharacterGroup(11)
        kernel = SigmaKernel(5.0, 0.9)
        report = run_theorem(ExperimentConfig(4, 11, 1, x=5.0, y=100, sigma=0.9))
        ns, logps = prime_powers_up_to(100)
        w = logps / ns.astype(float) ** 0.9
        total = 0.0
        for k in range(10):
            chi = group.character(k)
            d1 = sum(complex(chi(int(n))) * wi for n, wi in zip(ns, w))
            total += d1.real * resonator_sq(chi, kernel)
        assert report.s2.real == pytest.approx(total, rel=1e-12)


class TestBounds:
    def test_l_product_examples(self):
        assert bound_l_product(LinearKernel(3.0), 1) == pytest.approx(1.2, rel=1e-14)
        assert bound_l_product(LinearKernel(3.0), 2) == pytest.approx(
            1.2 * 18.0 / 17.0, rel=1e-14
        )
        assert bound_l_product(LinearKernel(1.0), 3) == 1.0

    def test_prime_sum_examples(self):
        assert bound_prime_sum(SigmaKernel(1.0, 0.75), 2) == 0.0
        kernel = SigmaKernel(16.0, 0.75)
        expect = math.fsum(
            (1.0 - (p / 16.0) ** 0.75) / p**0.75 for p in (2, 3, 5, 7, 11, 13)
        )
        assert bound_prime_sum(kernel, 1) == pytest.approx(expect, rel=1e-14)

    def test_prime_sum_inner_terms_non_increasing_in_j(self):
        kernel = SigmaKernel(30.0, 0.8)
        ps = primes_up_to(30)
        rv = kernel.prime_values(ps)
        w = ps.astype(float) ** -0.8
        inner = [float(np.sum(rv**j * w)) for j in range(1, 5)]
        assert all(inner[i] >= inner[i + 1] for i in range(3))

    def test_p_j_examples(self):
        assert p_j(LinearKernel(3.0), 1) == pytest.approx(
            (math.log(2) / 2) / 3.0, rel=1e-14
        )
        sig = SigmaKernel(3.0, 0.75)
        expect = (math.log(2) / 2**0.75) * (1.0 - (2.0 / 3.0) ** 0.75)
        assert p_j(sig, 1) == pytest.approx(expect, rel=1e-14)

    def test_p_j_non_increasing_in_j(self):
        kernel = LinearKernel(50.0)
        vals = [p_j(kernel, j) for j in range(1, 6)]
        assert all(v >= 0 for v in vals)
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))

    def test_logderiv_bound_is_product_of_p_j(self):
        kernel = LinearKernel(20.0)
        assert bound_logderiv_product(kernel, 3) == pytest.approx(
            p_j(kernel, 1) * p_j(kernel, 2) * p_j(kernel, 3), rel=1e-14
        )

    def test_linear_asymptotic_agreement(self):
        # looser-budget version of the acceptance check, at X = 1e5
        from dirichlet_resonance.arithmetic import prime_power_tail_constant

        x = 10**5
        const = prime_power_tail_constant(1e-6)
        got = p_j(LinearKernel(float(x)), 1)
        want = p_j_linear_asymptotic(float(x), 1, const)
        assert abs(got - want) < 0.05

    def test_sigma_asymptotic_agreement(self):
        # the acceptance gate checks [0.9, 1.1] at X = 1e7; this is the
        # cheaper X = 1e6 version of the same trend
        kernel = SigmaKernel(10.0**6, 0.75)
        for j in (1, 2, 3):
            ratio = p_j(kernel, j) / p_j_sigma_asymptotic(kernel, j)
            assert 0.85 < ratio < 1.15

    def test_sigma_asymptotic_past_float_factorials(self):
        # j! overflows a float from j = 171; the running product never forms it
        kernel = SigmaKernel(50.0, 0.75)
        step = p_j_sigma_asymptotic(kernel, 171) / p_j_sigma_asymptotic(kernel, 170)
        assert step == pytest.approx(171 / (170 + 4 / 3), rel=1e-13)

    @pytest.mark.parametrize("ell", [1, 2])
    def test_bounds_non_decreasing_in_x(self, ell):
        xs = [5.0, 10.0, 20.0, 50.0]
        lb = [bound_l_product(LinearKernel(x), ell) for x in xs]
        assert all(lb[i] <= lb[i + 1] for i in range(len(lb) - 1))
        db = [bound_logderiv_product(LinearKernel(x), ell) for x in xs]
        assert all(db[i] <= db[i + 1] for i in range(len(db) - 1))
        sb = [bound_prime_sum(SigmaKernel(x, 0.75), ell) for x in xs]
        assert all(sb[i] <= sb[i + 1] for i in range(len(sb) - 1))


class TestResonanceInequalitySmoke:
    """The full battery lives in the acceptance suite; this is one instance
    per target with the exact finite bound."""

    def test_line_l(self):
        kernel = LinearKernel(20.0)
        for ell in (1, 2):
            report = run_theorem(ExperimentConfig(1, 101, ell, x=20.0, y=1000))
            assert report.ratio >= bound_l_product(kernel, ell) * (1 - 1e-12)

    def test_strip_l(self):
        kernel = SigmaKernel(20.0, 0.75)
        report = run_theorem(ExperimentConfig(2, 101, 2, x=20.0, y=1000, sigma=0.75))
        assert report.ratio >= bound_prime_sum(kernel, 2) * (1 - 1e-12)

    def test_line_and_strip_logderiv(self):
        lin = LinearKernel(20.0)
        report = run_theorem(ExperimentConfig(3, 101, 2, x=20.0, y=1000))
        assert report.ratio >= bound_logderiv_product(lin, 2) * (1 - 1e-12)
        sig = SigmaKernel(20.0, 0.9)
        report = run_theorem(ExperimentConfig(4, 101, 2, x=20.0, y=1000, sigma=0.9))
        assert report.ratio >= bound_logderiv_product(sig, 2) * (1 - 1e-12)


class TestDeterminism:
    def test_bit_stable_repeat(self):
        cfg = ExperimentConfig(1, 31, 2, x=10.0, y=200)
        a = run_theorem(cfg)
        b = run_theorem(cfg)
        assert a.s1 == b.s1 and a.s2 == b.s2 and a.ratio == b.ratio

    def test_power_product_indexing(self):
        # power_reduce against the per-character loop, for every op it serves
        order = 12
        values = np.arange(1, order + 1, dtype=np.complex128) * (1 + 0.5j)
        marked = np.isin(np.arange(order), [0, 3])
        for op, reduce, vec in [(np.multiply, math.prod, values), (np.add, sum, values),
                                (np.logical_or, any, marked)]:
            for ell in (1, 2, 3, 5, order + 2):
                out = power_reduce(vec, ell, op)
                assert out.dtype == vec.dtype
                for k in range(order):
                    want = reduce([vec[(k * j) % order] for j in range(1, ell + 1)])
                    assert out[k] == want, (op, ell, k)
