"""Pipelines, configs, sweeps, oracle tables, and report writers."""

import concurrent.futures
import csv
import json
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_resonance import experiments, lfunctions, resonator
from dirichlet_resonance.arithmetic import primes_up_to
from dirichlet_resonance.characters import CharacterGroup, eligible, power_reduce
from dirichlet_resonance.experiments import (
    REPORT_COLUMNS,
    ConfigError,
    ExperimentConfig,
    config_from_json,
    default_x,
    oracle_comparison,
    run_theorem,
    run_verification,
    sweep,
    write_json,
    write_reports_csv,
)
from dirichlet_resonance.lfunctions import (
    EULER_GAMMA,
    exact_l,
    exact_l_all,
    logderiv_poly_all,
    prime_sum_all,
    truncated_l,
    truncated_l_all,
)
from dirichlet_resonance.resonator import (
    LinearKernel,
    SigmaKernel,
    bound_l_product,
    resonator_sq,
    resonator_sq_all,
    s2_terms,
)
from full_group import unfold

LOG4 = math.log(4.0)


class TestDefaultX:
    def test_line_l_formula(self):
        q = 10**6 + 3
        want = math.log(q) * math.log(math.log(q)) / (1.01 * LOG4)
        assert default_x(1, q, 0.01) == pytest.approx(want, rel=1e-14)

    def test_line_logderiv_vs_line_l(self):
        q = 10**6 + 3
        ratio = default_x(3, q, 0.01) / default_x(1, q, 0.01)
        # both are ~ log q loglog q / log 4 up to the margins
        assert ratio == pytest.approx(1.0, abs=0.05)

    def test_zero_margin_is_endpoint(self):
        q = 101
        want = math.log(q) * math.log(math.log(q)) / LOG4
        assert default_x(1, q, 0.0) == pytest.approx(want, rel=1e-14)

    def test_small_q_rejected(self):
        with pytest.raises(ValueError):
            default_x(1, 13)

    def test_strip_targets_need_sigma(self):
        with pytest.raises(ValueError):
            default_x(2, 101)
        assert default_x(2, 101, sigma=0.75) > 0
        assert default_x(4, 101, sigma=0.9) > 0

    @pytest.mark.parametrize("theorem,sigma", [(2, 0.75), (3, None), (4, 0.9)])
    @pytest.mark.parametrize("margin", [1.0, 1.5])
    def test_margin_that_leaves_no_positive_x_rejected(self, theorem, sigma, margin):
        # X scales with 1 - margin for theorems 2-4
        with pytest.raises(ValueError, match="endpoint_margin"):
            default_x(theorem, 101, margin, sigma)

    @pytest.mark.parametrize("theorem,sigma", [(1, None), (2, 0.75), (3, None), (4, 0.9)])
    def test_nan_margin_rejected(self, theorem, sigma):
        # NaN fails every comparison, so the rule is written as the test a margin passes
        with pytest.raises(ValueError, match="endpoint_margin must be >= 0"):
            default_x(theorem, 101, math.nan, sigma)

    def test_theorem_1_keeps_a_positive_x_at_large_margin(self):
        assert default_x(1, 101, 1.5) > 0
        report = run_theorem(ExperimentConfig(1, 101, 1, endpoint_margin=1.5))
        assert report.x > 0 and report.passed, report.failures


class TestConfigValidation:
    def test_minimal_fills_defaults(self):
        cfg = ExperimentConfig(1, 101, 1, x=20.0).validated()
        assert cfg.y == 1000

    def test_y_below_x_names_the_precondition(self):
        with pytest.raises(ConfigError, match="X <= Y"):
            ExperimentConfig(1, 101, 1, x=20.0, y=5).validated()

    def test_strip_logderiv_ell_constraint(self):
        with pytest.raises(ConfigError, match=r"1 <= ell < 1/\(2 - 2 sigma\)"):
            ExperimentConfig(4, 101, 2, x=20.0, y=1000, sigma=0.75).validated()
        # sigma = 0.9 admits ell up to 4
        ExperimentConfig(4, 101, 4, x=20.0, y=1000, sigma=0.9).validated()
        with pytest.raises(ConfigError):
            ExperimentConfig(4, 101, 5, x=20.0, y=1000, sigma=0.9).validated()

    def test_sigma_presence_rules(self):
        with pytest.raises(ConfigError, match="requires sigma"):
            ExperimentConfig(2, 101, 1, x=20.0, y=1000).validated()
        with pytest.raises(ConfigError, match="takes no sigma"):
            ExperimentConfig(1, 101, 1, x=20.0, y=1000, sigma=0.75).validated()

    @pytest.mark.parametrize("x", [0, 0.0, -5, -5.0])
    def test_x_must_be_positive(self, x):
        with pytest.raises(ConfigError, match="X must be > 0"):
            ExperimentConfig(1, 101, 1, x=x, y=1000).validated()

    @pytest.mark.parametrize("theorem,sigma", [(3, None), (4, 0.9)])
    def test_derived_x_must_be_positive(self, theorem, sigma):
        # a factor 1 - 1.5 would put X at -2.55 (theorem 3) and -1.95 (theorem 4)
        with pytest.raises(ConfigError, match="endpoint_margin"):
            ExperimentConfig(theorem, 101, 1, sigma=sigma, endpoint_margin=1.5).validated()

    @pytest.mark.parametrize("y", [1000.7, 20.5, -0.5])
    def test_y_must_be_integral(self, y):
        with pytest.raises(ConfigError, match=f"y must be an integer, got {y!r}"):
            ExperimentConfig(1, 101, 1, x=20.3, y=y).validated()

    @pytest.mark.parametrize("y", [1000.0, 1e6])
    def test_integral_float_y_is_accepted(self, y):
        cfg = ExperimentConfig(1, 101, 1, x=20.0, y=y).validated()
        assert cfg.y == int(y) and type(cfg.y) is int

    def test_y_below_one_fails_on_its_own_rule(self):
        # not on X <= Y, which Y = 0 breaks as well
        with pytest.raises(ConfigError, match="Y must be >= 1, got 0"):
            ExperimentConfig(1, 101, 1, x=20.0, y=0).validated()

    @pytest.mark.parametrize("q,y,match", [
        (999_999_999_989, None, "q = 999999999989 must be below 3037000500"),
        (2**61 - 1, None, "must be below 3037000500"),  # a prime, refused before trial division
        (101, 10**9, "cutoff 1000000000 exceeds the double-precision budget"),
    ], ids=["q-past-dlog-bound", "q-mersenne-61", "y-past-budget"])
    def test_precision_limits_are_config_errors(self, q, y, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(1, q, 1, y=y).validated()

    def test_q_must_be_odd_prime(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(1, 100, 1, x=20.0, y=1000).validated()
        with pytest.raises(ConfigError):
            ExperimentConfig(1, 2, 1, x=3.0, y=10).validated()

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"theorem": 1, "q": 101, "ell": 1, "x": 20.0, "y": 1000}))
        cfg = config_from_json(str(path))
        assert cfg.q == 101 and cfg.y == 1000

    def test_json_unknown_keys(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"theorem": 1, "q": 101, "bogus": 3}))
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_json(str(path))

    def test_json_output_key_is_unknown(self, tmp_path):
        # where `run` writes is set by --output alone
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"theorem": 1, "q": 101, "output": "out"}))
        with pytest.raises(ConfigError, match="unknown keys \\['output'\\]"):
            config_from_json(str(path))

    def test_json_parse_error_has_line(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"theorem": 1,\n  "q": }')
        with pytest.raises(ConfigError, match="line 2"):
            config_from_json(str(path))


class TestRunTheoremHandCase:
    """q = 7, line L target, ell = 1, X = 3, Y = 3: every quantity checked
    against scalar recomputation from the building-block operations."""

    def test_everything_by_hand(self):
        report = run_theorem(ExperimentConfig(1, 7, 1, x=3.0, y=3))
        group = CharacterGroup(7)
        kernel = LinearKernel(3.0)
        rsqs = [resonator_sq(group.character(k), kernel) for k in range(6)]
        ls = [truncated_l(group.character(k), 1.0, 3).value for k in range(6)]
        s1_hand = math.fsum(rsqs)
        s2_hand = sum(l * r for l, r in zip(ls, rsqs))
        assert report.s1 == pytest.approx(s1_hand, rel=1e-13)
        assert report.s2.real == pytest.approx(s2_hand.real, rel=1e-13)
        assert report.bound == pytest.approx(bound_l_product(kernel, 1), rel=1e-15)
        assert report.margin == pytest.approx(report.ratio - report.bound, rel=1e-12)
        # eligible = all non-principal (ell = 1); functional is |L|
        vals = {k: abs(ls[k]) for k in range(1, 6)}
        best = max(vals, key=lambda k: (vals[k], -k))
        assert report.max_value == pytest.approx(vals[best], rel=1e-13)
        assert vals[report.argmax_index] == pytest.approx(report.max_value, rel=1e-13)
        # certificate = (Re S2 - principal term)/S1 here
        cert_hand = (s2_hand.real - (ls[0] * rsqs[0]).real) / s1_hand
        assert report.certificate == pytest.approx(cert_hand, rel=1e-12)
        assert report.certificate <= report.max_value + 1e-12
        assert report.passed

    def test_strip_logderiv_pipeline(self):
        report = run_theorem(ExperimentConfig(4, 499, 2, x=20.0, y=1000, sigma=0.9))
        assert report.margin >= -1e-12 * max(1.0, abs(report.bound))
        assert report.passed
        assert report.logderiv_modulus_at_argmax is not None
        assert report.logderiv_modulus_at_argmax >= report.max_value - 1e-12


class TestExtremalSearch:
    def test_three_evaluations_q5(self):
        group = CharacterGroup(5)
        vals = {
            k: abs(truncated_l(group.character(k), 1.0, 3).value) for k in (1, 2, 3)
        }
        report = run_theorem(ExperimentConfig(1, 5, 1, x=3.0, y=3))
        idx, val = report.argmax_index, report.max_value
        assert val == pytest.approx(max(vals.values()), rel=1e-13)
        assert vals[idx] == pytest.approx(val, rel=1e-13)
        assert all(val >= v - 1e-13 for v in vals.values())

    def test_tie_breaks_to_smallest_index(self):
        # conjugate characters give identical |L|, so ties always exist
        group = CharacterGroup(11)
        idx = run_theorem(ExperimentConfig(1, 11, 1, x=5.0, y=100)).argmax_index
        conj = (group.order - idx) % group.order
        vals_idx, vals_conj = (
            abs(truncated_l(group.character(k), 1.0, 100).value) for k in (idx, conj)
        )
        if abs(vals_idx - vals_conj) < 1e-12 and conj != idx:
            assert idx < conj

    def test_empty_eligible_raises(self):
        with pytest.raises(ConfigError, match="eligible"):
            run_theorem(ExperimentConfig(1, 5, 4, x=3.0, y=100))

    def test_logderiv_functional_tags(self):
        report = run_theorem(ExperimentConfig(3, 11, 2, x=5.0, y=200))
        # modulus dominates the real part
        assert report.logderiv_modulus_at_argmax >= report.max_value - 1e-12

    def test_excluded_indices_respected(self):
        idx = run_theorem(ExperimentConfig(1, 11, 1, x=5.0, y=100)).argmax_index
        report = run_theorem(ExperimentConfig(1, 11, 1, x=5.0, y=100, excluded=(idx,)))
        assert report.argmax_index != idx


class TestExcludedCharacterHook:
    def test_excluded_power_family(self):
        # excluding an index also drops characters whose powers hit it
        cfg = ExperimentConfig(1, 11, 2, x=5.0, y=100, excluded=(2,))
        report = run_theorem(cfg)
        order = 10
        for j in (1, 2):
            assert all((k * j) % order != 2 for k in [report.argmax_index])
        assert report.passed

    def test_certificate_subtracts_excluded_terms(self):
        base = run_theorem(ExperimentConfig(1, 11, 1, x=5.0, y=100))
        excl = run_theorem(ExperimentConfig(1, 11, 1, x=5.0, y=100, excluded=(1,)))
        assert excl.certificate != pytest.approx(base.certificate, rel=1e-9)


class TestFailuresAreReported:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_values(self):
        # X = 2000 overflows |R(chi)|^2: S1 = inf, S2 = inf + nan i, ratio = nan
        report = run_theorem(ExperimentConfig(1, 1009, 1, x=2000.0, y=2001))
        assert not report.passed
        assert report.failures[0].startswith("non-finite values: S1=inf, S2=(inf+nanj)")

    def test_s1_below_phi(self, monkeypatch):
        monkeypatch.setattr(experiments, "s1", lambda group, kernel: 1.0)
        report = run_theorem(ExperimentConfig(1, 101, 1, x=20.0, y=1000))
        assert "S1 = 1.0 fell below phi(q) = 100" in report.failures

    def test_im_s2_not_negligible(self, monkeypatch):
        s2_sum = experiments._s2_sum
        monkeypatch.setattr(experiments, "_s2_sum", lambda terms: s2_sum(terms) + 1j)
        report = run_theorem(ExperimentConfig(1, 101, 1, x=20.0, y=1000))
        assert not report.passed and report.s2.imag == 1.0
        [failure] = report.failures
        assert failure.startswith("Im S2 = 1.0 is not negligible")
        assert f"S2={report.s2!r}" in failure and f"S1={report.s1!r}" in failure


class TestEmptyEligibleSetRejectedUpFront:
    """ell >= q - 1 leaves no character of order > ell; validation says so
    before any evaluation."""

    @pytest.fixture
    def no_evaluation(self, monkeypatch):
        def evaluated(*args, **kwargs):
            raise AssertionError("evaluated a configuration that validation must reject")

        for name in ("CharacterGroup", "s2_terms", "s1", "truncated_l_all", "joint_product"):
            monkeypatch.setattr(experiments, name, evaluated)

    @pytest.mark.parametrize("q,ell", [(3, 2), (5, 4), (101, 100), (101, 10**5)])
    def test_ell_at_least_q_minus_one(self, no_evaluation, q, ell):
        with pytest.raises(ConfigError, match="eligible set is empty"):
            run_theorem(ExperimentConfig(1, q, ell, x=2.0, y=100))

    def test_largest_admissible_ell_still_validates(self, no_evaluation):
        cfg = ExperimentConfig(1, 101, 99, x=2.0, y=100).validated()
        assert cfg.ell == 99


@st.composite
def _masked_configs(draw):
    q = draw(st.sampled_from([int(p) for p in primes_up_to(400) if p >= 3]))
    theorem = draw(st.integers(1, 4))
    x = draw(st.floats(1.0, 30.0))
    excluded = draw(st.lists(st.integers(0, 2 * q), max_size=4, unique=True))
    return ExperimentConfig(
        theorem, q, draw(st.integers(1, 4)), x=x, y=draw(st.integers(math.ceil(x), 300)),
        sigma=0.9 if theorem in (2, 4) else None, excluded=tuple(excluded),
    )


class TestMaskBookkeeping:
    """run_theorem's mask arithmetic against the per-character loop rules,
    on the same vectors, with random excluded power families."""

    @settings(max_examples=60, deadline=None)
    @given(_masked_configs())
    def test_matches_python_loop_rules(self, cfg):
        group = CharacterGroup(cfg.q)
        order, ell = group.order, cfg.ell
        bad = {e % order for e in cfg.excluded}
        members = [
            k for k in range(order)
            if order // math.gcd(k, order) > ell
            and all((k * j) % order not in bad for j in range(1, ell + 1))
        ]
        if not members:
            with pytest.raises(ConfigError, match="eligible"):
                run_theorem(cfg)
            return
        report = run_theorem(cfg)

        if cfg.theorem in (1, 3):
            kernel = LinearKernel(cfg.x)
        else:
            kernel = SigmaKernel(cfg.x, cfg.sigma)
        target = experiments._TARGETS[cfg.theorem]
        terms = unfold(s2_terms(group, target, ell, kernel, cfg.y))
        if cfg.theorem in (1, 2):
            vals = np.abs(power_reduce(truncated_l_all(group, kernel.sigma, cfg.y), ell, np.multiply))
        else:
            vals = power_reduce(logderiv_poly_all(group, kernel.sigma, cfg.y), ell, np.multiply).real
        best = members[0]
        for k in members:
            if vals[k] > vals[best]:
                best = k
        max_value = float(vals[best])
        tie_cut = max_value - experiments._TIE_TOL * max(1.0, abs(max_value))
        member_set = set(members)
        excluded_sum = math.fsum(terms.real[k] for k in range(order) if k not in member_set)

        assert report.argmax_index == best
        assert report.max_value == max_value
        assert report.near_ties == tuple(k for k in members if vals[k] >= tie_cut)
        assert report.certificate == (report.s2.real - excluded_sum) / report.s1

    def test_mask_comes_from_eligible(self, monkeypatch):
        seen = []

        def spy(group, ell, excluded=()):
            seen.append((group.q, ell, excluded))
            return eligible(group, ell, excluded)

        monkeypatch.setattr(experiments, "eligible", spy)
        report = run_theorem(ExperimentConfig(1, 101, 2, x=20.0, y=1000, excluded=(3, 105)))
        assert seen == [(101, 2, (3, 105))]
        assert report.argmax_index in np.flatnonzero(eligible(CharacterGroup(101), 2, (3, 5)))


class TestReferenceNeverServesTheFastPath:
    """The dense values_matrix gather is the independent reference: no
    theorem run may call it, including the q <= 499 oracle-gap path."""

    @pytest.mark.parametrize("q", [101, 1009])
    @pytest.mark.parametrize("theorem,sigma", [(1, None), (2, 0.75), (3, None), (4, 0.75)])
    def test_run_theorem_without_values_matrix(self, monkeypatch, q, theorem, sigma):
        def reference_only(self, ns):
            raise AssertionError("values_matrix called on the fast path")

        monkeypatch.setattr(CharacterGroup, "values_matrix", reference_only)
        report = run_theorem(ExperimentConfig(theorem, q, 1, x=20.0, y=2000, sigma=sigma))
        assert report.passed, report.failures

    @pytest.mark.parametrize("theorem,sigma", [(1, None), (2, 0.9), (3, None), (4, 0.9)])
    def test_run_theorem_without_root_table(self, monkeypatch, theorem, sigma):
        # above q = 499 no oracle gap is computed, so nothing may read the table
        def reference_only(self):
            raise AssertionError("root_table read on the fast path")

        monkeypatch.setattr(CharacterGroup, "root_table", property(reference_only))
        report = run_theorem(ExperimentConfig(theorem, 1009, 2, x=20.0, y=2000, sigma=sigma))
        assert report.passed, report.failures

    @pytest.mark.parametrize("theorem,sigma", [(1, None), (2, 0.75)])
    def test_oracle_gap_checks_the_reported_vector(self, theorem, sigma):
        # the gap compares the oracle with the fast path's own base value at
        # the argmax, the vector max_value is built from
        report = run_theorem(ExperimentConfig(theorem, 101, 1, x=20.0, y=1000, sigma=sigma))
        group = CharacterGroup(101)
        s = 1.0 if sigma is None else sigma
        base = truncated_l_all(group, s, 1000)[report.argmax_index]
        exact = exact_l(group.character(report.argmax_index), s).value
        assert report.oracle_gap == abs(base - exact) / abs(exact)


class TestWholeGroupVectorsComputedOnce:
    """A run computes each whole-group vector once; its group hands the
    stored, read-only array to every later caller with the same arguments."""

    COMPUTES = {"L": (lfunctions, "_truncated_l_vector"), "P": (lfunctions, "_prime_sum_vector"),
                "D": (lfunctions, "_logderiv_poly_vector"),
                "rsq": (resonator, "_resonator_sq_vector"),
                "joint": (resonator, "_joint_product_vector")}

    @pytest.mark.parametrize("theorem,sigma,computed", [
        (1, None, {"L": 1, "rsq": 1, "joint": 1}),
        (2, 0.9, {"P": 1, "L": 1, "rsq": 1, "joint": 2}),
        (3, None, {"D": 1, "rsq": 1, "joint": 1}),
        (4, 0.9, {"D": 1, "rsq": 1, "joint": 1}),
    ])
    def test_each_vector_once_per_run(self, monkeypatch, theorem, sigma, computed):
        counts = Counter()
        for tag, (module, name) in self.COMPUTES.items():
            def counted(*args, tag=tag, compute=getattr(module, name)):
                counts[tag] += 1
                return compute(*args)

            monkeypatch.setattr(module, name, counted)
        report = run_theorem(ExperimentConfig(theorem, 101, 2, x=20.0, y=1000, sigma=sigma))
        assert report.passed, report.failures
        assert counts == computed

    @pytest.mark.parametrize("theorem,sigma,calls", [(1, None, 2), (2, 0.9, 3), (3, None, 2),
                                                     (4, 0.9, 2)])
    def test_power_reduce_calls_per_run(self, monkeypatch, theorem, sigma, calls):
        # the eligible mask plus one joint product that S2 and the extremal
        # search share; theorem 2's prime-sum S2 weight is a second product
        count = Counter()

        def counted(*args, **kwargs):
            count["power_reduce"] += 1
            return power_reduce(*args, **kwargs)

        sites = [module for name, module in sorted(sys.modules.items())
                 if name.startswith("dirichlet_resonance")
                 and getattr(module, "power_reduce", None) is power_reduce]
        assert experiments not in sites and resonator in sites
        for module in sites:
            monkeypatch.setattr(module, "power_reduce", counted)
        report = run_theorem(ExperimentConfig(theorem, 101, 2, x=20.0, y=1000, sigma=sigma))
        assert report.passed, report.failures
        assert count["power_reduce"] == calls

    def test_stored_arrays_are_read_only_and_keyed_by_every_argument(self):
        group = CharacterGroup(101)
        base = truncated_l_all(group, 0.75, 1000)
        assert truncated_l_all(group, 0.75, 1000) is base
        with pytest.raises(ValueError, match="read-only"):
            base[0] = 0.0
        for other in (truncated_l_all(group, 0.9, 1000), truncated_l_all(group, 0.75, 1001),
                      prime_sum_all(group, 0.75, 1000), logderiv_poly_all(group, 0.75, 1000)):
            assert other is not base
        assert not np.array_equal(truncated_l_all(group, 0.9, 1000), base)
        rsq = resonator_sq_all(group, LinearKernel(20.0))
        assert resonator_sq_all(group, LinearKernel(20.0)) is rsq
        assert not np.array_equal(resonator_sq_all(group, SigmaKernel(20.0, 0.9)), rsq)
        with pytest.raises(ValueError, match="read-only"):
            rsq[0] = 0.0
        # the argument checks run before the lookup
        with pytest.raises(ValueError, match="sigma"):
            truncated_l_all(group, 1.5, 1000)


class TestReportSumsAreCorrectlyRounded:
    """S1 and S2 of a run are the math.fsum of the whole-group vectors,
    unfolded from their k <= (q-1)/2 halves, on both sides of exact_sum's
    cut-off (q - 1 = 100, 1008, 10006)."""

    @pytest.mark.parametrize("q", [101, 1009, 10007])
    @pytest.mark.parametrize("theorem,sigma", [(1, None), (2, 0.9), (3, None), (4, 0.9)])
    def test_s1_and_s2_equal_fsum_bitwise(self, theorem, sigma, q):
        report = run_theorem(ExperimentConfig(theorem, q, 1, sigma=sigma))
        cfg = ExperimentConfig(theorem, q, 1, sigma=sigma).validated()
        kernel = LinearKernel(cfg.x) if theorem in (1, 3) else SigmaKernel(cfg.x, cfg.sigma)
        group = CharacterGroup(q)
        rsq = unfold(resonator_sq_all(group, kernel))
        terms = unfold(s2_terms(group, experiments._TARGETS[theorem], 1, kernel, cfg.y))
        assert report.s1.hex() == math.fsum(rsq.tolist()).hex()
        assert report.s2.real.hex() == math.fsum(terms.real.tolist()).hex()
        assert report.s2.imag.hex() == math.fsum(terms.imag.tolist()).hex()


class TestDeterminism:
    def test_identical_config_identical_report(self):
        cfg = ExperimentConfig(3, 101, 2, x=20.0, y=1000)
        a = run_theorem(cfg)
        b = run_theorem(cfg)
        for name in (
            "s1", "s2", "ratio", "bound", "margin", "argmax_index",
            "max_value", "near_ties", "certificate",
        ):
            assert getattr(a, name) == getattr(b, name), name


class TestSweep:
    def test_row_count_matches_prime_count(self):
        result = sweep(1, (100, 200), ell=1)
        # pi(200) - pi(100) = 46 - 25
        assert len(result.reports) == 21
        assert all(r.passed for r in result.reports)
        qs = [r.q for r in result.reports]
        assert qs == sorted(qs)

    def test_default_y_is_ceil_x(self):
        result = sweep(1, (100, 120), ell=1)
        for r in result.reports:
            assert r.y == max(2, math.ceil(r.x))

    def test_normalized_column(self):
        result = sweep(1, (100, 200), ell=1)
        r = result.reports[0]
        want = r.ratio / (math.exp(EULER_GAMMA) * math.log(r.x))
        assert result.normalized_ratio(r) == pytest.approx(want, rel=1e-14)

    def test_jobs_parallel_matches_serial(self):
        serial = sweep(1, (100, 150), ell=1, jobs=1)
        parallel = sweep(1, (100, 150), ell=1, jobs=2)
        for a, b in zip(serial.reports, parallel.reports):
            assert a.s1 == b.s1 and a.s2 == b.s2 and a.margin == b.margin

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            sweep(1, (200, 210), ell=1)  # no primes in (200, 210]

    @pytest.fixture
    def pools(self, monkeypatch):
        """Replaces the process pool with an in-process map that records
        ``max_workers``; no worker process is ever started."""
        created = []

        class RecordingPool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return created

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, pools, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            sweep(1, (100, 110), ell=1, jobs=jobs)
        assert pools == []

    def test_workers_capped_by_prime_count(self, pools):
        serial = sweep(1, (100, 110), ell=1)  # 101, 103, 107, 109
        for jobs, workers in [(2, 2), (4, 4), (64, 4)]:
            got = sweep(1, (100, 110), ell=1, jobs=jobs)
            assert pools.pop() == workers and pools == []
            assert [r.s1 for r in got.reports] == [r.s1 for r in serial.reports]
        sweep(1, (100, 102), ell=1, jobs=8)  # one prime: serial, no pool
        assert pools == []


class TestOracleComparison:
    def test_q5_shape(self):
        comp = oracle_comparison(5, 1.0, (100, 1000, 10000, 100000))
        assert comp.indices == (1, 2, 3)  # phi(5) - 1 non-principal rows
        assert comp.excluded_near_zero == ()
        assert comp.rel_errors.shape == (3, 4)
        assert comp.decade_max()[-1] < 1e-2

    def test_decade_max_non_increasing_from_1e3(self):
        comp = oracle_comparison(31, 1.0, (100, 1000, 10000, 100000, 1000000))
        maxima = comp.decade_max()
        assert maxima[1] >= maxima[2] >= maxima[3] >= maxima[4]

    def test_large_q_rejected(self):
        with pytest.raises(ValueError):
            oracle_comparison(503, 1.0, (100,))

    @pytest.mark.parametrize("q", [101, 307, 491])
    @pytest.mark.parametrize("sigma", [1.0, 0.75])
    def test_table_equals_the_scalar_loop_bitwise(self, q, sigma):
        grid = (100, 1000, 10000)
        comp = oracle_comparison(q, sigma, grid)
        group = CharacterGroup(q)
        exact = exact_l_all(group, sigma)
        keep = [k for k in range(1, q - 1) if abs(exact[k]) >= 1e-8]
        dropped = [k for k in range(1, q - 1) if not abs(exact[k]) >= 1e-8]
        want = np.array([[abs(truncated_l_all(group, sigma, y)[k] - exact[k]) / abs(exact[k])
                          for y in grid] for k in keep], dtype=np.float64)
        assert comp.indices == tuple(keep) and comp.excluded_near_zero == tuple(dropped)
        assert all(type(k) is int for k in comp.indices + comp.excluded_near_zero)
        assert comp.rel_errors.tobytes() == want.reshape(len(keep), len(grid)).tobytes()


class TestWriters:
    def test_csv_schema(self, tmp_path):
        reports = [
            run_theorem(ExperimentConfig(1, 101, 1, x=20.0, y=1000)),
            run_theorem(ExperimentConfig(2, 211, 2, x=30.0, y=1000, sigma=0.75)),
        ]
        path = tmp_path / "report.csv"
        write_reports_csv(str(path), reports)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(REPORT_COLUMNS)
        assert len(rows) == 3
        for report, row in zip(reports, rows[1:]):
            want = report.to_dict()
            for name, cell in zip(rows[0], row):
                value = want[name]
                if value is None:
                    assert cell == "", name
                else:
                    assert type(value)(cell) == value, name
        assert rows[1][REPORT_COLUMNS.index("sigma")] == ""
        assert float(rows[2][REPORT_COLUMNS.index("sigma")]) == 0.75

    def test_json_round_trip(self, tmp_path):
        report = run_theorem(ExperimentConfig(2, 101, 1, x=20.0, y=1000, sigma=0.75))
        path = tmp_path / "report.json"
        write_json(str(path), report.to_dict())
        loaded = json.loads(path.read_text())
        assert loaded["q"] == 101
        assert loaded["S2_re"] == report.s2.real
        assert loaded["passed"] is True


class TestRecordKeys:
    """The JSON keys come from the dataclass fields, so a renamed field
    would rename a key; these sets pin them."""

    def test_theorem_report_keys(self):
        row = run_theorem(ExperimentConfig(1, 101, 1, x=20.0, y=1000)).to_dict()
        assert set(row) == {
            "theorem", "q", "ell", "sigma", "X", "Y", "excluded", "S1", "S2_re", "S2_im",
            "ratio", "bound", "margin", "argmax_index", "max_value", "near_ties",
            "certificate", "logderiv_modulus_at_argmax", "oracle_gap", "seconds",
            "failures", "passed",
        }
        assert set(REPORT_COLUMNS) <= set(row)

    def test_oracle_comparison_keys(self):
        row = oracle_comparison(7, 0.75, (100, 1000)).to_dict()
        assert set(row) == {
            "q", "sigma", "y_grid", "indices", "rel_errors", "excluded_near_zero", "decade_max",
        }
        assert all(type(e) is float for errs in row["rel_errors"] for e in errs)

    def test_sweep_result_keys(self):
        row = sweep(1, (100, 104)).to_dict()
        assert set(row) == {"theorem", "ell", "sigma", "rows", "trend"}
        assert [r["q"] for r in row["rows"]] == [101, 103]


class TestVerificationBattery:
    def test_quick_battery_passes(self):
        checks = run_verification(quick=True)
        failed = [c for c in checks if not c.passed]
        assert not failed, [f"{c.name}: {c.detail}" for c in failed]
        names = {c.name for c in checks}
        assert "orthogonality-delta" in names
        assert "s1-closed-form" in names
