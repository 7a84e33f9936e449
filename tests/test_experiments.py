"""Pipelines, configs, sweeps, oracle tables, and report writers."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_resonance import experiments
from dirichlet_resonance.arithmetic import primes_up_to
from dirichlet_resonance.characters import CharacterGroup, power_reduce
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
    logderiv_poly_all,
    truncated_l,
    truncated_l_all,
)
from dirichlet_resonance.resonator import (
    LinearKernel,
    SigmaKernel,
    bound_l_product,
    resonator_sq,
    s2_terms,
)

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
        fsum = experiments._fsum_complex
        monkeypatch.setattr(experiments, "_fsum_complex", lambda arr: fsum(arr) + 1j)
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

        for name in ("CharacterGroup", "s2_terms", "s1", "truncated_l_all", "logderiv_poly_all"):
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
        terms = s2_terms(group, target, ell, kernel, cfg.y)
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

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
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


class TestVerificationBattery:
    def test_quick_battery_passes(self):
        checks = run_verification(quick=True)
        failed = [c for c in checks if not c.passed]
        assert not failed, [f"{c.name}: {c.detail}" for c in failed]
        names = {c.name for c in checks}
        assert "orthogonality-delta" in names
        assert "s1-closed-form" in names
