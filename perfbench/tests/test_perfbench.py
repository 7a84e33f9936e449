"""Tests of the benchmark's own checks, workloads and tracer."""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from dirichlet_resonance import experiments  # noqa: E402
from dirichlet_resonance.experiments import ExperimentConfig, run_theorem  # noqa: E402
from perfbench import checks, ops, run, tracing, workloads  # noqa: E402


def _report(**kw) -> dict:
    return run_theorem(ExperimentConfig(**kw)).to_dict()


def test_checker_flags_nonfinite_report_that_claims_pass():
    # At X = 2000 the resonator weights overflow: S1 = inf, ratio = nan, and
    # the program's own NaN comparisons let the report through as passed.
    try:
        report = _report(theorem=1, q=1009, ell=1, x=2000.0, y=2001)
    except ValueError:
        pytest.skip("the program now rejects this configuration up front")
    problems = checks.report_problems(report)
    assert problems
    assert any("S1" in p for p in problems)
    assert any("ratio" in p for p in problems)


def test_checker_flags_literal_nan_report():
    report = _report(theorem=3, q=101, ell=1, x=20.0, y=1000)
    assert checks.report_problems(report) == []
    for field in checks.FINITE_FIELDS:
        bad = dict(report, **{field: math.nan})
        assert checks.report_problems(bad), field
    assert checks.report_problems(dict(report, passed=False, failures=["x"]))


def test_output_problems_exit_status_and_exceptions():
    op = {"kind": "verify"}
    ok = ops.OpResult(0, 0.1, None, {"stdout": ["PASS a: b", "verify: 1 passed, 0 failed"]}, "d")
    assert checks.output_problems(op, ok) == []
    assert checks.output_problems(op, ops.OpResult(1, 0.1, None, ok.payload, "d"))
    assert checks.output_problems(op, ops.OpResult(None, 0.1, "ValueError()", None, "d"))
    failing = {"stdout": ["PASS a: b", "FAIL c: d", "verify: 1 passed, 1 failed"]}
    assert checks.output_problems(op, ops.OpResult(0, 0.1, None, failing, "d"))


def test_run_reference_check_passes_and_catches_a_perturbation():
    report = _report(theorem=1, q=1009, ell=2, y=1000)
    assert checks.run_reference_problems(report, [5, 17, 300]) == []
    tol = checks.l_product_rel_tol(1009, 1.0, 1000, 2)
    bumped = dict(report, max_value=report["max_value"] * (1.0 + 100 * tol))
    assert checks.run_reference_problems(bumped, [])
    s1_off = dict(report, S1=report["S1"] * (1.0 + 1e-12))
    assert checks.run_reference_problems(s1_off, [])


def test_logderiv_reference_check():
    report = _report(theorem=4, q=1009, ell=1, y=1000, sigma=0.8)
    assert checks.run_reference_problems(report, [3, 400]) == []
    tol = checks.logderiv_abs_tol(1009, 0.8, 1000, 1)
    assert checks.run_reference_problems(dict(report, max_value=report["max_value"] + 100 * tol), [])


def test_sweep_s1_check_against_congruence_oracle():
    result = experiments.sweep(1, (1000, 1010))
    row = result.reports[0].to_dict()
    assert checks.sweep_s1_problems(row) == []
    assert checks.sweep_s1_problems(dict(row, S1=row["S1"] * 0.9))


def test_oracle_reference_check(tmp_path):
    from dirichlet_resonance import cli

    op = {"kind": "oracle", "q": 101, "sigma": 0.75, "ys": [150, 2000], "samples": [0.1, 0.7]}
    result = ops.execute(cli.main, ops.prepare(op, str(tmp_path)), "oracle")
    assert checks.output_problems(op, result) == []
    assert checks.oracle_reference_problems(op, result.payload) == []
    bad = json.loads(json.dumps(result.payload))
    for row in bad["rel_errors"]:
        row[0] *= 1.5
    assert checks.oracle_reference_problems(op, bad)


def test_digest_ignores_wall_time_only():
    a = {"rows": [{"q": 5, "S1": 1.0, "seconds": 0.1}], "seconds": 2.0}
    b = {"rows": [{"q": 5, "S1": 1.0, "seconds": 0.3}], "seconds": 9.0}
    assert ops.digest(0, a) == ops.digest(0, b)
    assert ops.digest(0, a) != ops.digest(1, a)
    assert ops.digest(0, a) != ops.digest(0, {"rows": [{"q": 5, "S1": 1.0 + 2**-52}]})


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workloads_are_seeded(name):
    first = list(itertools.islice(workloads.generate(name, 7), 40))
    again = list(itertools.islice(workloads.generate(name, 7), 40))
    other = list(itertools.islice(workloads.generate(name, 8), 40))
    assert first == again
    assert first != other


def test_workload_inputs_are_admissible():
    runs = list(itertools.islice(workloads.generate("run-large", 3), 40))
    assert len({op["config"]["q"] for op in runs}) == 40  # a fresh q per op
    assert [op["config"]["theorem"] for op in runs[:5]] == list(workloads.RUN_CYCLE)
    for op in runs:
        cfg = ExperimentConfig(**op["config"]).validated()
        assert 9800 <= cfg.q <= 10200 and 9800 <= cfg.y <= 10200
    for op in itertools.islice(workloads.generate("sweep-small", 3), 40):
        assert len(op["primes"]) == workloads.SWEEP_WINDOW
        assert op["primes"][0] == op["lo"] and op["primes"][-1] == op["hi"]
    oracles = [op for op in itertools.islice(workloads.generate("verify-oracle", 3), 40)
               if op["kind"] == "oracle"]
    assert all(op["q"] <= 499 and len(set(op["ys"])) == 4 for op in oracles)


def test_nearest_rank_percentile():
    values = [float(i) for i in range(40, 0, -1)]
    assert run.percentile(values, 75.0) == (30.0, 10)
    assert run.percentile([3.0, 1.0, 2.0], 100.0 / 3.0) == (1.0, 2)
    assert run.percentile([5.0], 90.0) == (5.0, 0)


def test_tracer_wraps_every_import_site_and_restores():
    from dirichlet_resonance import characters, lfunctions, resonator

    original = lfunctions.truncated_l_all
    init = characters.CharacterGroup.__init__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert experiments.truncated_l_all is not original
        assert experiments.truncated_l_all is resonator.truncated_l_all is lfunctions.truncated_l_all
        tracer.op = 0
        # through the module: this file's own `run_theorem` name is an
        # import site the tracer does not know about
        report = experiments.run_theorem(ExperimentConfig(1, 101, 1, x=20.0, y=1000))
    finally:
        tracer.uninstall()
    assert lfunctions.truncated_l_all is original and experiments.truncated_l_all is original
    assert characters.CharacterGroup.__init__ is init
    assert report.passed

    spans = tracer.spans
    layers = [s[0] for s in spans]
    assert layers.count("lfunctions.base") == 2 and layers.count("resonator.rsq") == 2
    assert tracing.distinct_by_theorem(spans) == {"t1": 0.5}
    root = next(s for s in spans if s[4] == -1)
    assert math.isclose(sum(tracing.self_times(spans)), root[3] - root[2], rel_tol=1e-9, abs_tol=1e-12)
    [(gap, overhead)] = tracing.self_time_gaps(spans, [root[3] - root[2]])
    assert abs(gap) < 1e-9 and overhead > 0
    metrics = tracing.summarize(spans, 1)
    assert metrics["lfunctions.base.distinct_ratio"] == 0.5
    assert metrics["resonator.rsq.distinct_ratio"] == 0.5
    assert metrics["lfunctions.base.cells"] == 2 * 100 * 167  # order x primes <= 1000 except 101


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
