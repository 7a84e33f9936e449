"""Subcommand surface: flags, exit codes, file outputs."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dirichlet_resonance import cli, experiments
from dirichlet_resonance.cli import build_parser, main
from full_group import OVERFLOWING_S2, VERIFY_CHECKS


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstantsCommand:
    def test_c1_printed(self, capsys):
        code, out, _ = run_cli(["constants", "--ell", "1"], capsys)
        assert code == 0
        assert "1.326634" in out

    def test_sigma_row_shows_s_equals_h_equals_3(self, capsys):
        code, out, _ = run_cli(["constants", "--ell", "1", "--sigma", "0.75"], capsys)
        assert code == 0
        row = [line for line in out.splitlines() if line.strip().startswith("1")][0]
        assert row.count("3") >= 2  # S and H columns both show 3

    def test_sigma_out_of_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--ell", "1", "--sigma", "1.5"])
        assert exc.value.code == 2

    def test_sigma_columns_without_sigma_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--ell", "1", "--columns", "S,H"])
        assert exc.value.code == 2

    def test_csv_output(self, tmp_path, capsys):
        out_file = tmp_path / "constants.csv"
        code, _, _ = run_cli(
            ["constants", "--ell", "1", "2", "--sigma", "0.75", "--output", str(out_file)],
            capsys,
        )
        assert code == 0
        with out_file.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["C"]) == pytest.approx(1.3266, abs=1e-3)


def error_lines(err):
    """The lines of stderr (split at newlines only: an argument may hold a
    form feed; a blank line counts) without the final newline and argparse's
    usage text (its first line and the indented rest)."""
    return [line for line in err.removesuffix("\n").split("\n")
            if not line.startswith(("usage:", " "))]


def main_captured(argv):
    """(exit status, stdout, stderr) of main(argv), with RuntimeWarnings raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_exit(argv, code, err, failures):
    """Exit 0 with no failure, 1 with the failures in the written report, or
    2 with one error line."""
    assert code in (0, 1, 2), (argv, err)
    event(f"exit {code}")
    if code == 2:
        assert len(error_lines(err)) == 1, (argv, err)
    else:
        assert err == "" and (code == 1) == bool(failures), (argv, err, failures)


_SIGMAS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.5, 1.0, 0.501, 0.999]),
                    st.floats(0.4, 1.1), st.floats())


@settings(max_examples=80, derandomize=True, database=None, deadline=1000)
@given(ells=st.lists(st.integers(-1, 10**5) | st.sampled_from([2**20 + 1, 10**7, 10**30]),
                     min_size=1, max_size=3),
       sigmas=st.lists(_SIGMAS, max_size=2),
       columns=st.none() | st.lists(st.sampled_from(sorted(cli._CONST_COLUMNS)), unique=True))
def test_constants_ends_in_exit_0_or_2(ells, sigmas, columns):
    """Any ell up to 1e5 or past the 2^20 budget, any sigma and any set of
    columns: a table and exit 0, or exit 2 with one error line, in well
    under the deadline."""
    argv = ["constants", "--ell", *map(str, ells)]
    if sigmas:
        argv += ["--sigma", *map(repr, sigmas)]
    if columns is not None:
        argv += ["--columns", ",".join(columns)]
    code, out, err = main_captured(argv)
    assert code != 1
    check_exit(argv, code, err, [])
    if code == 0:
        assert len(out.splitlines()) == 1 + len(ells) * max(1, len(sigmas)), argv


# Accepted inputs stay cheap: q <= 1e4, ell <= 50, X and Y <= 1e5.  Rejected
# ones may be huge, but no X or Y lies in (1e5, 1e8]: Y defaults to ceil(X)
# and would be sieved that far.
_ODD_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1.0])
_PAST_BUDGET = st.floats(1e8, 1e308, exclude_min=True)
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.lists(st.integers(-2, 2), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_PRIME_Q = st.sampled_from([3, 5, 7, 11, 17, 101, 211, 499, 1009, 9973])
_STRIP_SIGMA = st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)
# per key: (accepted values, any value of the key's own kind)
_FIELDS = {
    "theorem": (st.integers(1, 4), st.integers(-1, 5)),
    "q": (_PRIME_Q, st.integers(-3, 10**4) | st.sampled_from(
        [10**9, 999999999, 3037000499, 3037000500, 2**61 - 1, 10**30])),
    "ell": (st.integers(1, 50), st.integers(-1, 50) | st.sampled_from([10**6, 10**30])),
    "x": (st.floats(0.5, 1e5), st.floats(0.0, 1e5) | st.integers(-5, 10**5) | _PAST_BUDGET
          | _ODD_FLOATS),
    "y": (st.integers(1000, 10**5), st.integers(-2, 10**5) | _PAST_BUDGET | _ODD_FLOATS
          | st.sampled_from([1000.7, 1e3, 20.5, 10**9, 10**20])),
    "sigma": (_STRIP_SIGMA, st.floats(0.4, 1.1) | _ODD_FLOATS | st.sampled_from([0.5000001, 1.0])),
    "excluded": (st.lists(st.integers(0, 10**4), max_size=3),
                 st.lists(st.integers(-3, 10**4) | st.just(10**30), max_size=3)),
    "endpoint_margin": (st.floats(0.0, 0.99), st.floats(-0.5, 1.5) | _ODD_FLOATS),
}


def _changed(draw, values: dict, fields: dict, unknown):
    """``values`` as drawn, or with one key replaced by any value of its kind
    or another, one key dropped, or an unknown key added."""
    change = draw(st.sampled_from(["none", "none", "replace", "drop", "add"]))
    if change == "replace":
        key = draw(st.sampled_from(sorted(fields)))
        values[key] = draw(fields[key][1] | _JUNK)
    elif change == "drop" and values:
        del values[draw(st.sampled_from(sorted(values)))]
    elif change == "add":
        values[draw(unknown)] = draw(_JUNK)
    return values


@st.composite
def _run_configs(draw):
    """A valid config (sigma given iff the theorem takes one, the other keys
    optional) changed by ``_changed``, a document that is not an object, or
    an ell * (q - 1) past the 2^30 budget, refused before any evaluation."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(_JUNK | st.integers() | _ODD_FLOATS)
    if kind == 1:
        return {"theorem": draw(st.integers(1, 4)), "q": 1000003,
                "ell": draw(st.integers(1074, 1000001) | st.just(10**30))}
    theorem = draw(st.integers(1, 4))
    config = {"theorem": theorem, "q": draw(_PRIME_Q)}
    if theorem in (2, 4):
        config["sigma"] = draw(_STRIP_SIGMA)
    for key in ("ell", "x", "y", "excluded", "endpoint_margin"):
        if draw(st.booleans()):
            config[key] = draw(_FIELDS[key][0])
    return _changed(draw, config, _FIELDS,
                    st.sampled_from(["output", "zero_free_constant_a", ""]) | st.text(max_size=2))


@settings(max_examples=300, derandomize=True, database=None, deadline=5000)
@given(config=_run_configs())
def test_run_ends_in_exit_0_1_or_2(config):
    """Any JSON document: a report with exit 0 or 1 (1 exactly when it lists
    failures), or exit 2 with one error line."""
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        argv = ["run", path, "--output", out]
        code, _, err = main_captured(argv)
        failures = []
        if code in (0, 1):
            with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                failures = json.load(fh)["failures"]
    check_exit([*argv, config], code, err, failures)


def _argv(flags: dict) -> list[str]:
    """Each flag, then its value as text: a str as it is, a list item by
    item, anything else as its repr."""
    return [text for flag, value in flags.items()
            for text in (flag, *(v if isinstance(v, str) else repr(v)
                                 for v in (value if isinstance(value, list) else [value])))]


_NEW_FLAGS = st.sampled_from(["--bogus", "-x"])
_Y_TEXTS = ["1e3", "1e5", "1000.7", "1e9", "100000001", "1e400", "nan", "inf", "-0", "x"]
_SWEEP_FLAGS = {
    "--theorem": (st.integers(1, 4), st.integers(-1, 5)),
    "--primes": (st.builds(lambda hi, width: f"{hi - width}..{hi}",
                           st.integers(17, 3000), st.integers(0, 120)),  # a huge HI is sieved
                 st.sampled_from(["100-200", "..", "a..b", "5..", "3..30", "200..100", "-10..0"])),
    "--ell": _FIELDS["ell"],
    "--sigma": (_STRIP_SIGMA, _FIELDS["sigma"][1]),
    "--margin": _FIELDS["endpoint_margin"],
    "--Y": (st.integers(1000, 10**5), st.integers(-2, 10**5) | st.sampled_from(_Y_TEXTS)),
}


@st.composite
def _sweep_argv(draw):
    theorem = draw(_SWEEP_FLAGS["--theorem"][0])
    given = {"--theorem": theorem, "--primes": draw(_SWEEP_FLAGS["--primes"][0])}
    if theorem in (2, 4):
        given["--sigma"] = draw(_STRIP_SIGMA)
    for flag in ("--ell", "--margin", "--Y"):
        if draw(st.booleans()):
            given[flag] = draw(_SWEEP_FLAGS[flag][0])
    return ["sweep", "--jobs", "1", *_argv(_changed(draw, given, _SWEEP_FLAGS, _NEW_FLAGS))]


@settings(max_examples=100, derandomize=True, database=None, deadline=5000)
@given(argv=_sweep_argv())
def test_sweep_ends_in_exit_0_1_or_2(argv):
    """Any sweep up to HI = 3000: rows and exit 0 or 1 (1 exactly when a row
    lists failures), or exit 2 with one error line."""
    with tempfile.TemporaryDirectory() as out:
        code, _, err = main_captured([*argv, "--output", out])
        failures = []
        if code in (0, 1):
            with open(os.path.join(out, "sweep.json"), encoding="utf-8") as fh:
                failures = [f for row in json.load(fh)["rows"] for f in row["failures"]]
    check_exit(argv, code, err, failures)


_ORACLE_FLAGS = {
    "--q": (st.sampled_from([3, 5, 7, 101, 211, 499]),
            st.integers(-3, 500) | st.sampled_from([3037000500, 10007])),
    "--sigma": (st.just(1.0) | _STRIP_SIGMA, _FIELDS["sigma"][1]),
    "--Y": (st.lists(st.integers(1, 10**5), min_size=1, max_size=3),
            st.lists(st.integers(-2, 10**5) | st.sampled_from(_Y_TEXTS), max_size=3)),
}


@st.composite
def _oracle_argv(draw):
    given = {"--q": draw(_ORACLE_FLAGS["--q"][0])}
    for flag in ("--sigma", "--Y"):
        if draw(st.booleans()):
            given[flag] = draw(_ORACLE_FLAGS[flag][0])
    return ["oracle", *_argv(_changed(draw, given, _ORACLE_FLAGS, _NEW_FLAGS))]


@settings(max_examples=100, derandomize=True, database=None, deadline=5000)
@given(argv=_oracle_argv())
def test_oracle_ends_in_exit_0_or_2(argv):
    """Any q, sigma and Y grid: a table and exit 0, or exit 2 with one error line."""
    code, _, err = main_captured(argv)
    assert code != 1
    check_exit(argv, code, err, [])


class TestRunCommand:
    def _write_config(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_minimal_run_exits_zero(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path, {"theorem": 1, "q": 101, "ell": 1, "x": 20.0, "y": 1000}
        )
        code, out, _ = run_cli(["run", cfg, "--output", str(tmp_path)], capsys)
        assert code == 0
        assert "PASS" in out
        with open(tmp_path / "report.csv", newline="") as fh:
            row = list(csv.DictReader(fh))[0]
        assert float(row["margin"]) >= 0.0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True

    def test_y_below_x_is_validation_error(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path, {"theorem": 1, "q": 101, "ell": 1, "x": 20.0, "y": 5}
        )
        code, _, err = run_cli(["run", cfg], capsys)
        assert code == 2
        assert "X <= Y" in err

    def test_strip_logderiv_ell_validation(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path,
            {"theorem": 4, "q": 101, "ell": 2, "x": 20.0, "y": 1000, "sigma": 0.75},
        )
        code, _, err = run_cli(["run", cfg], capsys)
        assert code == 2
        assert "1 <= ell < 1/(2 - 2 sigma)" in err


    @pytest.mark.parametrize("payload", [
        '{"theorem": 1, "q": 7}',
        '{"theorem": 1, "q": 101, "x": 20.0, "y": 1000, "excluded": 5}',
        '{"theorem": 1, "q": "abc"}',
        '{"theorem": 1, "q": 101.0}',
        '{"theorem": 1, "q": 101, "ell": "2"}',
        '{"theorem": 1, "q": 101, "x": NaN}',
        '{"theorem": 1, "q": 5, "ell": 4, "x": 3, "y": 10}',
        '{"theorem": 1, "q": 101, "x": 20.0, "zero_free_constant_a": 0.5}',
        '{"theorem": 1, "q": 101, "endpoint_margin": null}',
    ], ids=["default-x-small-q", "excluded-not-list", "q-string", "q-float",
            "ell-string", "x-nan", "empty-eligible-set", "removed-key", "margin-null"])
    def test_bad_config_is_config_error(self, tmp_path, capsys, payload):
        path = tmp_path / "config.json"
        path.write_text(payload)
        code, _, err = run_cli(["run", str(path), "--output", str(tmp_path)], capsys)
        assert code == 2
        assert "run error" in err

    def test_non_finite_report_fails(self, tmp_path, capsys):
        # X = 2000 overflows |R(chi)|^2, so S1 = inf and the ratio is NaN
        cfg = self._write_config(
            tmp_path, {"theorem": 1, "q": 1009, "ell": 1, "x": 2000.0, "y": 2001}
        )
        code, out, _ = run_cli(["run", cfg, "--output", str(tmp_path)], capsys)
        assert code == 1
        assert "FAIL" in out and "non-finite values: S1=inf" in out

    @pytest.mark.parametrize("excluded", [[], [50]], ids=["default", "quadratic-excluded"])
    @pytest.mark.parametrize("theorem,sigma,x", OVERFLOWING_S2)
    def test_infinite_summands_of_both_signs_fail_in_the_report(
            self, tmp_path, capsys, theorem, sigma, x, excluded):
        """S2 summands of +inf and -inf: exit 1 with the failure listed, no
        traceback and no numpy warning."""
        cfg = self._write_config(tmp_path, {"theorem": theorem, "q": 101, "x": x, "y": x,
                                            "sigma": sigma, "excluded": excluded})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["run", cfg, "--output", str(tmp_path)], capsys)
        assert code == 1 and err == ""
        assert "failure: non-finite values: S1=inf, S2=(nan+nanj)" in out
        assert json.loads((tmp_path / "report.json").read_text())["failures"]

    def test_failing_run_leaves_stderr_empty(self, tmp_path):
        cfg = self._write_config(tmp_path, {"theorem": 2, "q": 101, "x": 20000, "y": 20000,
                                            "sigma": 0.75})
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-m", "dirichlet_resonance", "run", cfg,
                               "--output", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (1, "")
        assert done.stdout.startswith("FAIL theorem 2 q=101")

    def test_s1_failure_is_reported(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "s1", lambda group, kernel: 1.0)
        cfg = self._write_config(
            tmp_path, {"theorem": 1, "q": 101, "ell": 1, "x": 20.0, "y": 1000}
        )
        code, out, _ = run_cli(["run", cfg, "--output", str(tmp_path)], capsys)
        assert code == 1
        assert out.startswith("FAIL theorem 1 q=101")
        assert "failure: S1 = 1.0 fell below phi(q) = 100" in out
        assert json.loads((tmp_path / "report.json").read_text())["passed"] is False


class TestSweepCommand:
    def test_row_count(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["sweep", "--theorem", "1", "--primes", "100..200", "--output", str(tmp_path)],
            capsys,
        )
        assert code == 0
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 21  # pi(200) - pi(100)

    def test_s1_failure_keeps_every_row(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "s1", lambda group, kernel: 1.0)
        code, out, _ = run_cli(
            ["sweep", "--theorem", "1", "--primes", "100..200", "--output", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "21 primes, 21 failures" in out
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 21 and all(float(r["S1"]) == 1.0 for r in rows)

    def test_strip_target_needs_sigma(self, capsys):
        code, _, err = run_cli(["sweep", "--theorem", "2", "--primes", "100..120"], capsys)
        assert code == 2
        assert err.count("\n") == 1 and "sigma" in err and "Traceback" not in err

    def test_line_target_takes_no_sigma(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--theorem", "1", "--sigma", "0.8", "--primes", "100..120"], capsys
        )
        assert code == 2 and "takes no sigma" in err

    def test_bad_range_syntax(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--theorem", "1", "--primes", "100-200"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_an_error(self, tmp_path, capsys, jobs):
        code, _, err = run_cli(
            ["sweep", "--theorem", "1", "--primes", "100..120", "--jobs", jobs,
             "--output", str(tmp_path)],
            capsys,
        )
        assert code == 2 and "jobs must be >= 1" in err


class TestOracleCommand:
    def test_q5_has_three_character_rows(self, capsys):
        code, out, _ = run_cli(
            ["oracle", "--q", "5", "--sigma", "1.0", "--Y", "100", "1000"], capsys
        )
        assert code == 0
        data_lines = [
            line for line in out.splitlines() if line.strip() and line.split()[0].isdigit()
        ]
        assert len(data_lines) == 3

    def test_writes_csv(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["oracle", "--q", "7", "--Y", "100", "1000", "--output", str(tmp_path)],
            capsys,
        )
        assert code == 0
        with open(tmp_path / "oracle.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "rel_err_Y100", "rel_err_Y1000"]
        assert len(rows) == 6  # header + phi(7) - 1 characters

    @pytest.mark.parametrize("y", ["0", "100000001"])
    def test_cutoff_out_of_range_is_an_error(self, y, capsys):
        code, _, err = run_cli(["oracle", "--q", "5", "--Y", "100", y], capsys)
        assert code == 2
        assert "oracle error: " in err and "cutoff" in err


class TestInputErrorsExitTwo:
    """Invalid input and unreadable or unwritable files end with exit status
    2 and one error line (after argparse's usage line), never a traceback."""

    CONFIG = '{"theorem": 1, "q": 101, "x": 20.0, "y": 1000}'

    @pytest.mark.parametrize("argv,expect", [
        (["constants", "--ell", "0"], "ell must be >= 1, got 0"),
        (["run", "{dir}/neg_x.json"], "X must be > 0, got -5"),
        (["run", "{dir}/margin.json"], "endpoint_margin"),
        (["run", "{dir}/missing.json"], "{dir}/missing.json"),
        (["run", "{dir}/ok.json", "--output", "{dir}/ok.json/out"], "{dir}/ok.json/out"),
        (["sweep", "--theorem", "1", "--primes", "100..104", "--output", "{dir}/ok.json/out"],
         "{dir}/ok.json/out"),
        (["oracle", "--q", "5", "--Y", "100", "--output", "{dir}/ok.json/out"],
         "{dir}/ok.json/out"),
        (["constants", "--ell", "1", "--output", "{dir}/no_dir/c.csv"], "{dir}/no_dir/c.csv"),
        (["constants", "--ell", "1100", "--sigma", "0.75", "--columns", "H"],
         "H(sigma=0.75, ell=1100) = 0.0 is not a finite normal double"),
        (["sweep", "--theorem", "1", "--primes", "3..30", "--output", "{dir}/sweep"],
         "primes 3..30 include q=3; the first prime with a default X is 17"),
        (["run", "{dir}/big_q.json"], "q = 999999999989 must be below 3037000500"),
        (["run", "{dir}/mersenne_q.json"], "q = 2305843009213693951 must be below 3037000500"),
        (["run", "{dir}/big_y.json"], "cutoff 1000000000 exceeds the double-precision budget"),
        (["sweep", "--theorem", "1", "--primes", "100..104", "--margin", "nan"],
         "endpoint_margin must be >= 0"),
        (["run", "{dir}/y_fraction.json"], "y must be an integer, got 1000.7"),
        (["run", "{dir}/y_fraction_below_x.json"], "y must be an integer, got 20.5"),
        (["sweep", "--theorem", "1", "--primes", "100..104", "--Y", "0"],
         "Y must be >= 1, got 0"),
        (["run", "{dir}/big_x.json"],
         "X = 1e+308 needs a cutoff Y >= X past the double-precision budget (1e8)"),
        (["verify", "--quick"], "unrecognized arguments: --quick"),
        (["run", "{dir}/big_ell.json"], "ell * (q - 1) = 1074 * 1000002 exceeds the time budget"),
        (["sweep", "--theorem", "3", "--primes", "1000003..1000003", "--ell", "1074"],
         "ell * (q - 1) = 1074 * 1000002 exceeds the time budget"),
        (["constants", "--ell", "1", str(2**20 + 1)],
         "ell = 1048577 exceeds the constant-series time budget (2^20)"),
        (["run", "{dir}/not_utf8.json"],
         "run error: 'utf-8' codec can't decode byte 0xff in position 0"),
        (["run", "{dir}/long_int.json"],
         "run error: Exceeds the limit (4300 digits) for integer string conversion"),
    ], ids=["constants-ell-0", "x-negative", "theorem-3-margin-1.5", "missing-config",
            "run-unwritable-output", "sweep-unwritable-output", "oracle-unwritable-output",
            "constants-unwritable-output", "constants-h-underflow", "sweep-below-17",
            "q-past-dlog-bound", "q-mersenne-61", "y-past-budget", "sweep-margin-nan",
            "y-not-integral", "y-not-integral-below-x", "sweep-y-0", "x-past-budget",
            "verify-quick", "run-ell-past-budget", "sweep-ell-past-budget",
            "constants-ell-past-budget", "config-not-utf8", "config-5000-digit-int"])
    def test_exit_two_with_one_error_line(self, tmp_path, capsys, argv, expect):
        (tmp_path / "neg_x.json").write_text('{"theorem": 1, "q": 101, "x": -5}')
        (tmp_path / "margin.json").write_text(
            '{"theorem": 3, "q": 101, "endpoint_margin": 1.5}')
        (tmp_path / "big_q.json").write_text('{"theorem": 1, "q": 999999999989}')
        (tmp_path / "mersenne_q.json").write_text('{"theorem": 1, "q": 2305843009213693951}')
        (tmp_path / "big_y.json").write_text('{"theorem": 1, "q": 101, "y": 1000000000}')
        (tmp_path / "big_x.json").write_text('{"theorem": 1, "q": 101, "x": 1e308}')
        (tmp_path / "big_ell.json").write_text('{"theorem": 1, "q": 1000003, "ell": 1074}')
        (tmp_path / "y_fraction.json").write_text('{"theorem": 1, "q": 101, "y": 1000.7}')
        (tmp_path / "y_fraction_below_x.json").write_text(
            '{"theorem": 1, "q": 101, "x": 20.3, "y": 20.5}')
        (tmp_path / "not_utf8.json").write_bytes(b'\xff\xfe{"theorem": 1}')
        (tmp_path / "long_int.json").write_text('{"theorem": 1, "q": 1' + "0" * 4999 + "}")
        (tmp_path / "ok.json").write_text(self.CONFIG)
        argv = [a.format(dir=tmp_path) for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if not line.startswith("usage:")]
        assert code == 2
        assert len(lines) == 1 and expect.format(dir=tmp_path) in lines[0], err


class TestBudgetPerCommand:
    """One time budget per command, checked before any evaluation: a sweep
    holds ell times q - 1 summed over its primes to 2^30, and ``constants``
    holds ell summed over the rows it prints to 2^22."""

    @pytest.fixture(autouse=True)
    def no_evaluation(self, monkeypatch):
        def evaluated(*args, **kwargs):
            raise AssertionError("evaluated")

        monkeypatch.setattr(experiments, "run_theorem", evaluated)
        monkeypatch.setattr(cli, "_CONST_COLUMNS", {
            c: (needs_sigma, evaluated) for c, (needs_sigma, _) in cli._CONST_COLUMNS.items()})

    # the 6 primes in 1000003..1000099 sum q - 1 to 6000286: 178 * 6000286 <= 2^30 < 179 * ...
    SWEEP = ["sweep", "--theorem", "3", "--primes", "1000003..1000099", "--ell"]

    def test_sweep_just_under_the_budget_validates(self, capsys):
        assert 178 * 6000286 <= 2**30 < 179 * 6000286
        with pytest.raises(AssertionError, match="evaluated"):
            main([*self.SWEEP, "178"])

    def test_sweep_just_over_the_budget_is_refused(self, capsys):
        code, _, err = run_cli([*self.SWEEP, "179"], capsys)
        assert code == 2
        assert err == "sweep error: ell * (q - 1) = 179 * 6000286 exceeds the time budget (2^30)\n"

    @pytest.mark.parametrize("ells,sigmas", [
        ([2**20] * 4, []), ([2**20] * 3 + [2**20 - 1, 1], []), ([2**20] * 2, ["0.75", "0.9"]),
    ], ids=["four-rows", "five-rows", "two-ells-by-two-sigmas"])
    def test_constants_just_under_the_budget_validates(self, ells, sigmas):
        argv = ["constants", "--ell", *map(str, ells), "--columns", "C"]
        with pytest.raises(AssertionError, match="evaluated"):
            main(argv + (["--sigma", *sigmas] if sigmas else []))

    @pytest.mark.parametrize("ells,sigmas,total", [
        ([2**20] * 4 + [1], [], 2**22 + 1), ([2**20] * 2 + [1], ["0.75", "0.9"], 2**22 + 2),
    ], ids=["five-rows", "three-ells-by-two-sigmas"])
    def test_constants_just_over_the_budget_is_refused(self, capsys, ells, sigmas, total):
        argv = ["constants", "--ell", *map(str, ells), "--columns", "C"]
        with pytest.raises(SystemExit) as exc:
            main(argv + (["--sigma", *sigmas] if sigmas else []))
        assert exc.value.code == 2
        assert error_lines(capsys.readouterr().err) == [
            f"dirichlet-resonance: error: ell summed over the rows = {total} "
            "exceeds the time budget (2^22)"]


class TestOneIntegralityRuleForY:
    """--Y and a JSON config's y follow ``arithmetic.require_integer``:
    "1e3" is 1000 on both paths, and 1000.7 fails on both with one text."""

    def test_exponent_notation_is_an_integer(self, tmp_path, capsys):
        outputs = []
        for y in ("1000", "1e3"):
            code, out, _ = run_cli(["sweep", "--theorem", "1", "--primes", "100..110",
                                    "--Y", y, "--output", str(tmp_path / y)], capsys)
            assert code == 0
            with open(tmp_path / y / "sweep.csv", newline="") as fh:
                outputs.append([{**row, "seconds": None} for row in csv.DictReader(fh)])
        assert outputs[0] == outputs[1] and {row["Y"] for row in outputs[0]} == {"1000"}
        assert build_parser().parse_args(["oracle", "--q", "5", "--Y", "1e5", "100"]).y_grid == [
            100000, 100]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--theorem", "1", "--primes", "100..110", "--Y", "1000.7"],
        ["oracle", "--q", "5", "--Y", "100", "1000.7"],
    ], ids=["sweep", "oracle"])
    def test_fractional_y_fails_as_in_a_config(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        cli_err = error_lines(capsys.readouterr().err)
        config = tmp_path / "config.json"
        config.write_text('{"theorem": 1, "q": 101, "y": 1000.7}')
        code, _, config_err = run_cli(["run", str(config)], capsys)
        text = "y must be an integer, got 1000.7"
        assert exc.value.code == code == 2
        assert len(cli_err) == 1 and cli_err[0].endswith(text) and config_err.endswith(text + "\n")


class TestVerifyCommand:
    def test_the_one_battery(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        lines = out.splitlines()
        assert code == 0
        assert all(line.startswith("PASS ") for line in lines[:-1])
        assert [line.split()[1].rstrip(":") for line in lines[:-1]] == VERIFY_CHECKS
        assert lines[-1] == "verify: 11 passed, 0 failed"


class TestParserContract:
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--ell", "1", "--bogus"])
        assert exc.value.code == 2

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestSharedParser:
    """``main`` builds its parser once per process; every later call,
    after usage and config errors too, behaves as the first did."""

    CONFIG = '{"theorem": 1, "q": 101, "ell": 1, "x": 20.0, "y": 1000}'

    @staticmethod
    def _without_seconds(path):
        if path.suffix == ".json":
            obj = json.loads(path.read_text())
            rows = obj.get("rows", [obj])
            for row in rows:
                row.pop("seconds", None)
            return obj
        if path.suffix == ".csv":
            with path.open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            for row in rows:
                row.pop("seconds", None)
            return rows
        return path.read_bytes()

    def _one_pass(self, tmp_path, capsys):
        out = tmp_path / "out"
        steps = [
            ["constants", "--ell", "1", "2", "--output", str(out / "constants.csv")],
            ["constants", "--ell", "1", "--columns", "S"],  # usage error: no --sigma
            ["run", str(tmp_path / "ok.json"), "--output", str(out)],
            ["run", str(tmp_path / "bad.json"), "--output", str(out)],  # config error
            ["sweep", "--theorem", "1", "--primes", "100..200", "--jobs", "1",
             "--output", str(out)],
            ["oracle", "--q", "7", "--output", str(out)],
            ["verify"],
        ]
        results = []
        for argv in steps:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            results.append((argv[0], code, capsys.readouterr().out))
        files = {p.name: self._without_seconds(p) for p in sorted(out.iterdir())}
        return results, files

    def test_second_pass_matches_first(self, tmp_path, capsys):
        (tmp_path / "ok.json").write_text(self.CONFIG)
        (tmp_path / "bad.json").write_text('{"theorem": 1, "q": 7}')
        (tmp_path / "out").mkdir()
        first = self._one_pass(tmp_path, capsys)
        assert [code for _, code, _ in first[0]] == [0, 2, 0, 2, 0, 0, 0]
        assert sorted(first[1]) == ["constants.csv", "oracle.csv", "oracle.json", "report.csv",
                                    "report.json", "sweep.csv", "sweep.json"]
        assert first == self._one_pass(tmp_path, capsys)

    def test_main_reuses_one_parser_and_build_parser_is_fresh(self):
        assert cli._shared_parser() is cli._shared_parser()
        assert cli.build_parser() is not cli.build_parser()
        assert cli.build_parser() is not cli._shared_parser()

    def test_defaults_are_immutable(self):
        args = build_parser().parse_args(["constants", "--ell", "1"])
        assert args.sigma == ()
        args = build_parser().parse_args(["oracle", "--q", "5"])
        assert args.y_grid == (100, 1000, 10000, 100000)


def test_serial_commands_import_no_process_pool(tmp_path):
    """Only a sweep that starts worker processes imports the process pool."""
    src = Path(__file__).resolve().parents[1] / "src"
    cfg = tmp_path / "config.json"
    cfg.write_text(TestSharedParser.CONFIG)
    code = (
        "import sys\n"
        "from dirichlet_resonance import cli\n"
        f"codes = [cli.main(['run', {str(cfg)!r}, '--output', {str(tmp_path)!r}]),\n"
        f"         cli.main(['sweep', '--theorem', '1', '--primes', '100..120',\n"
        f"                   '--output', {str(tmp_path)!r}])]\n"
        "print(codes, 'concurrent.futures.process' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "[0, 0] False"
