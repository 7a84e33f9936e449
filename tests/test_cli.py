"""Subcommand surface: flags, exit codes, file outputs."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dirichlet_resonance import cli, experiments
from dirichlet_resonance.cli import build_parser, main


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
    ], ids=["default-x-small-q", "excluded-not-list", "q-string", "q-float",
            "ell-string", "x-nan", "empty-eligible-set", "removed-key"])
    def test_bad_config_is_config_error(self, tmp_path, capsys, payload):
        path = tmp_path / "config.json"
        path.write_text(payload)
        code, _, err = run_cli(["run", str(path), "--output", str(tmp_path)], capsys)
        assert code == 2
        assert "config error" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_report_fails(self, tmp_path, capsys):
        # X = 2000 overflows |R(chi)|^2, so S1 = inf and the ratio is NaN
        cfg = self._write_config(
            tmp_path, {"theorem": 1, "q": 1009, "ell": 1, "x": 2000.0, "y": 2001}
        )
        code, out, _ = run_cli(["run", cfg, "--output", str(tmp_path)], capsys)
        assert code == 1
        assert "FAIL" in out and "non-finite values: S1=inf" in out

    def test_im_s2_failure_is_reported(self, tmp_path, capsys, monkeypatch):
        s2_sum = experiments._s2_sum
        monkeypatch.setattr(experiments, "_s2_sum", lambda terms: s2_sum(terms) + 1j)
        cfg = self._write_config(
            tmp_path, {"theorem": 1, "q": 101, "ell": 1, "x": 20.0, "y": 1000}
        )
        code, out, _ = run_cli(["run", cfg, "--output", str(tmp_path)], capsys)
        assert code == 1
        assert out.startswith("FAIL theorem 1 q=101")
        assert "failure: Im S2 = 1.0 is not negligible" in out
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

    def test_im_s2_failure_keeps_every_row(self, tmp_path, capsys, monkeypatch):
        s2_sum = experiments._s2_sum
        monkeypatch.setattr(experiments, "_s2_sum", lambda terms: s2_sum(terms) + 1j)
        code, out, _ = run_cli(
            ["sweep", "--theorem", "1", "--primes", "100..200", "--output", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "21 primes, 21 failures" in out
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 21 and all(float(r["S2_im"]) == 1.0 for r in rows)

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
    ], ids=["constants-ell-0", "x-negative", "theorem-3-margin-1.5", "missing-config",
            "run-unwritable-output", "sweep-unwritable-output", "oracle-unwritable-output",
            "constants-unwritable-output", "constants-h-underflow", "sweep-below-17",
            "q-past-dlog-bound", "q-mersenne-61", "y-past-budget", "sweep-margin-nan",
            "y-not-integral", "y-not-integral-below-x", "sweep-y-0"])
    def test_exit_two_with_one_error_line(self, tmp_path, capsys, argv, expect):
        (tmp_path / "neg_x.json").write_text('{"theorem": 1, "q": 101, "x": -5}')
        (tmp_path / "margin.json").write_text(
            '{"theorem": 3, "q": 101, "endpoint_margin": 1.5}')
        (tmp_path / "big_q.json").write_text('{"theorem": 1, "q": 999999999989}')
        (tmp_path / "mersenne_q.json").write_text('{"theorem": 1, "q": 2305843009213693951}')
        (tmp_path / "big_y.json").write_text('{"theorem": 1, "q": 101, "y": 1000000000}')
        (tmp_path / "y_fraction.json").write_text('{"theorem": 1, "q": 101, "y": 1000.7}')
        (tmp_path / "y_fraction_below_x.json").write_text(
            '{"theorem": 1, "q": 101, "x": 20.3, "y": 20.5}')
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


class TestVerifyCommand:
    def test_quick_battery(self, capsys):
        code, out, _ = run_cli(["verify", "--quick"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert "verify:" in out


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
            ["verify", "--quick"],
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
