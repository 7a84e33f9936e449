"""Smoke runs of the experiment scripts at a tiny size."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,args,written", [
    ("run_battery.py", ["--qs", "101", "--out", "{tmp}/battery.csv"], "battery.csv"),
    ("report_digest.py", [], None),
])
def test_script_runs(tmp_path, script, args, written):
    argv = [a.format(tmp=tmp_path) for a in args]
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *argv], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    if written is None:  # the digest script prints `<count> <sha256>` and writes nothing
        # A change that alters outputs on purpose re-pins this line and gives
        # its reason in CHANGES.md.
        assert done.stdout == (
            "809 fa535057fe114285ed5877362633c27c4338b61fded662246263915524993e6d\n")
    else:
        assert (tmp_path / written).stat().st_size > 0
