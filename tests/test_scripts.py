"""Smoke runs of the experiment scripts at a tiny size, and the report
digest pinned at every SIMD level numpy dispatches to."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# `report_digest.py`'s first line per SIMD fingerprint (its second line).
# numpy's float64 exp, log and power round differently at each level, so
# each level has its own digest.  A change that alters outputs on purpose
# re-pins every line and gives its reason in CHANGES.md; a new numpy
# version or CPU family adds its lines once they are measured.
DIGESTS = {
    "numpy 2.4.6 X86_V4":
        "809 fa535057fe114285ed5877362633c27c4338b61fded662246263915524993e6d",
    "numpy 2.4.6 X86_V3":
        "809 3d3989c47aeb94eda800fd8c9b37e2170126103684aa1a21faf680b032e3a7af",
    "numpy 2.4.6 X86_V2":
        "809 3c8791bf234fae67f0d24c3bb51625f54fcb163a837c318887613280f26270f9",
}

# NPY_DISABLE_CPU_FEATURES per x86-64 level; it acts on the one process it is given to
DISABLED = {
    "X86_V4": "",
    "X86_V3": "X86_V4 AVX512_ICL AVX512_SPR",
    "X86_V2": "X86_V4 AVX512_ICL AVX512_SPR X86_V3",
}


def run_script(script, argv, cwd, env=None):
    return subprocess.run([sys.executable, str(SCRIPTS / script), *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def assert_pinned(stdout):
    digest, fingerprint = stdout.splitlines()
    assert fingerprint in DIGESTS, f"no digest pinned for {fingerprint!r}; it printed {digest!r}"
    assert digest == DIGESTS[fingerprint], fingerprint


@pytest.mark.parametrize("script,args,written", [
    ("run_battery.py", ["--qs", "101", "--out", "{tmp}/battery.csv"], "battery.csv"),
    ("report_digest.py", [], None),
])
def test_script_runs(tmp_path, script, args, written):
    argv = [a.format(tmp=tmp_path) for a in args]
    done = run_script(script, argv, tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    if written is None:  # the digest script prints two lines and writes nothing
        assert_pinned(done.stdout)
    else:
        assert (tmp_path / written).stat().st_size > 0


@pytest.mark.parametrize("level", sorted(DISABLED))
def test_report_digest_pinned_at_simd_level(tmp_path, level):
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": DISABLED[level]}
    done = run_script("report_digest.py", [], tmp_path, env)
    assert done.returncode == 0, done.stdout + done.stderr
    assert_pinned(done.stdout)
