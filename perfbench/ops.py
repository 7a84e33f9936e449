"""Running one CLI op in-process and fingerprinting what it wrote.

Standard library only: the fresh-process setup probe uses this module before
it imports (and times the import of) the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass

# the file each CLI command writes into its --output directory
OUTPUT_FILE = {"run": "report.json", "sweep": "sweep.json", "oracle": "oracle.json"}


@dataclass
class OpResult:
    rc: int | None
    seconds: float  # wall time of cli.main, timed from outside the call
    error: str | None  # repr of an exception that escaped cli.main
    payload: dict | None  # the JSON output (verify: its stdout lines)
    digest: str


def prepare(op: dict, workdir: str, jobs: int = 1) -> list[str]:
    """The argv for ``op``; a run op's config file is written here, so the
    timed call only reads it."""
    out = os.path.join(workdir, "out")
    kind = op["kind"]
    if kind == "run":
        path = os.path.join(workdir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op["config"], fh)
        return ["run", path, "--output", out]
    if kind == "sweep":
        return [
            "sweep", "--theorem", str(op["theorem"]),
            "--primes", f"{op['lo']}..{op['hi']}",
            "--jobs", str(jobs), "--output", out,
        ]
    if kind == "oracle":
        return [
            "oracle", "--q", str(op["q"]), "--sigma", repr(op["sigma"]),
            "--Y", *(str(y) for y in op["ys"]), "--output", out,
        ]
    if kind == "verify":
        return ["verify"]
    raise ValueError(f"unknown op kind {kind!r}")


def _stable(obj):
    """The report with every wall-time field removed."""
    if isinstance(obj, dict):
        return {k: _stable(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_stable(v) for v in obj]
    return obj


def digest(rc: int | None, payload: dict | None) -> str:
    """Hash of the exit status and the bit-stable output fields."""
    text = json.dumps([rc, _stable(payload)], sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def execute(main, argv: list[str], kind: str) -> OpResult:
    """Call ``main(argv)`` with stdout captured and read back its output."""
    out_path = None
    if kind in OUTPUT_FILE:
        out_path = os.path.join(argv[argv.index("--output") + 1], OUTPUT_FILE[kind])
        with contextlib.suppress(FileNotFoundError):
            os.remove(out_path)  # never read a previous op's file
    buf = io.StringIO()
    error = None
    rc = None
    # stderr (warnings, printed once per process) stays out of the payload
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse errors
            error = f"SystemExit({exc.code!r})"
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = repr(exc)
        seconds = time.perf_counter() - start
    payload = None
    if kind == "verify":
        payload = {"stdout": buf.getvalue().splitlines()}
    elif out_path is not None and os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            payload = json.load(fh)
    return OpResult(rc, seconds, error, payload, digest(rc, payload))
