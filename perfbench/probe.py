"""Set-up probe, run by ``run.py`` in a fresh interpreter.

    python3 perfbench/probe.py '{"src": ..., "root": ..., "argv": [...], "kind": ...}'

Times the import of the package, then runs one op twice (cold, then warm)
and prints one JSON line: import_s, cold_s, warm_s, the two output digests
and any problems.  Only the standard library is imported before the timed
import.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path[:0] = [spec["src"], spec["root"]]
    from perfbench import ops

    start = time.perf_counter()
    from dirichlet_resonance import cli  # imports the whole package

    import_s = time.perf_counter() - start
    runs = [ops.execute(cli.main, spec["argv"], spec["kind"]) for _ in range(2)]
    problems = [f"{label} run raised {r.error}" for label, r in zip(("cold", "warm"), runs) if r.error]
    print(json.dumps({
        "import_s": import_s,
        "cold_s": runs[0].seconds,
        "warm_s": runs[1].seconds,
        "digests": [r.digest for r in runs],
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
