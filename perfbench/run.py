#!/usr/bin/env python3
"""Benchmark of dirichlet-resonance through its public entry point.

    python3 perfbench/run.py --workload run-large --seed 1 --seconds 20 --trace 0

Runs one seeded workload (see ``workloads.py``) through
``dirichlet_resonance.cli.main`` in this process, imported from ``src/`` of
the checkout this file sits in.  A warm-up op runs first; then ops run, in
whole cycles, until their summed wall time reaches ``--seconds``.  Every op
is checked (``checks.py``): its exit status, its report, and, outside the
timed window, a cross-check against the scalar reference.  Op 0 is re-run
in fresh processes (``probe.py``) for the set-up time, and every repeat of
an op must give the same output digest.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each op
twice, untraced and traced in alternating order, and prints the per-layer
metrics derived from the spans (``tracing.py``), which it also writes to
``.bench_work/``.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  ``--workload all`` runs
every workload in turn, each in its own process.

BLAS and OpenMP are pinned to one thread: one per sweep worker, and one in
the single-process workloads, where two threads gave no gain on theorems
2-4 at q = 1e4 on a 2-core Xeon and only add run-to-run noise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

PACKAGE = "dirichlet_resonance"
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBES = 3  # fresh processes per run for the set-up time
PROBE_TIMEOUT = 120
WINDOW_CAP = 3.0  # stop mid-cycle once the window reaches this many --seconds

# name -> (unit, better); BENCHMARK.json lists the same names and units.
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_s.p50": ("s", "lower"),
    "op_s.tail": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
    "success_ratio": ("1", "higher"),
}

PER_LAYER = {
    "lfunctions.base.self_s": ("s/op", "lower"),
    "lfunctions.base.calls": ("count/op", "lower"),
    "lfunctions.base.cells": ("count/op", "lower"),
    "lfunctions.base.distinct_ratio": ("1", "higher"),
    "lfunctions.scalar.self_s": ("s/op", "lower"),
    "lfunctions.oracle.self_s": ("s/op", "lower"),
    "lfunctions.oracle.calls": ("count/op", "lower"),
    "resonator.rsq.self_s": ("s/op", "lower"),
    "resonator.rsq.calls": ("count/op", "lower"),
    "resonator.rsq.distinct_ratio": ("1", "higher"),
    "resonator.s1.self_s": ("s/op", "lower"),
    "resonator.s2.self_s": ("s/op", "lower"),
    "resonator.bound.self_s": ("s/op", "lower"),
    "resonator.s1_oracle.self_s": ("s/op", "lower"),
    "characters.group.self_s": ("s/op", "lower"),
    "characters.group.calls": ("count/op", "lower"),
    "characters.eligible.self_s": ("s/op", "lower"),
    "characters.values_matrix.self_s": ("s/op", "lower"),
    "characters.values_matrix.cells": ("count/op", "lower"),
    "arithmetic.dlog.self_s": ("s/op", "lower"),
    "arithmetic.sieve.self_s": ("s/op", "lower"),
    "arithmetic.sieve.calls": ("count/op", "lower"),
    "arithmetic.sieve.hit_ratio": ("1", "higher"),
    "arithmetic.other.self_s": ("s/op", "lower"),
    "constants.self_s": ("s/op", "lower"),
    "experiments.run.self_s": ("s/op", "lower"),
    "experiments.sweep.overhead_s": ("s/op", "lower"),
    "experiments.oracle.self_s": ("s/op", "lower"),
    "experiments.verify.self_s": ("s/op", "lower"),
    "cli.self_s": ("s/op", "lower"),
    "cli.io.self_s": ("s/op", "lower"),
    "cli.io.bytes": ("B/op", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.cold_s": ("s", "lower"),
    "trace.overhead_ratio": ("1", "higher"),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    xs = sorted(values)
    rank = min(len(xs), max(1, math.ceil(pct / 100.0 * len(xs) - 1e-9)))
    return xs[rank - 1], len(xs) - rank


def peak_rss_mib() -> float:
    """Peak resident set of this process or of its largest finished child
    (sweep workers), in MiB; ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def environment(root: Path) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, args, root: Path, src: Path):
        from perfbench import workloads

        if args.workload not in workloads.WORKLOADS:
            raise SystemExit(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
        self.args = args
        self.root = root
        self.src = src
        self.workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cycle = workloads.CYCLE_LENGTH[args.workload]
        self.op_source = workloads.generate(args.workload, args.seed)
        self.ops: list[dict] = []
        self.problems: dict[int, list[str]] = {}
        nproc = len(os.sched_getaffinity(0))
        # traced sweeps run in-process: spans from forked workers are lost
        self.jobs = 1 if args.trace else min(2, nproc)

    # -- running ops --------------------------------------------------------

    def op(self, i: int) -> dict:
        while len(self.ops) <= i:
            self.ops.append(next(self.op_source))
        return self.ops[i]

    def call(self, i: int, jobs: int | None = None):
        from dirichlet_resonance import cli
        from perfbench import ops

        op = self.op(i)
        argv = ops.prepare(op, str(self.workdir), jobs or self.jobs)
        return ops.execute(lambda a: cli.main(a), argv, op["kind"])

    def fail(self, i: int, problems: list[str]) -> None:
        if problems:
            self.problems.setdefault(i, []).extend(problems)

    def check_output(self, i: int, result) -> None:
        from perfbench import checks

        self.fail(i, checks.output_problems(self.op(i), result))

    def same_digest(self, i: int, label: str, first, second) -> None:
        if first != second:
            self.fail(i, [f"output digest differs ({label}): {first} != {second}"])

    def window(self) -> list:
        """Untraced ops, whole cycles, until their wall time reaches --seconds."""
        results, total = [], 0.0
        while not (len(results) % self.cycle == 0 and total >= self.args.seconds
                   or total >= WINDOW_CAP * self.args.seconds):
            i = len(results)
            result = self.call(i)
            self.check_output(i, result)
            results.append(result)
            total += result.seconds
        return results

    def traced_window(self, tracer):
        """Each op untraced and traced, alternating which runs first, until
        the untraced time reaches --seconds / 3."""
        plain, traced, total = [], [], 0.0
        while True:
            i = len(plain)
            pair = {}
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.op = i
                    tracer.install()
                try:
                    pair[with_trace] = self.call(i)
                finally:
                    tracer.uninstall()
            for result in pair.values():
                self.check_output(i, result)
            self.same_digest(i, "traced vs untraced", pair[False].digest, pair[True].digest)
            plain.append(pair[False])
            traced.append(pair[True])
            total += pair[False].seconds
            if len(plain) % self.cycle == 0 and total >= self.args.seconds / 3:
                return plain, traced
            if total >= WINDOW_CAP * self.args.seconds / 3:
                return plain, traced

    # -- set-up probes and checks outside the window ------------------------

    def probes(self, first_digest: str) -> dict:
        """Op 0 cold and warm in PROBES fresh processes (medians)."""
        from perfbench import ops

        probe_dir = self.workdir / "probe"
        probe_dir.mkdir(exist_ok=True)
        argv = ops.prepare(self.op(0), str(probe_dir), self.jobs)
        spec = json.dumps({"src": str(self.src), "root": str(self.root),
                           "argv": argv, "kind": self.op(0)["kind"]})
        script = self.root / "perfbench" / "probe.py"
        rows = []
        for n in range(PROBES):
            try:
                proc = subprocess.run([sys.executable, str(script), spec], cwd=self.root,
                                      capture_output=True, text=True, timeout=PROBE_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.fail(0, [f"set-up probe {n} timed out after {PROBE_TIMEOUT} s"])
                continue
            if proc.returncode != 0:
                self.fail(0, [f"set-up probe {n} exited {proc.returncode}: {proc.stderr[-500:]}"])
                continue
            row = json.loads(proc.stdout.strip().splitlines()[-1])
            self.fail(0, row["problems"])
            for label, d in zip(("cold", "warm"), row["digests"]):
                self.same_digest(0, f"fresh process {n} {label} vs in-process", first_digest, d)
            rows.append(row)
        if not rows:
            return {"import_s": 0.0, "cold_s": 0.0, "setup_s": 0.0}
        return {
            "import_s": statistics.median(r["import_s"] for r in rows),
            "cold_s": statistics.median(r["cold_s"] - r["warm_s"] for r in rows),
            "setup_s": statistics.median(r["import_s"] + r["cold_s"] - r["warm_s"] for r in rows),
        }

    def reference_checks(self, results: list) -> None:
        """Cross-check every op against the scalar reference path."""
        from perfbench import checks

        for i, result in enumerate(results):
            op, payload = self.op(i), result.payload
            if i in self.problems or payload is None:
                continue
            try:
                if op["kind"] == "run":
                    # the whole-group S1 sum costs ~0.3 s: once per theorem
                    problems = checks.run_reference_problems(payload, op["samples"], i < self.cycle)
                elif op["kind"] == "sweep":
                    problems = checks.sweep_s1_problems(payload["rows"][op["sample"]])
                elif op["kind"] == "oracle":
                    problems = checks.oracle_reference_problems(op, payload)
                else:
                    problems = []
            except Exception as exc:  # the reference path itself failed
                problems = [f"reference cross-check raised {exc!r}"]
            self.fail(i, problems)

    def determinism_checks(self, warmup, results: list) -> dict:
        """Op 0 must give one digest: warm-up, window, fresh processes and,
        for sweeps, the other --jobs setting."""
        self.same_digest(0, "warm-up vs window", warmup.digest, results[0].digest)
        setup = self.probes(results[0].digest)
        if self.op(0)["kind"] == "sweep":
            other = 2 if self.jobs == 1 else 1
            rerun = self.call(0, jobs=other)
            self.check_output(0, rerun)
            self.same_digest(0, f"--jobs {self.jobs} vs --jobs {other}", results[0].digest, rerun.digest)
        return setup

    # -- the run ------------------------------------------------------------

    def run(self) -> dict:
        warmup = self.call(0)  # fills caches and lazy set-up before timing
        if self.args.trace:
            metrics, results = self.run_traced(warmup)
        else:
            results = self.window()
            peak = peak_rss_mib()
            setup = self.determinism_checks(warmup, results)
            metrics = self.end_to_end([r.seconds for r in results], peak, setup)
        self.reference_checks(results)
        attempted = len(results)
        failed = len(self.problems)
        if not self.args.trace:
            metrics["success_ratio"] = 1.0 - failed / attempted
        for i, problems in sorted(self.problems.items()):
            for p in problems:
                print(f"FAILED op {i} ({self.op(i)['kind']}): {p}")
        ws = hashlib.sha256("".join(r.digest for r in results).encode()).hexdigest()[:16]
        print(f"digest {self.args.workload} seed={self.args.seed} ops={attempted} {ws}")
        print(f"fail_ratio {failed / attempted:.6g} ({failed}/{attempted} ops failed)")
        print("env " + json.dumps(environment(self.root), sort_keys=True))
        self.print_table(metrics)
        shutil.rmtree(self.workdir, ignore_errors=True)
        units = PER_LAYER if self.args.trace else END_TO_END
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
        }

    def end_to_end(self, times: list[float], peak: float, setup: dict) -> dict:
        from perfbench import workloads

        self.tail_pct = workloads.TAIL_PERCENTILE[self.args.workload]
        tail_value, beyond = percentile(times, self.tail_pct)
        print(f"window {len(times)} ops, {sum(times):.3f} s; op_s.tail is p{self.tail_pct:.1f} "
              f"of n={len(times)} ({beyond} beyond); setup_s = import {setup['import_s']:.4f} s + "
              f"cold {setup['cold_s']:.4f} s (medians of {PROBES} fresh processes)")
        return {
            "ops_per_s": len(times) / sum(times),
            "op_s.p50": statistics.median(times),
            "op_s.tail": tail_value,
            "peak_rss_mb": peak,
            "setup_s": setup["setup_s"],
        }

    def run_traced(self, warmup):
        from perfbench import tracing

        tracer = tracing.Tracer()
        plain, traced = self.traced_window(tracer)
        setup = self.determinism_checks(warmup, plain)
        metrics = tracing.summarize(tracer.spans, len(traced))
        metrics["setup.import_s"] = setup["import_s"]
        metrics["setup.cold_s"] = setup["cold_s"]
        metrics["trace.overhead_ratio"] = sum(r.seconds for r in plain) / sum(r.seconds for r in traced)
        gaps = tracing.self_time_gaps(tracer.spans, [r.seconds for r in traced])
        for i, (gap, overhead) in enumerate(gaps):
            if not -1e-9 <= gap <= overhead:
                self.fail(i, [f"layer self times miss the traced wall time by {gap:.3g} s, "
                              f"more than the {overhead:.3g} s of tracing overhead"])
        print(f"traced {len(traced)} ops; largest self-time gap {max(g for g, _ in gaps):.3g} s; "
              f"base distinct_ratio by theorem: {tracing.distinct_by_theorem(tracer.spans)}")
        out = self.root / ".bench_work" / f"trace-{self.args.workload}-seed{self.args.seed}.json"
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.args.workload, "seed": self.args.seed,
                       "ops": self.ops[: len(traced)],
                       "untraced_s": [r.seconds for r in plain],
                       "traced_s": [r.seconds for r in traced],
                       "span_fields": ["layer", "function", "start", "end", "parent", "op", "info",
                                       "overhead"],
                       "spans": tracer.spans}, fh)
        print(f"wrote {out.relative_to(self.root)}")
        return metrics, plain

    def print_table(self, metrics: dict) -> None:
        units = PER_LAYER if self.args.trace else END_TO_END
        for name, (unit, _) in units.items():
            note = f"  (p{self.tail_pct:.1f})" if name == "op_s.tail" else ""
            print(f"  {name:34s} {metrics[name]:14.6g} {unit}{note}")


def run_all(args, script: Path) -> int:
    """Every workload in its own process; their tables, then one JSON line."""
    from perfbench import workloads

    combined = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(script), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        combined[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print(json.dumps(combined))
    return 0 if all(v and v["correct"] for v in combined.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    script = Path(__file__).resolve()
    root = script.parent.parent
    src = root / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: {src / PACKAGE} is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(root)]
    if args.workload == "all":
        return run_all(args, script)
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = str(BLAS_THREADS)
    import dirichlet_resonance

    if not Path(dirichlet_resonance.__file__).resolve().is_relative_to(src):
        print(f"perfbench: imported {dirichlet_resonance.__file__}, not the checkout's {src}",
              file=sys.stderr)
        return 2
    result = Bench(args, root, src).run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
