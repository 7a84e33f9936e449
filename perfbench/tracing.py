"""Span tracing of the package from outside, for the traced benchmark run.

``Tracer.install`` wraps the package's public functions in the benchmark
process.  Every module attribute that *is* a traced function object is
replaced, so a name bound separately by ``from .lfunctions import
truncated_l_all`` in ``experiments`` and in ``resonator`` is wrapped at both
import sites; methods are wrapped on their class.  Nothing in the package
changes on disk.

A span is ``[layer, function, start, end, parent, op, info, overhead]``,
where parent is the index of the enclosing span (-1 for none) and overhead
is the wrapper's own bookkeeping time around the call, measured in place.
Spans stay in memory and are written out when the benchmark ends.  A
layer's self time is its spans' durations minus the time their child spans
cover.  Spans recorded in forked worker processes never reach this process,
so traced sweeps run with ``--jobs 1``.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

PACKAGE = "dirichlet_resonance"
MODULES = ("", ".arithmetic", ".characters", ".lfunctions", ".resonator",
           ".constants", ".experiments", ".cli")


def _base_info(args, kwargs, result):
    group, sigma, y = args[:3]
    return [group.q, group.order, float(sigma), int(y)]


def _rsq_info(args, kwargs, result):
    group, kernel = args[:2]
    return [group.q, type(kernel).__name__, kernel.x, kernel.sigma]


def _matrix_info(args, kwargs, result):
    return [int(result.shape[0]) * int(result.shape[1])]


def _sieve_info(args, kwargs, result):
    return [int(args[0])]


def _file_info(args, kwargs, result):
    return [os.path.getsize(args[0])]


def _run_info(args, kwargs, result):
    return [args[0].theorem]


# (layer, module, attribute names, info recorder); "Class.method" names are
# wrapped on the class.  Functions left out run inside their caller's span.
LAYERS = (
    ("arithmetic.sieve", ".arithmetic", ("primes_up_to", "prime_powers_up_to"), _sieve_info),
    ("arithmetic.dlog", ".arithmetic", ("build_dlog",), None),
    ("arithmetic.other", ".arithmetic", ("prime_power_tail_constant", "mertens_product",
                                         "enumerate_smooth"), None),
    ("characters.group", ".characters", ("CharacterGroup.__init__",), None),
    ("characters.values_matrix", ".characters", ("CharacterGroup.values_matrix",), _matrix_info),
    ("characters.eligible", ".characters", ("eligible",), None),
    ("lfunctions.base", ".lfunctions", ("truncated_l_all", "prime_sum_all",
                                        "logderiv_poly_all"), _base_info),
    ("lfunctions.scalar", ".lfunctions", ("truncated_l", "logderiv_poly",
                                          "joint_l_product", "joint_logderiv_product"), None),
    ("lfunctions.oracle", ".lfunctions", ("exact_l", "exact_l_all", "exact_logderiv"), None),
    ("resonator.rsq", ".resonator", ("resonator_sq_all",), _rsq_info),
    ("resonator.s1", ".resonator", ("s1",), None),
    ("resonator.s2", ".resonator", ("s2_terms",), None),
    ("resonator.bound", ".resonator", ("bound_l_product", "bound_prime_sum",
                                       "bound_logderiv_product", "p_j"), None),
    ("resonator.s1_oracle", ".resonator", ("s1_congruence_oracle",), None),
    ("constants", ".constants", None, None),  # None: every public function
    ("experiments.run", ".experiments", ("run_theorem",), _run_info),
    ("experiments.sweep", ".experiments", ("sweep",), None),
    ("experiments.oracle", ".experiments", ("oracle_comparison",), None),
    ("experiments.verify", ".experiments", ("run_verification",), None),
    ("cli.io", ".experiments", ("config_from_json", "write_json", "write_reports_csv",
                                "write_oracle_csv"), _file_info),
    ("cli", ".cli", ("main",), None),
)


class Tracer:
    """Records spans while installed; ``op`` tags the spans recorded next."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn, info=None):
        spans, stack, name = self.spans, self._stack, fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[6] = info(args, kwargs, result)
            span[7] = (span[2] - entered) + (time.perf_counter() - span[3])
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE + m) for m in MODULES]
        for layer, module_name, names, info in LAYERS:
            module = importlib.import_module(PACKAGE + module_name)
            if names is None:
                names = [n for n in module.__all__ if callable(getattr(module, n))
                         and not isinstance(getattr(module, n), type)]
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(module, cls_name)
                    self._patch(owner, attr, self.wrap(layer, vars(owner)[attr], info))
                    continue
                original = getattr(module, name)
                wrapper = self.wrap(layer, original, info)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _distinct_ratio(spans: list[list], group_of) -> float:
    """Distinct (function, info) keys per group, summed, over calls."""
    keys: dict[object, set] = defaultdict(set)
    for s in spans:
        keys[group_of(s)].add((s[1], *s[6]))
    return _ratio(sum(len(k) for k in keys.values()), len(spans))


def _with_info(spans: list[list], layer: str) -> list[list]:
    return [s for s in spans if s[0] == layer and s[6] is not None]


def _terms(function: str, q: int, y: int) -> int:
    """Number of terms a whole-group base vector sums over."""
    from dirichlet_resonance.arithmetic import prime_powers_up_to, primes_up_to

    if function == "logderiv_poly_all":
        return int((prime_powers_up_to(y)[0] % q != 0).sum())
    ps = primes_up_to(y)
    return int((ps != q).sum())


def summarize(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-layer metrics, per traced op.  Call after ``Tracer.uninstall``."""
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span, t in zip(spans, selfs):
        self_s[span[0]] += t
        calls[span[0]] += 1
    m = {f"{layer}.self_s": self_s[layer] / n_ops for layer, *_ in LAYERS}
    for layer in ("lfunctions.base", "lfunctions.oracle", "resonator.rsq",
                  "characters.group", "arithmetic.sieve"):
        m[f"{layer}.calls"] = calls[layer] / n_ops

    base = _with_info(spans, "lfunctions.base")
    terms = functools.lru_cache(maxsize=None)(_terms)
    m["lfunctions.base.cells"] = sum(s[6][1] * terms(s[1], s[6][0], s[6][3]) for s in base) / n_ops
    m["lfunctions.base.distinct_ratio"] = _distinct_ratio(base, lambda s: s[5])
    m["resonator.rsq.distinct_ratio"] = _distinct_ratio(_with_info(spans, "resonator.rsq"), lambda s: s[5])
    m["characters.values_matrix.cells"] = sum(
        s[6][0] for s in _with_info(spans, "characters.values_matrix")) / n_ops

    # a sieve call hits when its (function, limit) was requested before in this process
    seen, hits = set(), 0
    sieve = _with_info(spans, "arithmetic.sieve")
    for s in sieve:
        key = (s[1], s[6][0])
        hits += key in seen
        seen.add(key)
    m["arithmetic.sieve.hit_ratio"] = _ratio(hits, len(sieve))

    # sweep wall time minus the run_theorem calls it made
    overhead: dict[int, float] = {}
    for i, s in enumerate(spans):
        if s[0] == "experiments.sweep":
            overhead[i] = s[3] - s[2]
    for s in spans:
        if s[0] == "experiments.run" and s[4] in overhead:
            overhead[s[4]] -= s[3] - s[2]
    m["experiments.sweep.overhead_s"] = sum(overhead.values()) / n_ops
    m["cli.io.bytes"] = sum(s[6][0] for s in _with_info(spans, "cli.io")) / n_ops
    return m


def distinct_by_theorem(spans: list[list]) -> dict[str, float]:
    """lfunctions.base.distinct_ratio with each run_theorem call as the
    group, split by theorem."""
    theorem = {i: s[6][0] for i, s in enumerate(spans)
               if s[0] == "experiments.run" and s[6] is not None}

    def run_of(s):
        parent = s[4]
        while parent >= 0 and parent not in theorem:
            parent = spans[parent][4]
        return parent

    by_theorem: dict[str, list] = defaultdict(list)
    for s in _with_info(spans, "lfunctions.base"):
        run = run_of(s)
        if run >= 0:
            by_theorem[f"t{theorem[run]}"].append(s)
    return {t: round(_distinct_ratio(group, run_of), 6) for t, group in sorted(by_theorem.items())}


def self_time_gaps(spans: list[list], traced_s: list[float]) -> list[tuple[float, float]]:
    """Per op: (traced wall time - sum of its layer self times, tracing
    overhead measured inside its spans' wrappers).  The first can only
    exceed the second by the cost of the call and clock reads around the
    root span."""
    total: dict[int, float] = defaultdict(float)
    overhead: dict[int, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        total[s[5]] += t
        overhead[s[5]] += s[7]
    return [(traced_s[i] - total[i], overhead[i]) for i in range(len(traced_s))]
