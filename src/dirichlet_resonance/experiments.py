"""Experiment pipelines.  ``run_theorem`` is the one path from a
(theorem, q, ell, parameters) configuration to S1, S2, the bound, the
extremal character over the eligible mask and the certificate; it verifies
the inequalities and emits a structured report.  ``sweep`` runs it over
ascending primes to expose growth trends, and ``run_verification`` runs the
property battery.

The four numbered targets and their moving parts:

    theorem 1: linear kernel,  S2 weights prod_j L(1, chi^j; Y)
    theorem 2: sigma kernel,   S2 weights sum_j sum_{p<=Y} chi(p)^j p^-sigma
    theorem 3: linear kernel,  S2 weights prod_j D_j(chi)       (sigma = 1)
    theorem 4: sigma kernel,   S2 weights prod_j D_j(sigma,chi) (ell < 1/(2-2 sigma))

Every run checks Re(S2)/S1 >= bound (margin >= 0) and the resonance
certificate: the maximum of the target functional over eligible characters
must dominate (Re S2 - excluded-character terms)/S1, because a weighted
average cannot exceed the maximum.  The functional is |prod_j L(sigma, chi^j; Y)|
for theorems 1 and 2 and Re prod_j D_j(sigma, chi) for theorems 3 and 4.  A
violated inequality, S1 < phi(q), a non-negligible Im S2 or a non-finite
value is never silent: it lands in the report's ``failures`` with all
operands, and the report as a whole is marked failed.

|R(chi)|^2, the joint product and the S2 summands come for k <= (q-1)/2
only: chi_{q-1-k} = conj(chi_k) and the resonator is real, so S1 and Re S2
are ``characters.group_sum``s of those halves, Im S2 is +0.0 (nan once a
summand is not finite), and the argmax, near ties, excluded sum and
modulus at the argmax read character k at index min(k, q-1-k).  The
eligible mask stays whole-group, so an asymmetric ``excluded`` is honoured.

Identical configurations produce identical reports (bit-stable given the
fixed reduction strategy) except for the wall-time field.
"""

from __future__ import annotations

import cmath
import json
import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .arithmetic import primes_up_to, require_cutoff, require_odd_prime, require_positive
from .characters import CharacterGroup, eligible, group_sum
from .constants import (
    default_strip_epsilon,
    max_ell_for_sigma,
    require_strip_ell,
    require_strip_sigma,
    strip_l_admissible_range,
    strip_logderiv_admissible_range,
)
from .lfunctions import (
    EULER_GAMMA,
    exact_l,
    exact_l_all,
    truncated_l_all,
)
from .resonator import (
    LinearKernel,
    SigmaKernel,
    bound_l_product,
    bound_logderiv_product,
    bound_prime_sum,
    joint_product,
    require_y_covers_x,
    s1,
    s2_terms,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "TheoremReport",
    "SweepResult",
    "OracleComparison",
    "CheckResult",
    "REPORT_COLUMNS",
    "LOG4",
    "default_x",
    "config_from_json",
    "run_theorem",
    "sweep",
    "oracle_comparison",
    "run_verification",
    "write_reports_csv",
    "write_json",
    "write_oracle_csv",
    "write_rows",
]

LOG4 = math.log(4.0)

REPORT_COLUMNS = (
    "q", "ell", "sigma", "X", "Y", "S1", "S2_re", "S2_im", "ratio",
    "bound", "margin", "argmax_index", "max_value", "certificate", "seconds",
)

_TIE_TOL = 1e-9
_SLACK = 1e-12
_ORACLE_MAX_Q = 499  # largest q the scalar Hurwitz/digamma oracle is run at
_MIN_DEFAULT_X_Q = 17  # the first prime with loglog q > 1, so with a default X

_TARGETS = {1: "l-product", 2: "prime-sum", 3: "logderiv-product", 4: "logderiv-product"}


class ConfigError(ValueError):
    """An experiment configuration failed validation."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One run: which theorem, which modulus, and the knobs.

    ``excluded`` holds extra character indices to treat as exceptional (the
    hook for a user-designated chi_e); chi_0 and the low-order characters
    are always excluded from the extremal search by the eligibility rule.
    """

    theorem: int
    q: int
    ell: int = 1
    x: float | None = None
    y: int | None = None
    sigma: float | None = None
    excluded: tuple[int, ...] = ()
    endpoint_margin: float = 0.01

    def validated(self) -> "ExperimentConfig":
        """Check types and invariants and fill derived defaults for x and y;
        a shared rule checker's ValueError is raised as ConfigError.  y may
        be a float only when it is integral (1e6, not 1000.7)."""
        for name in ("theorem", "q", "ell"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("x", "y", "sigma", "endpoint_margin"):
            value = getattr(self, name)
            if value is not None and not (_is_real(value) and math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.y is not None and self.y != int(self.y):
            raise ConfigError(f"y must be an integer, got {self.y!r}")
        if not (isinstance(self.excluded, (list, tuple)) and all(map(_is_int, self.excluded))):
            raise ConfigError(f"excluded must be a list of integers, got {self.excluded!r}")
        if self.theorem not in (1, 2, 3, 4):
            raise ConfigError(f"theorem must be 1..4, got {self.theorem}")
        needs_sigma = self.theorem in (2, 4)
        x, y = self.x, self.y
        try:
            require_odd_prime(self.q)
            require_positive("ell", self.ell)
            if self.ell >= self.q - 1:
                raise ValueError(f"the eligible set is empty: ell = {self.ell} >= q - 1 = "
                                 f"{self.q - 1}, the largest character order mod q")
            if needs_sigma and self.sigma is None:
                raise ValueError(f"theorem {self.theorem} requires sigma")
            if not needs_sigma and self.sigma is not None:
                raise ValueError(f"theorem {self.theorem} takes no sigma (got {self.sigma})")
            if needs_sigma:
                require_strip_sigma(self.sigma)
            if self.theorem == 4:
                require_strip_ell(self.sigma, self.ell)
            if x is None:
                x = default_x(self.theorem, self.q, self.endpoint_margin, self.sigma)
            if not x > 0:
                raise ValueError(f"X must be > 0, got {x}")
            if y is None:
                y = max(1000, int(math.ceil(x)))
            require_cutoff(y)
            require_y_covers_x(x, y)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if any(not (0 <= e) for e in self.excluded):
            raise ConfigError(f"excluded indices must be >= 0, got {self.excluded}")
        return replace(self, x=float(x), y=int(y), excluded=tuple(self.excluded))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def default_x(theorem: int, q: int, endpoint_margin: float = 0.01,
              sigma: float | None = None) -> float:
    """Resonator length X = (parameter) * log q * loglog q at the theorem's
    admissible endpoint, backed off by ``endpoint_margin`` (0 means the
    legal boundary itself, which is non-strict)."""
    if q < _MIN_DEFAULT_X_Q:
        raise ValueError(f"default X needs q >= {_MIN_DEFAULT_X_Q} so that loglog q > 1; got {q}")
    if not endpoint_margin >= 0 or (theorem in (2, 3, 4) and not endpoint_margin < 1):
        raise ValueError(f"endpoint_margin must be >= 0, and < 1 for theorems 2-4 "
                         f"(X scales with 1 - margin); got {endpoint_margin}")
    l1 = math.log(q)
    l2 = math.log(l1)
    if theorem == 1:
        delta = LOG4 * (1.0 + endpoint_margin)
        return l1 * l2 / delta
    if theorem == 3:
        tau = (1.0 / LOG4) * (1.0 - endpoint_margin)
        return tau * l1 * l2
    if theorem in (2, 4):
        if sigma is None:
            raise ValueError(f"theorem {theorem} needs sigma to place X")
        if theorem == 2:
            rng = strip_l_admissible_range(sigma)
        else:
            rng = strip_logderiv_admissible_range(sigma)
        if rng.is_empty:
            raise ValueError(f"admissible range for theorem {theorem} is empty at sigma={sigma}")
        return rng.upper * (1.0 - endpoint_margin) * l1 * l2
    raise ValueError(f"theorem must be 1..4, got {theorem}")


def config_from_json(path: str) -> ExperimentConfig:
    """Load and validate a JSON experiment configuration."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}; known keys are {sorted(known)}")
    for req in ("theorem", "q"):
        if req not in raw:
            raise ConfigError(f"{path}: missing required key {req!r}")
    try:
        cfg = ExperimentConfig(**raw)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg.validated()


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _record_dict(record, **rename: str) -> dict:
    """A record's fields as a JSON-ready dict, field ``f`` under the key
    ``rename[f]`` if given; tuples and arrays become lists."""
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        out[rename.get(f.name, f.name)] = value
    return out


@dataclass(frozen=True)
class TheoremReport:
    """Everything one run computed, plus the inequality verdicts."""

    theorem: int
    q: int
    ell: int
    sigma: float | None
    x: float
    y: int
    excluded: tuple[int, ...]
    s1: float
    s2: complex
    ratio: float
    bound: float
    margin: float
    argmax_index: int
    max_value: float
    near_ties: tuple[int, ...]
    certificate: float
    logderiv_modulus_at_argmax: float | None
    oracle_gap: float | None
    seconds: float
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        """Every field under its report key, S2 split into S2_re and S2_im,
        then ``passed``."""
        row = _record_dict(self, x="X", y="Y", s1="S1")
        s2 = row.pop("s2")
        row.update(S2_re=s2.real, S2_im=s2.imag, passed=self.passed)
        return row


def _kernel_for(config: ExperimentConfig):
    if config.theorem in (1, 3):
        return LinearKernel(config.x)
    return SigmaKernel(config.x, config.sigma)


def _bound_for(config: ExperimentConfig, kernel) -> float:
    if config.theorem == 1:
        return bound_l_product(kernel, config.ell)
    if config.theorem == 2:
        return bound_prime_sum(kernel, config.ell)
    return bound_logderiv_product(kernel, config.ell)


def _half_index(ks, order: int):
    """Where a vector kept for k <= order/2 holds chi_k: chi_{order-k} = conj(chi_k)."""
    return np.minimum(ks, order - ks)


def _s2_sum(terms: np.ndarray) -> complex:
    """S2 from its summands for k <= (q-1)/2.  The real part is their
    ``group_sum``; the imaginary part is +0.0, conjugate pairs cancelling
    exactly, or nan once a summand's imaginary part is not finite."""
    imag = 0.0 if np.isfinite(terms.imag).all() else math.nan
    return complex(group_sum(terms.real), imag)


def run_theorem(config: ExperimentConfig) -> TheoremReport:
    """The one evaluation path for a configuration: S1, S2, ratio, bound,
    the extremal character and the certificate.  Inequality violations and
    non-finite values are reported in ``failures`` (with operands in the
    message), never raised."""
    config = config.validated()
    t0 = time.perf_counter()
    group = CharacterGroup(config.q)
    kernel = _kernel_for(config)
    sigma_eff = kernel.sigma

    terms = s2_terms(group, _TARGETS[config.theorem], config.ell, kernel, config.y)
    s1_val = s1(group, kernel)
    s2_val = _s2_sum(terms)
    ratio = s2_val.real / s1_val
    bound = _bound_for(config, kernel)
    margin = ratio - bound

    mask = eligible(group, config.ell, config.excluded)
    members = np.flatnonzero(mask)
    if not len(members):
        raise ConfigError(f"eligible set is empty for q={config.q}, ell={config.ell}")

    on_line = config.theorem in (1, 2)  # the functional is |prod L|, else Re prod D
    prod = joint_product(group, "l-product" if on_line else "logderiv-product", config.ell,
                         sigma_eff, config.y)
    vals = np.abs(prod) if on_line else prod.real
    member_vals = vals[_half_index(members, group.order)]
    first = int(np.argmax(member_vals))  # the first maximum
    argmax_index = int(members[first])
    max_value = float(member_vals[first])
    tie_cut = max_value - _TIE_TOL * max(1.0, abs(max_value))
    near_ties = tuple(members[member_vals >= tie_cut].tolist())

    excluded_sum = math.fsum(terms.real[_half_index(np.flatnonzero(~mask), group.order)])
    certificate = (s2_val.real - excluded_sum) / s1_val

    logderiv_mod = None
    if not on_line:
        logderiv_mod = float(np.abs(prod)[_half_index(argmax_index, group.order)])

    oracle_gap = None
    if on_line and config.q <= _ORACLE_MAX_Q:
        ex = exact_l(group.character(argmax_index), sigma_eff).value
        if abs(ex) >= 1e-8:
            trunc = truncated_l_all(group, sigma_eff, config.y)[argmax_index]
            oracle_gap = float(abs(trunc - ex) / abs(ex))

    failures = []
    checked = {
        "S1": s1_val, "S2": s2_val, "ratio": ratio, "bound": bound, "margin": margin,
        "certificate": certificate, "max_value": max_value,
    }
    nonfinite = [f"{name}={value!r}" for name, value in checked.items()
                 if not cmath.isfinite(value)]
    if nonfinite:
        failures.append(f"non-finite values: {', '.join(nonfinite)}")
    if abs(s2_val.imag) > 1e-9 * (abs(s2_val.real) + s1_val):
        failures.append(
            f"Im S2 = {s2_val.imag!r} is not negligible (S2={s2_val!r}, S1={s1_val!r}); "
            "character indexing is likely broken"
        )
    if s1_val < group.order * (1.0 - 1e-12):
        failures.append(f"S1 = {s1_val!r} fell below phi(q) = {group.order}")
    if margin < -_SLACK * max(1.0, abs(bound)):
        failures.append(
            f"resonance inequality violated: ratio {ratio!r} < bound {bound!r} "
            f"(S1={s1_val!r}, S2={s2_val!r}, margin={margin!r})"
        )
    if max_value < certificate - _SLACK * max(1.0, abs(max_value)):
        failures.append(
            f"certificate violated: max functional {max_value!r} < "
            f"certificate {certificate!r} (S2={s2_val!r}, S1={s1_val!r}, "
            f"excluded_sum={excluded_sum!r})"
        )

    return TheoremReport(
        theorem=config.theorem,
        q=config.q,
        ell=config.ell,
        sigma=config.sigma,
        x=config.x,
        y=config.y,
        excluded=config.excluded,
        s1=s1_val,
        s2=s2_val,
        ratio=ratio,
        bound=bound,
        margin=margin,
        argmax_index=argmax_index,
        max_value=max_value,
        near_ties=near_ties,
        certificate=certificate,
        logderiv_modulus_at_argmax=logderiv_mod,
        oracle_gap=oracle_gap,
        seconds=time.perf_counter() - t0,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# sweeps over primes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    """One report per ascending prime, plus the trend normalizations."""

    theorem: int
    ell: int
    sigma: float | None
    reports: tuple[TheoremReport, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_dict(self) -> dict:
        """The sweep record: its configuration, one report per prime, and
        each prime's trend normalizations."""
        trend = [{
            "q": r.q,
            "normalized": self.normalized_ratio(r) if self.theorem == 1 else None,
            "ratio_over_bound": r.ratio / r.bound if r.bound != 0 else None,
        } for r in self.reports]
        return {"theorem": self.theorem, "ell": self.ell, "sigma": self.sigma,
                "rows": [r.to_dict() for r in self.reports], "trend": trend}

    def normalized_ratio(self, report: TheoremReport) -> float:
        """ratio / (e^(ell gamma) (log X)^ell), the theorem-1 leading scale."""
        return report.ratio / (
            math.exp(self.ell * EULER_GAMMA) * math.log(report.x) ** self.ell
        )

    def decade_buckets(self) -> list[tuple[int, int, int, float]]:
        """(lo, hi, count, mean normalized ratio) per factor-of-10 bucket of q."""
        buckets: dict[int, list[float]] = {}
        for r in self.reports:
            buckets.setdefault(int(math.floor(math.log10(r.q))), []).append(
                self.normalized_ratio(r)
            )
        out = []
        for k in sorted(buckets):
            vals = buckets[k]
            out.append((10**k, 10 ** (k + 1), len(vals), math.fsum(vals) / len(vals)))
        return out


def _primes_in_range(lo: int, hi: int) -> list[int]:
    ps = primes_up_to(hi)
    return [int(p) for p in ps[(ps >= lo) & (ps >= 3)]]


def sweep(theorem: int, prime_range: tuple[int, int], ell: int = 1,
          sigma: float | None = None, endpoint_margin: float = 0.01,
          y: int | None = None, jobs: int = 1) -> SweepResult:
    """Run one configuration per prime in [lo, hi] with the default X.

    When ``y`` is not given, each run takes Y = ceil(X), the smallest legal
    cutoff; the theorem-1 trend column then tracks the e^gamma log X scale
    that the ratio approaches from below.  ``jobs`` caps the worker
    processes; no more are started than there are primes.
    """
    require_positive("jobs", jobs)
    lo, hi = prime_range
    qs = _primes_in_range(lo, hi)
    if not qs:
        raise ValueError(f"no odd primes in [{lo}, {hi}]")
    if qs[0] < _MIN_DEFAULT_X_Q:
        raise ValueError(f"primes {lo}..{hi} include q={qs[0]}; the first prime with a "
                         f"default X is {_MIN_DEFAULT_X_Q}")
    configs = []
    for q in qs:
        x = default_x(theorem, q, endpoint_margin, sigma)
        yq = y if y is not None else max(2, int(math.ceil(x)))
        configs.append(ExperimentConfig(
            theorem=theorem, q=q, ell=ell, x=x, y=yq, sigma=sigma,
            endpoint_margin=endpoint_margin,
        ).validated())
    workers = min(jobs, len(configs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel sweep pays for it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run_theorem, configs))
    else:
        reports = [run_theorem(c) for c in configs]
    return SweepResult(theorem=theorem, ell=ell, sigma=sigma, reports=tuple(reports))


# ---------------------------------------------------------------------------
# oracle comparison tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleComparison:
    """Relative truncation errors |trunc - exact|/|exact| per non-principal
    character and cutoff, with near-zero exact values excluded and listed."""

    q: int
    sigma: float
    y_grid: tuple[int, ...]
    indices: tuple[int, ...]
    rel_errors: np.ndarray  # shape (len(indices), len(y_grid))
    excluded_near_zero: tuple[int, ...]

    def decade_max(self) -> list[float]:
        """Max relative error over characters, one entry per y in the grid."""
        return [float(np.max(self.rel_errors[:, j])) for j in range(len(self.y_grid))]

    def to_dict(self) -> dict:
        return {**_record_dict(self), "decade_max": self.decade_max()}


def oracle_comparison(q: int, sigma: float, y_grid: tuple[int, ...]) -> OracleComparison:
    """Measure the truncation error of L(sigma, chi; Y) against the exact
    oracle, for every non-principal character mod q and every Y in the grid."""
    if q > _ORACLE_MAX_Q:
        raise ValueError(f"the oracle table is restricted to q <= {_ORACLE_MAX_Q}, got {q}")
    if not y_grid:
        raise ValueError("y_grid must be non-empty")
    group = CharacterGroup(q)
    grid = tuple(sorted(int(y) for y in y_grid))
    ks = np.arange(1, group.order)
    exact = exact_l_all(group, sigma)[ks]
    # np.hypot, not np.abs: numpy's array complex abs can differ in the last bit
    size = np.hypot(exact.real, exact.imag)
    keep = size >= 1e-8
    gaps = [truncated_l_all(group, sigma, y)[ks[keep]] - exact[keep] for y in grid]
    errors = np.column_stack([np.hypot(gap.real, gap.imag) / size[keep] for gap in gaps])
    return OracleComparison(
        q=q, sigma=sigma, y_grid=grid, indices=tuple(ks[keep].tolist()), rel_errors=errors,
        excluded_near_zero=tuple(ks[~keep].tolist()),
    )


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_orthogonality(qs: list[int]) -> CheckResult:
    worst = 0.0
    for q in qs:
        group = CharacterGroup(q)
        mat = group.values_matrix(np.arange(q, dtype=np.int64))
        gram = mat.T @ np.conj(mat)
        expect = np.zeros((q, q), dtype=np.complex128)
        idx = np.arange(1, q)
        expect[idx, idx] = q - 1
        worst = max(worst, float(np.max(np.abs(gram - expect))) / (q - 1))
    ok = worst <= 1e-9
    return CheckResult("orthogonality-delta", ok, f"worst |error|/phi(q) = {worst:.2e}")


def _check_s1_closed_form() -> CheckResult:
    from .resonator import s1_congruence_oracle  # local to avoid cycle noise

    group = CharacterGroup(5)
    kernel = LinearKernel(3.0)
    direct = s1(group, kernel)
    oracle = s1_congruence_oracle(group, kernel, 3**20)
    closed = 4.0 * (81.0 / 80.0) ** 2 * (820.0 / 729.0)
    ok = abs(direct - closed) < 1e-12 and abs(oracle.value - closed) < 1e-12
    return CheckResult(
        "s1-closed-form", ok,
        f"character sum {direct!r}, congruence oracle {oracle.value!r}, closed form {closed!r}",
    )


def _check_resonance(quick: bool) -> list[CheckResult]:
    qs = [101] if quick else [101, 211]
    ells = [1, 2] if quick else [1, 2, 3]
    sigmas = [0.9] if quick else [0.75, 0.9]
    out = []
    for theorem in (1, 2, 3, 4):
        reports = []
        for q in qs:
            for ell in ells:
                for x in ([20.0] if quick else [20.0, 50.0]):
                    if theorem in (1, 3):
                        cfgs = [ExperimentConfig(theorem, q, ell, x=x, y=1000)]
                    else:
                        cfgs = []
                        for sg in sigmas:
                            if theorem == 4 and ell > max_ell_for_sigma(sg):
                                continue
                            cfgs.append(
                                ExperimentConfig(theorem, q, ell, x=x, y=1000, sigma=sg)
                            )
                    reports.extend(run_theorem(c) for c in cfgs)
        ok = all(r.passed for r in reports)
        worst = min(r.margin for r in reports)
        out.append(CheckResult(
            f"resonance-theorem-{theorem}", ok,
            f"{len(reports)} runs, min margin {worst:.6g}",
        ))
    return out


def _check_oracle() -> list[CheckResult]:
    out = []
    g5 = CharacterGroup(5)
    quad5 = exact_l(g5.character(2), 1.0).value  # index 2 is the quadratic character
    ref5 = 2.0 * math.log((1.0 + math.sqrt(5.0)) / 2.0) / math.sqrt(5.0)
    g3 = CharacterGroup(3)
    quad3 = exact_l(g3.character(1), 1.0).value
    ref3 = math.pi / (3.0 * math.sqrt(3.0))
    ok1 = abs(quad5 - ref5) < 1e-8 and abs(quad3 - ref3) < 1e-8
    out.append(CheckResult(
        "oracle-class-numbers", ok1,
        f"q=5: {quad5.real:.9f} vs {ref5:.9f}; q=3: {quad3.real:.9f} vs {ref3:.9f}",
    ))
    comp = oracle_comparison(5, 1.0, (10**5,))
    worst = comp.decade_max()[0]
    out.append(CheckResult(
        "oracle-truncation-q5", worst < 1e-2, f"max rel error at Y=1e5: {worst:.2e}"
    ))
    return out


def _check_constants() -> CheckResult:
    from .constants import (
        binomial_beta_identity_check,
        joint_l_line_constant,
        joint_l_strip_constant,
        joint_logderiv_line_coefficient,
        joint_logderiv_strip_constant,
    )

    msgs = []
    c1 = joint_l_line_constant(1)
    if not (1.32 <= c1 <= 1.34):
        msgs.append(f"C(1) = {c1} outside [1.32, 1.34]")
    coeff = joint_logderiv_line_coefficient()
    if abs(coeff + 0.659) > 1e-3:
        msgs.append(f"Q coefficient {coeff} not within 1e-3 of -0.659")
    for sg in (0.6, 0.75, 0.9):
        s_val = joint_l_strip_constant(sg, 1)
        h_val = joint_logderiv_strip_constant(sg, 1)
        ref = sg / (1.0 - sg)
        if abs(s_val - ref) > 1e-12 * ref or abs(h_val - ref) > 1e-12 * ref:
            msgs.append(f"S/H mismatch at sigma={sg}")
        for j in range(11):
            _, _, gap = binomial_beta_identity_check(j, sg)
            if gap > 1e-10:
                msgs.append(f"beta identity gap {gap} at j={j}, sigma={sg}")
    return CheckResult("constants-identities", not msgs, "; ".join(msgs) or "all identities hold")


def _check_admissibility() -> CheckResult:
    from .constants import strip_l_inequality_slack, strip_logderiv_inequality_slack

    msgs = []
    for sg in (0.6, 0.75, 0.9):
        rng = strip_l_admissible_range(sg)
        if rng.is_empty:
            msgs.append(f"kappa range empty at sigma={sg}")
            continue
        if strip_l_inequality_slack(rng.midpoint, sg) <= 0:
            msgs.append(f"kappa midpoint fails at sigma={sg}")
        if strip_l_inequality_slack(rng.upper * 1.01, sg) >= 0:
            msgs.append(f"kappa 1.01*upper should fail at sigma={sg}")
        rng2 = strip_logderiv_admissible_range(sg)
        eps = default_strip_epsilon(sg)
        if rng2.is_empty:
            msgs.append(f"eta range empty at sigma={sg}")
            continue
        if strip_logderiv_inequality_slack(rng2.midpoint, sg, eps) <= 0:
            msgs.append(f"eta midpoint fails at sigma={sg}")
        if strip_logderiv_inequality_slack(rng2.upper * 1.01, sg, eps) >= 0:
            msgs.append(f"eta 1.01*upper should fail at sigma={sg}")
    return CheckResult("admissibility-ranges", not msgs, "; ".join(msgs) or "midpoints strict, endpoints sharp")


def _check_mertens() -> CheckResult:
    from .arithmetic import mertens_product

    x = 10**4
    val = mertens_product(x)
    scale = math.exp(EULER_GAMMA) * math.log(x)
    lo = 1.0 - 1.0 / (2.0 * math.log(x) ** 2)
    hi = 1.0 + 1.0 / math.log(x) ** 2
    ok = lo <= val / scale <= hi
    return CheckResult("mertens-band", ok, f"ratio to e^gamma log X = {val / scale:.8f}")


def run_verification(quick: bool = True) -> list[CheckResult]:
    """The named property battery behind the ``verify`` subcommand."""
    qs = [5, 7, 11, 101] if quick else [int(p) for p in primes_up_to(101)][1:]
    checks: list[CheckResult] = []
    checks.append(_check_orthogonality(qs))
    checks.append(_check_s1_closed_form())
    checks.extend(_check_resonance(quick))
    checks.extend(_check_oracle())
    checks.append(_check_constants())
    checks.append(_check_admissibility())
    checks.append(_check_mertens())
    return checks


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def write_rows(path: str, header, rows) -> None:
    """CSV with one header line, then one line per row of cells (RFC-4180
    quoting); csv writes None as an empty cell and a float as its repr."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_reports_csv(path: str, reports) -> None:
    """Fixed-column CSV, one row per run: the REPORT_COLUMNS of ``to_dict``."""
    rows = (report.to_dict() for report in reports)
    write_rows(path, REPORT_COLUMNS, ([row[name] for name in REPORT_COLUMNS] for row in rows))


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_oracle_csv(path: str, comp: OracleComparison) -> None:
    header = ["index"] + [f"rel_err_Y{y}" for y in comp.y_grid]
    rows = zip(comp.indices, comp.rel_errors.tolist())
    write_rows(path, header, ([k, *errs] for k, errs in rows))
