"""Output checks and the independent reference cross-check.

``output_problems`` trusts nothing the program says about itself: a report
fails unless it is PASS *and* every headline number is finite, because a
NaN compares false against every bound and so can slip through the
program's own inequality checks.

The ``*_reference_problems`` functions recompute report values with the
scalar reference path (``truncated_l``, ``logderiv_poly``, ``resonator_sq``,
``joint_*`` and ``s1_congruence_oracle``) and compare within a tolerance
taken from an explicit rounding-error bound, never a tuned constant.  The
bounds use Higham's any-order summation bound: n floating-point terms summed
in any order err by at most (n - 1) u sum|t_i| per real component, with u
the unit roundoff (Accuracy and Stability of Numerical Algorithms, 2nd ed.,
section 4.2).  The fast path and the reference compute the same terms up to
a few roundings each and differ only in summation order, so each bound is
that summation bound plus a few u per term.
"""

from __future__ import annotations

import math

U = 2.0 ** -53  # unit roundoff of IEEE double

FINITE_FIELDS = ("S1", "S2_re", "S2_im", "ratio", "bound", "margin", "certificate", "max_value")


def report_problems(report: dict) -> list[str]:
    """Why a theorem report (``TheoremReport.to_dict()``) fails, if it does."""
    where = f"theorem {report.get('theorem')} q={report.get('q')}"
    problems = []
    if report.get("passed") is not True or report.get("failures"):
        problems.append(f"{where}: report is not PASS: {report.get('failures')}")
    for field in FINITE_FIELDS:
        value = report.get(field)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {field} = {value!r} is not a finite number")
    return problems


def output_problems(op: dict, result) -> list[str]:
    """Why an executed op (an ``ops.OpResult``) failed, if it did."""
    if result.error is not None:
        return [f"raised {result.error}"]
    if result.rc != 0:
        return [f"exit status {result.rc}, expected 0"]
    payload = result.payload
    if payload is None:
        return ["wrote no output file"]
    kind = op["kind"]
    if kind == "run":
        return report_problems(payload)
    if kind == "sweep":
        rows = payload.get("rows", [])
        problems = [p for row in rows for p in report_problems(row)]
        if [row.get("q") for row in rows] != op["primes"]:
            problems.append(f"sweep rows cover {[r.get('q') for r in rows]}, expected {op['primes']}")
        return problems
    if kind == "oracle":
        errors = payload.get("rel_errors", [])
        problems = []
        if payload.get("y_grid") != sorted(op["ys"]):
            problems.append(f"oracle y_grid {payload.get('y_grid')} != {sorted(op['ys'])}")
        if len(payload.get("indices", [])) + len(payload.get("excluded_near_zero", [])) != op["q"] - 2:
            problems.append("oracle table does not cover every non-principal character")
        if len(errors) != len(payload.get("indices", [])) or not all(
            math.isfinite(e) for row in errors for e in row
        ):
            problems.append("oracle relative errors are missing or non-finite")
        return problems
    if kind == "verify":
        lines = payload["stdout"]
        checks = [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]
        summary = f"verify: {len(checks)} passed, 0 failed"
        if not checks or any(ln.startswith("FAIL ") for ln in checks) or summary not in lines:
            return [f"verify battery did not pass: {lines[-1] if lines else '(no output)'}"]
        return []
    return [f"unknown op kind {kind!r}"]


# ---------------------------------------------------------------------------
# tolerances from explicit error bounds
# ---------------------------------------------------------------------------

def l_product_rel_tol(q: int, sigma: float, y: int, ell: int) -> float:
    """Relative tolerance for prod_{j<=ell} L(sigma, chi^j; y), fast vs scalar.

    log L = sum_p t_p with t_p = -log(1 - chi(p) p^-sigma) and
    |t_p| <= -log(1 - p^-sigma), so with A = sum_p -log(1 - p^-sigma) over
    the N primes p <= y (p != q) the log of each factor differs by at most
    2 (N + 4) u A (summation order, both components, plus the rounding of
    each t_p).  exp turns that into a relative error; the ell-fold product
    and the modulus add a few u each.
    """
    import numpy as np
    from dirichlet_resonance.arithmetic import primes_up_to

    ps = primes_up_to(y)
    ps = ps[ps != q].astype(float)
    a = math.fsum((-np.log1p(-(ps ** -sigma))).tolist())
    return ell * (2.0 * (len(ps) + 4) * U * a + 6.0 * U)


def logderiv_abs_tol(q: int, sigma: float, y: int, ell: int) -> float:
    """Absolute tolerance for prod_{j<=ell} D_j, D = sum Lambda(n) chi(n) n^-sigma.

    With the N prime powers n <= y prime to q and M = sum Lambda(n) n^-sigma
    >= |D_j|, each factor differs by at most 2 (N + 2) u M, so the product
    differs by at most ell (2 N + 6) u M^ell.
    """
    from dirichlet_resonance.arithmetic import prime_powers_up_to

    ns, logps = prime_powers_up_to(y)
    keep = ns % q != 0
    m = math.fsum((logps[keep] * ns[keep].astype(float) ** -sigma).tolist())
    return ell * (2.0 * int(keep.sum()) + 6.0) * U * m**ell


def rsq_rel_tol(kernel, q: int) -> float:
    """Relative tolerance for |R(chi)|^2 = prod_p |1 - r(p) chi(p)|^-2.

    Each factor |1 - r chi|^2 carries a relative rounding error of at most
    3 u (1 + r)/(1 - r) + 3 u in either path (1 - r <= |1 - r chi| bounds the
    cancellation); the n-fold product and the division add (n + 1) u per
    path.  So the paths differ by at most u (6 kappa + 8 n + 4) with
    kappa = sum_p (1 + r)/(1 - r), doubled to cover second-order terms.
    """
    from dirichlet_resonance.arithmetic import primes_up_to

    cap = math.floor(kernel.x)
    if cap < 2:
        return 4.0 * U
    ps = primes_up_to(cap)
    rv = kernel.prime_values(ps[ps != q])
    kappa = math.fsum(((1.0 + rv) / (1.0 - rv)).tolist())
    return 2.0 * U * (6.0 * kappa + 8.0 * len(rv) + 4.0)


# ---------------------------------------------------------------------------
# reference cross-checks (run outside the timed window)
# ---------------------------------------------------------------------------

def _kernel(report: dict):
    from dirichlet_resonance import LinearKernel, SigmaKernel

    if report["theorem"] in (1, 3):
        return LinearKernel(report["X"])
    return SigmaKernel(report["X"], report["sigma"])


def _eligible(k: int, order: int, ell: int) -> bool:
    return order // math.gcd(k, order) > ell


def run_reference_problems(report: dict, samples: list[int], check_s1: bool = True) -> list[str]:
    """Cross-check one `run` report against the scalar reference.

    At the argmax the reference functional must equal ``max_value``; at the
    seeded eligible indices it must not exceed it; for theorems 3 and 4 the
    modulus at the argmax must match; and, with ``check_s1``, S1 must equal
    the sum of the scalar |R(chi)|^2 over the whole group.
    """
    from dirichlet_resonance import (
        CharacterGroup,
        joint_l_product,
        joint_logderiv_product,
        resonator_sq,
    )

    theorem, q, ell, y = report["theorem"], report["q"], report["ell"], report["Y"]
    sigma = report["sigma"] if theorem in (2, 4) else 1.0
    group = CharacterGroup(q)
    problems = []

    if theorem in (1, 2):
        rel = l_product_rel_tol(q, sigma, y, ell)

        def functional(k):
            return abs(joint_l_product(group.character(k), ell, sigma, y))

        def tol(value):
            return rel * abs(value)
    else:
        abs_tol = logderiv_abs_tol(q, sigma, y, ell)

        def functional(k):
            return joint_logderiv_product(group.character(k), ell, sigma, y).real

        def tol(value):
            return abs_tol

    best, best_value = report["argmax_index"], report["max_value"]
    if not _eligible(best, group.order, ell):
        problems.append(f"argmax {best} is not an eligible character")
    ref = functional(best)
    if abs(ref - best_value) > tol(ref):
        problems.append(
            f"max_value {best_value!r} != reference {ref!r} at argmax {best} (tol {tol(ref):.3g})"
        )
    for k in samples:
        if _eligible(k, group.order, ell):
            value = functional(k)
            if value > best_value + tol(value):
                problems.append(f"reference value {value!r} at index {k} exceeds max_value {best_value!r}")
    if theorem in (3, 4):
        mod = abs(joint_logderiv_product(group.character(best), ell, sigma, y))
        gap = abs(mod - report["logderiv_modulus_at_argmax"])
        if gap > abs_tol:
            problems.append(f"logderiv modulus at argmax differs from reference by {gap:.3g}")

    if not check_s1:
        return problems
    kernel = _kernel(report)
    s1_ref = math.fsum(resonator_sq(group.character(k), kernel) for k in range(group.order))
    s1_tol = rsq_rel_tol(kernel, q) * s1_ref
    if abs(report["S1"] - s1_ref) > s1_tol:
        problems.append(f"S1 {report['S1']!r} != scalar reference {s1_ref!r} (tol {s1_tol:.3g})")
    return problems


S1_ORACLE_CAP = 10**12


def sweep_s1_problems(row: dict) -> list[str]:
    """S1 of one sweep row against ``s1_congruence_oracle``.

    The oracle's value only drops terms with m or n beyond the cap (all
    weights are nonnegative), so S1 must lie in
    [value - tol, value + tail_bound + tol].  tol covers the rounding of S1
    (``rsq_rel_tol``) and of the oracle's class totals, whose terms are
    products of at most 64 factors added into at most ``terms`` slots.
    """
    from dirichlet_resonance import CharacterGroup, s1_congruence_oracle

    q = row["q"]
    kernel = _kernel(row)
    oracle = s1_congruence_oracle(CharacterGroup(q), kernel, S1_ORACLE_CAP)
    tol = rsq_rel_tol(kernel, q) * row["S1"] + 2.0 * (oracle.terms + 64) * U * oracle.value
    if not oracle.value - tol <= row["S1"] <= oracle.value + oracle.tail_bound + tol:
        return [
            f"q={q}: S1 {row['S1']!r} outside congruence oracle "
            f"[{oracle.value!r}, {oracle.value + oracle.tail_bound!r}] (tol {tol:.3g})"
        ]
    return []


def oracle_reference_problems(op: dict, payload: dict) -> list[str]:
    """Recompute sampled rows of an `oracle` table with the scalar
    ``truncated_l`` and ``exact_l`` and compare the relative errors.

    With e = |T - E|/|E|, |dT| <= tau |T| (``l_product_rel_tol``) and
    |dE| <= |c| 2 (q + 2) u V, V = sum_a |v_a| over the residue-class values
    of the oracle sum E = c sum_a chi(a) v_a, e moves by at most
    (|dT| + |dE|)/|E| (1 + e) plus a few u.
    """
    from dirichlet_resonance import CharacterGroup, digamma, exact_l, hurwitz_zeta, truncated_l

    q, sigma = op["q"], op["sigma"]
    indices = payload["indices"]
    if not indices:
        return []
    group = CharacterGroup(q)
    if sigma == 1.0:
        coeff = 1.0 / q
        v = [digamma(a / q) for a in range(1, q)]
    else:
        coeff = q ** -sigma
        v = [hurwitz_zeta(sigma, a / q) - 1.0 / (sigma - 1.0) for a in range(1, q)]
    d_exact = coeff * 2.0 * (q + 2) * U * math.fsum(abs(x) for x in v)
    problems = []
    for u in op["samples"]:
        row = int(u * len(indices))
        chi = group.character(indices[row])
        exact = exact_l(chi, sigma).value
        for col, y in enumerate(payload["y_grid"]):
            trunc = truncated_l(chi, sigma, y).value
            ref = abs(trunc - exact) / abs(exact)
            d_trunc = l_product_rel_tol(q, sigma, y, 1) * abs(trunc)
            tol = (d_trunc + d_exact) / abs(exact) * (1.0 + ref) + 8.0 * U * ref
            got = payload["rel_errors"][row][col]
            if abs(got - ref) > tol:
                problems.append(
                    f"q={q} index {indices[row]} Y={y}: rel error {got!r} != reference {ref!r} (tol {tol:.3g})"
                )
    return problems
