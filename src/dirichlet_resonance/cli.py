"""Command-line entry point: constants | run | sweep | oracle | verify.

Flags mirror the conventional parameter symbols (--ell, --sigma, --X, --Y,
--margin) so configurations read the same on the command line and in the
reports.  Everything is randomness-free; there is no seed to pass.  Exit
status is 0 iff every requested check passed, and 2 for invalid input or a
file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import constants as con
from . import experiments as exp
from .arithmetic import require_positive

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirichlet-resonance",
        description="Resonance-method experiments for Dirichlet L-functions "
        "and their logarithmic derivatives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", help="print the closed-form constants")
    p_const.add_argument("--ell", type=int, nargs="+", required=True, metavar="L")
    p_const.add_argument("--sigma", type=float, nargs="*", default=[], metavar="S")
    p_const.add_argument(
        "--columns", type=str, default=None,
        help="comma list from C,Q,S,H,c,kappa,eta,omega,beta (default: all applicable)",
    )
    p_const.add_argument("--output", type=str, default=None, help="also write CSV here")

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config", type=str, help="path to the JSON configuration")
    p_run.add_argument("--output", type=str, default=None, help="output directory")

    p_sweep = sub.add_parser("sweep", help="run one experiment per prime in a range")
    p_sweep.add_argument("--theorem", type=int, required=True, choices=(1, 2, 3, 4))
    p_sweep.add_argument("--primes", type=str, required=True, metavar="LO..HI")
    p_sweep.add_argument("--ell", type=int, default=1)
    p_sweep.add_argument("--sigma", type=float, default=None)
    p_sweep.add_argument("--margin", type=float, default=0.01,
                         help="endpoint margin for the default X")
    p_sweep.add_argument("--Y", type=int, default=None, dest="y",
                         help="fixed truncation cutoff (default: ceil(X) per prime)")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--output", type=str, default=None, help="output directory")

    p_oracle = sub.add_parser("oracle", help="truncation-error table against the exact oracle")
    p_oracle.add_argument("--q", type=int, required=True)
    p_oracle.add_argument("--sigma", type=float, default=1.0)
    p_oracle.add_argument("--Y", type=int, nargs="+", dest="y_grid",
                          default=[100, 1000, 10000, 100000])
    p_oracle.add_argument("--output", type=str, default=None, help="output directory")

    p_verify = sub.add_parser("verify", help="run the property battery")
    p_verify.add_argument("--quick", action="store_true",
                          help="small-q battery (a few seconds)")
    return parser


def _range_cell(rng) -> str:
    return "(empty)" if rng.is_empty else f"(0, {rng.upper:.8g})"


def _poly_param_cell(sigma: float, ell: int, which: int, fmt: str) -> str:
    try:
        return fmt.format(con.strip_logderiv_poly_params(sigma, ell)[which])
    except ValueError:
        return "(empty)"


# column -> (needs --sigma, cell text for (ell, sigma))
_CONST_COLUMNS = {
    "C": (False, lambda ell, sg: f"{con.joint_l_line_constant(ell):.10g}"),
    "Q": (False, lambda ell, sg: f"{con.joint_logderiv_line_constant(ell):.10g}"),
    "S": (True, lambda ell, sg: f"{con.joint_l_strip_constant(sg, ell):.10g}"),
    "H": (True, lambda ell, sg: f"{con.joint_logderiv_strip_constant(sg, ell):.10g}"),
    "c": (True, lambda ell, sg: f"{con.resonator_mass_integral(sg):.10g}"),
    "kappa": (True, lambda ell, sg: _range_cell(con.strip_l_admissible_range(sg))),
    "eta": (True, lambda ell, sg: _range_cell(con.strip_logderiv_admissible_range(sg))),
    "omega": (True, lambda ell, sg: _poly_param_cell(sg, ell, 0, "{:.8g}")),
    "beta": (True, lambda ell, sg: _poly_param_cell(sg, ell, 1, "> {:.8g}")),
}


def _cmd_constants(args, parser) -> int:
    try:
        for ell in args.ell:
            require_positive("ell", ell)
        for sigma in args.sigma:
            con.require_strip_sigma(sigma)
    except ValueError as err:
        parser.error(str(err))
    if args.columns is None:
        cols = [c for c, (needs_sigma, _) in _CONST_COLUMNS.items()
                if args.sigma or not needs_sigma]
    else:
        cols = [c.strip() for c in args.columns.split(",") if c.strip()]
        unknown = [c for c in cols if c not in _CONST_COLUMNS]
        if unknown:
            parser.error(f"unknown columns {unknown}; choose from {tuple(_CONST_COLUMNS)}")
        if not args.sigma and any(_CONST_COLUMNS[c][0] for c in cols):
            parser.error("sigma-dependent columns requested but no --sigma given")

    sigmas = args.sigma or [None]
    rows = []
    for ell in args.ell:
        for sigma in sigmas:
            row = {"ell": ell, "sigma": "" if sigma is None else f"{sigma:g}"}
            # without --sigma, cols holds no sigma-dependent column
            row.update((c, _CONST_COLUMNS[c][1](ell, sigma)) for c in cols)
            rows.append(row)

    header = ["ell", "sigma"] + list(cols)
    widths = {h: max(len(h), *(len(str(r[h])) for r in rows)) for h in header}
    print("  ".join(h.ljust(widths[h]) for h in header))
    for r in rows:
        print("  ".join(str(r[h]).ljust(widths[h]) for h in header))

    if args.output:
        import csv

        with open(args.output, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.output}")
    return 0


def _outdir(path: str | None) -> str:
    out = path or "."
    os.makedirs(out, exist_ok=True)
    return out


def _cmd_run(args) -> int:
    try:
        config = exp.config_from_json(args.config)
        report = exp.run_theorem(config)
    except exp.ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    out = _outdir(args.output or config.output)
    json_path = os.path.join(out, "report.json")
    csv_path = os.path.join(out, "report.csv")
    exp.write_json(json_path, report.to_dict())
    exp.write_reports_csv(csv_path, [report])
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status} theorem {report.theorem} q={report.q} ell={report.ell}: "
        f"ratio={report.ratio:.6g} bound={report.bound:.6g} margin={report.margin:.3g} "
        f"argmax={report.argmax_index} max={report.max_value:.6g} "
        f"certificate={report.certificate:.6g}"
    )
    for failure in report.failures:
        print(f"  failure: {failure}")
    print(f"wrote {json_path} and {csv_path}")
    return 0 if report.passed else 1


def _parse_prime_range(text: str, parser) -> tuple[int, int]:
    if ".." not in text:
        parser.error(f"--primes wants LO..HI, got {text!r}")
    lo_s, hi_s = text.split("..", 1)
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        parser.error(f"--primes wants integers, got {text!r}")
    if hi < lo:
        parser.error(f"--primes range is empty: {text!r}")
    return lo, hi


def _cmd_sweep(args, parser) -> int:
    lo, hi = _parse_prime_range(args.primes, parser)
    if args.theorem in (2, 4) and args.sigma is None:
        parser.error(f"theorem {args.theorem} requires --sigma")
    try:
        result = exp.sweep(
            args.theorem, (lo, hi), ell=args.ell, sigma=args.sigma,
            endpoint_margin=args.margin, y=args.y, jobs=args.jobs,
        )
    except (exp.ConfigError, ValueError) as err:
        print(f"sweep error: {err}", file=sys.stderr)
        return 2
    out = _outdir(args.output)
    csv_path = os.path.join(out, "sweep.csv")
    json_path = os.path.join(out, "sweep.json")
    exp.write_reports_csv(csv_path, result.reports)
    exp.write_json(json_path, {
        "theorem": result.theorem,
        "ell": result.ell,
        "sigma": result.sigma,
        "rows": [r.to_dict() for r in result.reports],
        "trend": result.trend_rows(),
    })
    n_fail = sum(1 for r in result.reports if not r.passed)
    print(f"{len(result.reports)} primes, {n_fail} failures")
    if result.theorem == 1:
        for lo_b, hi_b, count, mean in result.decade_buckets():
            print(f"  q in [{lo_b}, {hi_b}): n={count}, mean normalized ratio = {mean:.6f}")
    print(f"wrote {csv_path} and {json_path}")
    return 0 if n_fail == 0 else 1


def _cmd_oracle(args) -> int:
    try:
        comp = exp.oracle_comparison(args.q, args.sigma, tuple(args.y_grid))
    except ValueError as err:
        print(f"oracle error: {err}", file=sys.stderr)
        return 2
    print(f"q={comp.q} sigma={comp.sigma:g}: {len(comp.indices)} characters, "
          f"{len(comp.excluded_near_zero)} excluded near zero")
    header = "index " + " ".join(f"Y={y}" for y in comp.y_grid)
    print(header)
    for i, k in enumerate(comp.indices):
        errs = " ".join(f"{float(e):.3e}" for e in comp.rel_errors[i])
        print(f"{k:5d} {errs}")
    print("decade max: " + " ".join(f"{m:.3e}" for m in comp.decade_max()))
    if args.output:
        out = _outdir(args.output)
        csv_path = os.path.join(out, "oracle.csv")
        exp.write_oracle_csv(csv_path, comp)
        exp.write_json(os.path.join(out, "oracle.json"), comp.to_dict())
        print(f"wrote {csv_path}")
    return 0


def _cmd_verify(args) -> int:
    checks = exp.run_verification(quick=args.quick)
    for check in checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    n_fail = sum(1 for c in checks if not c.passed)
    print(f"verify: {len(checks) - n_fail} passed, {n_fail} failed")
    return 0 if n_fail == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "constants": lambda: _cmd_constants(args, parser),
        "run": lambda: _cmd_run(args),
        "sweep": lambda: _cmd_sweep(args, parser),
        "oracle": lambda: _cmd_oracle(args),
        "verify": lambda: _cmd_verify(args),
    }
    try:
        return commands[args.command]()
    except OSError as err:  # names the path: a missing config or an unwritable output
        print(f"file error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
