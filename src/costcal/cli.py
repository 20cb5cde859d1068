"""Command-line front end.

Subcommands emit calibration verdicts, curve data (CSV), the
alpha(gamma) table, verification suites, and regret bounds.  Exit codes:
0 success, 2 usage/input error, 3 negative verdict (not calibrated or
vacuous bound).  All output is deterministic given the flags and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .calibration import check_calibrated, mu_curve
from .curves import biconjugate, nu_curve, regret_bound
from .errors import CostcalError, DomainError, VacuousBoundError
from .families import FAMILIES, UnevenMarginSpec, alpha_of_gamma, make_uneven_loss
from .losses import (
    CostParam,
    Loss,
    constrained_optimal_risk,
    h_alpha,
    h_cc,
    optimal_conditional_risk,
    theta_alpha,
)
from .oracle import brute_force_min, fuzz_bound

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NEGATIVE = 3

QUANTITIES = ("H", "nu", "mu", "psi", "C_star", "C_minus")


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _build_loss(args) -> tuple[Loss, CostParam]:
    if not 0.0 < args.gamma < math.inf:
        raise DomainError(f"gamma must be positive and finite, got {args.gamma}")
    beta = args.beta if args.beta is not None else 1.0 / args.gamma
    weighted = getattr(args, "weighted", False)
    spec = UnevenMarginSpec(
        family=args.family,
        beta=beta,
        gamma=args.gamma,
        alpha_weight=args.alpha if weighted else None,
    )
    return make_uneven_loss(spec), CostParam(args.alpha)


def cmd_check(args) -> int:
    loss, cost = _build_loss(args)
    report = check_calibrated(loss, cost)
    print(json.dumps(dataclasses.asdict(report), indent=2))
    return EXIT_OK if report.verdict == "calibrated" else EXIT_NEGATIVE


def _curve_rows(loss: Loss, cost: CostParam, quantities: list[str], grid: int):
    rows: list[tuple[str, float, float, str]] = []
    if any(q in quantities for q in ("H", "C_star", "C_minus")):
        etas = np.union1d(np.linspace(0.0, 1.0, grid), [cost.alpha])
        columns = []
        if "H" in quantities:
            columns.append(("H", h_alpha(loss, cost, etas)))
        if "C_star" in quantities:
            columns.append(("C_star", optimal_conditional_risk(loss, etas)))
        if "C_minus" in quantities:
            columns.append(("C_minus", constrained_optimal_risk(loss, cost, etas)))
        for q, values in columns:
            rows.extend((q, x, v, "both") for x, v in zip(etas.tolist(), values.tolist()))
    if any(q in quantities for q in ("nu", "mu", "psi")):
        nu = nu_curve(loss, cost, grid)
        if "nu" in quantities:
            rows.extend(("nu", k.eps, k.value, k.side) for k in nu.knots)
        if "mu" in quantities:
            rows.extend(("mu", k.eps, k.value, k.side) for k in mu_curve(nu).knots)
        if "psi" in quantities:
            rows.extend(("psi", x, v, "both") for x, v in biconjugate(nu).hull_knots)
    rows.sort(key=lambda r: (r[0], r[1], r[3] != "left"))
    return rows


def cmd_curve(args) -> int:
    loss, cost = _build_loss(args)
    quantities = [q.strip() for q in args.quantities.split(",") if q.strip()]
    for q in quantities:
        if q not in QUANTITIES:
            raise CostcalError(f"unknown quantity {q!r}; choose from {','.join(QUANTITIES)}")
    if not quantities:
        raise CostcalError("at least one quantity is required")
    if args.grid < 3:
        raise DomainError(f"grid_size must be >= 3, got {args.grid}")
    rows = _curve_rows(loss, cost, quantities, args.grid)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,quantity,value,side\n")
        for quantity, x, value, side in rows:
            fh.write(f"{_fmt(x)},{quantity},{_fmt(value)},{side}\n")
    return EXIT_OK


def cmd_alpha_gamma(args) -> int:
    if not 0.0 < args.gamma_min <= args.gamma_max < math.inf:
        raise CostcalError("need 0 < gamma-min <= gamma-max < inf")
    if args.points < 1:
        raise CostcalError("points must be >= 1")
    gammas = np.geomspace(args.gamma_min, args.gamma_max, args.points)
    gammas[np.abs(gammas - 1.0) < 1e-9] = 1.0
    if args.gamma_min <= 1.0 <= args.gamma_max:
        gammas = np.union1d(gammas, [1.0])
    # Every row is computed before the file opens, so bad input leaves no file.
    rows = [f"{_fmt(g)},{_fmt(math.log(g))},{_fmt(alpha_of_gamma(g))}\n" for g in gammas.tolist()]
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("gamma,ln_gamma,alpha\n")
        fh.writelines(rows)
    return EXIT_OK


def _tally(name: str, ok) -> dict:
    """Pass/fail counts over boolean outcomes; a NaN residual compares false."""
    passed = int(np.count_nonzero(ok))
    return {"name": name, "passed": passed, "failed": np.size(ok) - passed}


def _verify_closed_forms() -> dict:
    etas, ok = np.linspace(0.0, 1.0, 21), []
    for family in FAMILIES:
        spec = UnevenMarginSpec(family, 0.5, 2.0)
        numeric = brute_force_min(make_uneven_loss(spec), etas, "none").value
        ok.append(np.abs(spec.c_star(etas) - numeric) <= 1e-6)
    return _tally("closed_forms_vs_oracle", np.concatenate(ok))


def _verify_identities() -> dict:
    etas, ok = np.linspace(0.0, 1.0, 21), []
    for family in ("hinge", "squared", "exponential"):
        base = make_uneven_loss(UnevenMarginSpec(family, 0.5, 2.0))
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            weighted = make_uneven_loss(UnevenMarginSpec(family, 0.5, 2.0, alpha_weight=alpha))
            cost = CostParam(alpha)
            theta, w = theta_alpha(cost, etas)
            ok.append(np.abs(h_alpha(weighted, cost, etas) - w * h_cc(base, theta)) <= 1e-10)
    return _tally("alpha_transform_identity", np.concatenate(ok))


def _verify_bounds(seed: int) -> dict:
    ok = [record.passed for family in FAMILIES for record in fuzz_bound(seed, family, 1000)]
    return _tally("regret_bound_fuzz", ok)


def cmd_verify(args) -> int:
    checks = []
    if args.suite in ("closed_forms", "all"):
        checks.append(_verify_closed_forms())
    if args.suite in ("identities", "all"):
        checks.append(_verify_identities())
    if args.suite in ("bounds", "all"):
        checks.append(_verify_bounds(args.seed))
    all_passed = all(c["failed"] == 0 for c in checks)
    print(json.dumps({"suite": args.suite, "checks": checks, "all_passed": all_passed}, indent=2))
    return EXIT_OK if all_passed else EXIT_NEGATIVE


def cmd_bound(args) -> int:
    loss, cost = _build_loss(args)
    try:
        bound = regret_bound(loss, cost, args.surrogate_regret)
    except VacuousBoundError as exc:
        print(json.dumps({"error": str(exc)}))
        return EXIT_NEGATIVE
    print(json.dumps({"bound": bound}))
    return EXIT_OK


def _add_loss_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", required=True, choices=FAMILIES)
    parser.add_argument("--beta", type=float, default=None, help="defaults to 1/gamma")
    parser.add_argument("--gamma", type=float, required=True)
    parser.add_argument("--alpha", type=float, required=True)
    parser.add_argument(
        "--weighted", action="store_true", help="apply the (1-alpha, alpha) outer weighting"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="costcal",
        description="Calibration diagnostics and surrogate regret bounds "
        "for cost-sensitive binary classification losses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="calibration verdict as JSON")
    _add_loss_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("curve", help="emit curve data as CSV")
    _add_loss_flags(p)
    p.add_argument("--quantities", required=True, help="comma list of " + ",".join(QUANTITIES))
    p.add_argument("--grid", type=int, default=201)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("alpha-gamma", help="emit the alpha(gamma) table as CSV")
    p.add_argument("--gamma-min", type=float, required=True)
    p.add_argument("--gamma-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_alpha_gamma)

    p = sub.add_parser("verify", help="run verification suites, JSON summary")
    p.add_argument("--suite", choices=("closed_forms", "identities", "bounds", "all"), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="cost-regret bound from a surrogate regret")
    _add_loss_flags(p)
    p.add_argument("--surrogate-regret", type=float, required=True)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CostcalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
