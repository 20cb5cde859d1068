"""Command-line front end.

Subcommands emit calibration verdicts, curve data (CSV), the
alpha(gamma) table, verification suites, and regret bounds.  Exit codes:
0 success, 2 usage/input error, 3 negative verdict (not calibrated or
vacuous bound).  All output is deterministic given the flags and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .calibration import check_calibrated, fuzz_bound, regret_bound
from .curves import _MAX_LEN, _grid, biconjugate, mu_curve, nu_curve
from .errors import CostcalError, VacuousBoundError, _check_int, _check_real
from .families import FAMILIES, UnevenMarginSpec, alpha_of_gamma, make_uneven_loss
from .losses import CostParam, Loss, theta_alpha
from .oracle import (
    brute_force_min,
    constrained_optimal_risk,
    h_alpha,
    h_cc,
    optimal_conditional_risk,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NEGATIVE = 3

QUANTITIES = ("H", "nu", "mu", "psi", "C_star", "C_minus")


def _build_loss(args) -> tuple[Loss, CostParam]:
    _check_real("gamma", args.gamma, 0.0, ends="()")
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


def _curve_columns(loss: Loss, cost: CostParam, quantities: list[str], grid: int) -> dict:
    """Per quantity, its (xs, values, sides) columns in x order, a left
    knot before the right one at the same x."""
    columns = {}
    if any(q in quantities for q in ("H", "C_star", "C_minus")):
        etas = np.union1d(_grid(1.0, grid), [cost.alpha])
        both = ("both",) * len(etas)
        if "H" in quantities:
            columns["H"] = (etas, h_alpha(loss, cost, etas), both)
        if "C_star" in quantities:
            columns["C_star"] = (etas, optimal_conditional_risk(loss, etas), both)
        if "C_minus" in quantities:
            columns["C_minus"] = (etas, constrained_optimal_risk(loss, cost, etas), both)
    if any(q in quantities for q in ("nu", "mu", "psi")):
        nu = nu_curve(loss, cost, grid)
        # mu keeps nu's knot locations and sides.
        if "nu" in quantities:
            columns["nu"] = (nu.eps, nu.values, nu.sides)
        if "mu" in quantities:
            columns["mu"] = (nu.eps, mu_curve(nu).values, nu.sides)
        if "psi" in quantities:
            env = biconjugate(nu)
            columns["psi"] = (env.xs, env.ys, ("both",) * len(env.xs))
    return columns


def _formatted(floats: np.ndarray) -> list[str]:
    """The ``.17g`` string of each float.  Each distinct float is
    formatted once, all in one ``%`` pass.  Floats are told apart by
    their bits, so -0.0 and 0.0 (equal, but written ``-0`` and ``0``)
    each get their own string."""
    bits, where = np.unique(floats.view(np.int64), return_inverse=True)
    text = ("%.17g\n" * len(bits)) % tuple(bits.view(float).tolist())
    return np.array(text.split("\n"), object)[where].tolist()


def _curve_csv(columns: dict) -> str:
    """The CSV text: rows by quantity name, then x, a left knot before its
    right one.  Each column is already in that order, so only the names
    are sorted."""
    names = sorted(columns)
    fields = _formatted(np.concatenate([np.asarray(c, float) for q in names for c in columns[q][:2]]))
    ends = {side: f",{side}\n" for side in ("left", "right", "both")}
    blocks, start = ["x,quantity,value,side\n"], 0
    for q in names:
        sides = columns[q][2]
        n = len(sides)
        rows = [f",{q},"] * (4 * n)
        rows[0::4] = fields[start : start + n]
        rows[2::4] = fields[start + n : start + 2 * n]
        rows[3::4] = [ends[side] for side in sides]
        blocks.append("".join(rows))
        start += 2 * n
    # Drop the per-field lists before the text is built: held through the
    # last join they raise the closed_form benchmark's peak RSS by 0.5 MB.
    del fields, rows
    return "".join(blocks)


def cmd_curve(args) -> int:
    loss, cost = _build_loss(args)
    quantities = [q.strip() for q in args.quantities.split(",") if q.strip()]
    for q in quantities:
        if q not in QUANTITIES:
            raise CostcalError(f"unknown quantity {q!r}; choose from {','.join(QUANTITIES)}")
    if not quantities:
        raise CostcalError("at least one quantity is required")
    _check_int("grid_size", args.grid, 3, _MAX_LEN)
    text = _curve_csv(_curve_columns(loss, cost, quantities, args.grid))
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return EXIT_OK


def cmd_alpha_gamma(args) -> int:
    if not 0.0 < args.gamma_min <= args.gamma_max < math.inf:
        raise CostcalError("need 0 < gamma-min <= gamma-max < inf")
    _check_int("points", args.points, 1, _MAX_LEN)
    gammas = np.geomspace(args.gamma_min, args.gamma_max, args.points)
    gammas[np.abs(gammas - 1.0) < 1e-9] = 1.0
    if args.gamma_min <= 1.0 <= args.gamma_max:
        gammas = np.union1d(gammas, [1.0])
    # Every row is computed before the file opens, so bad input leaves no file.
    fields = [x for g in gammas.tolist() for x in (g, math.log(g), alpha_of_gamma(g))]
    text = ("%.17g,%.17g,%.17g\n" * len(gammas)) % tuple(fields)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("gamma,ln_gamma,alpha\n" + text)
    return EXIT_OK


def _tally(name: str, ok) -> dict:
    """Pass/fail counts over boolean outcomes; a NaN residual compares false."""
    passed = int(np.count_nonzero(ok))
    return {"name": name, "passed": passed, "failed": np.size(ok) - passed}


def _verify_closed_forms() -> dict:
    # At gamma = 2 every minimizer lies inside the search's score window.
    etas, ok = np.linspace(0.0, 1.0, 21), []
    for family in FAMILIES:
        for beta in (0.5,) if family == "sigmoid" else (0.5, 0.7):
            spec = UnevenMarginSpec(family, beta, 2.0)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one (building takes about ten times as long as one
    ``parse_args``), so callers must not modify it."""
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CostcalError, OSError, MemoryError) as exc:  # a count too large to allocate, too
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
