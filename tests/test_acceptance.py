"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest -v`` (add ``-s`` to see the lines for
passing criteria as they happen)."""

import math
import time

import numpy as np
import pytest

from costcal import (
    ALPHA_SIGMOID_GAMMA2,
    CostParam,
    UnevenMarginSpec,
    alpha_of_gamma,
    biconjugate,
    check_calibrated_analytic,
    check_calibrated_numeric,
    closed_forms,
    conditional_risk,
    constrained_optimal_risk,
    envelope_eval,
    fuzz_bound,
    h_alpha,
    make_uneven_loss,
    mu_curve,
    nu_curve,
    optimal_conditional_risk,
    sigmoid_t_minus,
    theta_alpha,
)
from costcal.curves import SampledCurve
from costcal.oracle import brute_force_min

from conftest import bmin_pair, uneven

CONVEX_FAMILIES = ("hinge", "squared", "exponential")
ALL_FAMILIES = CONVEX_FAMILIES + ("sigmoid",)
ETA_GRID_101 = np.linspace(0.0, 1.0, 101)
ALPHA_GRID = [round(0.1 * k, 1) for k in range(1, 10)]


def report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_alpha_of_two():
    start = time.perf_counter()
    value = alpha_of_gamma(2.0)
    elapsed = time.perf_counter() - start
    exact = (3.0 + 4.0 * math.sqrt(2.0)) / 23.0
    ok = abs(value - exact) <= 1e-10 and elapsed < 1.0
    report(1, f"alpha(2) = (3+4*sqrt(2))/23 within 1e-10 in {elapsed:.3f}s", ok)


def test_criterion_02_reciprocal_symmetry():
    worst = max(
        abs(alpha_of_gamma(g) + alpha_of_gamma(1.0 / g) - 1.0)
        for g in (1.5, 2.0, 3.0, 5.0, 8.0)
    )
    report(2, f"alpha(1/g) = 1 - alpha(g), worst residual {worst:.2e}", worst <= 1e-8)


def test_criterion_03_closed_forms_vs_oracle():
    ok = True
    notes = []
    for family in ALL_FAMILIES:
        spec = UnevenMarginSpec(family, beta=0.5, gamma=2.0)
        loss = make_uneven_loss(spec)
        start = time.perf_counter()
        worst = max(
            abs(closed_forms(spec, float(e)).c_star - brute_force_min(loss, float(e)).value)
            for e in ETA_GRID_101
        )
        elapsed = time.perf_counter() - start
        notes.append(f"{family} {worst:.1e}/{elapsed:.1f}s")
        ok = ok and worst <= 1e-6 and elapsed < 10.0
    report(3, "closed C* vs oracle on 101-point grid: " + ", ".join(notes), ok)


def test_criterion_04_reweighting_identity():
    worst = 0.0
    for family in CONVEX_FAMILIES:
        base = uneven(family, gamma=2.0)
        for alpha in ALPHA_GRID:
            weighted = uneven(family, gamma=2.0, alpha_weight=alpha)
            cost = CostParam(alpha)
            for eta in ETA_GRID_101:
                eta = float(eta)
                theta, w = theta_alpha(cost, eta)
                diff = abs(h_alpha(weighted, cost, eta) - w * h_alpha(base, CostParam(0.5), theta))
                worst = max(worst, diff)
    report(4, f"weighted-gap identity, worst residual {worst:.2e}", worst <= 1e-10)


def test_criterion_05_hinge_piecewise_gap():
    worst = 0.0
    for alpha in ALPHA_GRID:
        cost = CostParam(alpha)
        for gamma in (0.25, 0.5, 1.0, 2.0, 4.0):
            loss = uneven("hinge", gamma=gamma, alpha_weight=alpha)
            for eta in ETA_GRID_101:
                eta = float(eta)
                expected = eta - alpha if eta >= alpha else (alpha - eta) / gamma
                worst = max(worst, abs(h_alpha(loss, cost, eta) - expected))
    report(5, f"hinge piecewise gap display, worst residual {worst:.2e}", worst <= 1e-10)


def test_criterion_06_jump_characterization():
    ok = True
    for alpha in ALPHA_GRID:
        for gamma in (0.25, 0.5, 1.0, 2.0, 4.0):
            if alpha == 0.5 and gamma == 1.0:
                continue  # excluded edge: both sides of the predicate vanish
            loss = uneven("hinge", gamma=gamma, alpha_weight=alpha)
            left, right = bmin_pair(nu_curve(loss, CostParam(alpha), 101))
            ok = ok and (abs(right - left) > 1e-9) == ((alpha - 0.5) * (gamma - 1.0) < 0.0)
    report(6, "nu-jump iff (alpha - 1/2)(gamma - 1) < 0 for hinge", ok)


def test_criterion_07_classic_squared_bound():
    # The cost-insensitive psi(eps) is the alpha = 1/2 envelope at eps / 2.
    loss, half = uneven("squared", gamma=1.0, beta=1.0), CostParam(0.5)
    worst = max(
        abs(envelope_eval(biconjugate(nu_curve(loss, half, 2001, (e / 2.0,))), e / 2.0) - e**2)
        for e in np.linspace(0.0, 1.0, 101).tolist()
    )
    report(7, f"squared-loss psi(eps) = eps^2, worst residual {worst:.2e}", worst <= 1e-6)


def test_criterion_08_bound_fuzz():
    start = time.perf_counter()
    failures = 0
    for family in ALL_FAMILIES:
        failures += sum(not r.passed for r in fuzz_bound(1, family, 1000))
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    report(8, f"4000 fuzz trials, {failures} violations in {elapsed:.1f}s", ok)


def test_criterion_09_suffix_infimum_hull_equality():
    def hulls_agree(curve):
        env_nu = biconjugate(curve)
        env_mu = biconjugate(mu_curve(curve))
        return all(
            abs(envelope_eval(env_nu, k.eps) - envelope_eval(env_mu, k.eps)) <= 1e-9
            for k in curve.knots
        )

    ok = True
    for family in ALL_FAMILIES:
        if family == "sigmoid":
            loss, cost = uneven(family, gamma=2.0), CostParam(ALPHA_SIGMOID_GAMMA2)
        else:
            loss, cost = uneven(family, gamma=2.0, alpha_weight=0.3), CostParam(0.3)
        ok = ok and hulls_agree(nu_curve(loss, cost, 201))
    rng = np.random.default_rng(0)
    for _ in range(20):
        xs = np.sort(rng.uniform(0.01, 1.0, int(rng.integers(3, 40))))
        values = rng.uniform(0.0, 3.0, xs.size)
        sides = ["both"] * (xs.size + 1)
        curve = SampledCurve(float(xs[-1]), np.r_[0.0, xs], np.r_[0.0, values], sides)
        ok = ok and hulls_agree(curve)
    report(9, "hull(mu) = hull(nu) for families and 20 random curves", ok)


def test_criterion_10_verdict_equivalences():
    ok = True
    for family in CONVEX_FAMILIES:
        for gamma in (0.25, 0.5, 1.0, 2.0, 4.0):
            for alpha in ALPHA_GRID:
                cost = CostParam(alpha)
                for weighted in (False, True):
                    loss = uneven(
                        family, gamma=gamma, alpha_weight=alpha if weighted else None
                    )
                    analytic = check_calibrated_analytic(loss, cost).verdict
                    numeric = check_calibrated_numeric(loss, cost, 201, 1e-9).verdict
                    ok = ok and analytic == numeric
    sigmoid = uneven("sigmoid", gamma=2.0)
    at = check_calibrated_numeric(sigmoid, CostParam(ALPHA_SIGMOID_GAMMA2), 1001, 1e-9)
    ok = ok and at.verdict == "calibrated"
    for offset in (-0.02, 0.02):
        off = check_calibrated_numeric(
            sigmoid, CostParam(ALPHA_SIGMOID_GAMMA2 + offset), 1001, 1e-9
        )
        ok = ok and off.verdict == "not_calibrated"
    report(10, "analytic/numeric verdicts agree; sigmoid calibrated only at alpha(2)", ok)


def test_criterion_11_sigmoid_stationarity():
    loss = uneven("sigmoid", gamma=2.0)
    worst_quartic = 0.0
    worst_slope = 0.0
    for eta in np.arange(0.05, 0.46, 0.05):
        eta = float(eta)
        t = sigmoid_t_minus(eta)
        z = math.exp(t)
        residual = abs(
            eta * z**4
            - (1.0 - eta) * z**3
            + 2.0 * (2.0 * eta - 1.0) * z**2
            - (1.0 - eta) * z
            + eta
        )
        slope = abs(
            conditional_risk(loss, eta, t + 1e-6) - conditional_risk(loss, eta, t - 1e-6)
        ) / 2e-6
        worst_quartic = max(worst_quartic, residual)
        worst_slope = max(worst_slope, slope)
    ok = worst_quartic <= 1e-9 and worst_slope <= 1e-5
    report(
        11,
        f"sigmoid t_minus: quartic {worst_quartic:.1e}, risk slope {worst_slope:.1e}",
        ok,
    )


def test_criterion_12_property_suites():
    ok = True
    for family in ALL_FAMILIES:
        if family == "sigmoid":
            loss, cost = uneven(family, gamma=2.0), CostParam(ALPHA_SIGMOID_GAMMA2)
        else:
            loss, cost = uneven(family, gamma=2.0, alpha_weight=0.3), CostParam(0.3)
        alpha = cost.alpha
        etas = np.linspace(0.0, 1.0, 51)
        # Gap nonnegative everywhere.
        ok = ok and all(h_alpha(loss, cost, float(e)) >= 0.0 for e in etas)
        # Optimal conditional risk concave on [0, 1].
        c_star = [optimal_conditional_risk(loss, float(e)) for e in etas]
        ok = ok and all(
            c_star[i] >= 0.5 * (c_star[i - 1] + c_star[i + 1]) - 1e-9
            for i in range(1, len(c_star) - 1)
        )
        # Constrained optimum concave on each side of the threshold.
        for side in (np.linspace(0.0, alpha, 21), np.linspace(alpha, 1.0, 21)):
            c_minus = [constrained_optimal_risk(loss, cost, float(e)) for e in side]
            ok = ok and all(
                c_minus[i] >= 0.5 * (c_minus[i - 1] + c_minus[i + 1]) - 1e-9
                for i in range(1, len(c_minus) - 1)
            )
        # nu(0) = mu(0) = psi(0) = 0, and psi is piecewise-linear continuous.
        nu = nu_curve(loss, cost, 201)
        mu = mu_curve(nu)
        env = biconjugate(nu)
        ok = ok and nu.knots[0].value == 0.0 and mu.knots[0].value == 0.0
        ok = ok and envelope_eval(env, 0.0) == 0.0
        slopes = [
            (y2 - y1) / (x2 - x1)
            for (x1, y1), (x2, y2) in zip(env.hull_knots, env.hull_knots[1:])
        ]
        lipschitz = max(slopes, default=0.0)
        samples = np.linspace(0.0, env.domain_max, 101)
        values = [envelope_eval(env, float(x)) for x in samples]
        step = float(samples[1] - samples[0])
        ok = ok and all(math.isfinite(v) for v in values)
        ok = ok and all(
            abs(b - a) <= lipschitz * step + 1e-12 for a, b in zip(values, values[1:])
        )
    report(12, "concavity/positivity/zero-at-zero/continuity suites", ok)
