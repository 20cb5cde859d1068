"""Calibration verdicts, calibration functions, and the suffix-infimum curve."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from costcal import calibration, curves
from costcal import (
    ALPHA_SIGMOID_GAMMA2,
    CostParam,
    DomainError,
    Knot,
    PartialLoss,
    Loss,
    PreconditionError,
    SampledCurve,
    alpha_transform,
    biconjugate,
    calibration_fn,
    check_calibrated,
    check_calibrated_analytic,
    check_calibrated_numeric,
    envelope_eval,
    mu_curve,
    nu_curve,
    uniform_calibration_fn,
)

from conftest import cost_sensitive_loss, knot_curves, uneven


class TestAnalyticCheck:
    def test_weighted_calibrated_hinge(self):
        base = uneven("hinge", gamma=2.0)
        weighted = alpha_transform(base, CostParam(0.4))
        report = check_calibrated_analytic(weighted, CostParam(0.4))
        assert report.verdict == "calibrated"
        assert report.method == "analytic_convex"
        d1, d2, combo = report.derivative_checks
        assert d1 < 0.0 < d2
        assert abs(combo) <= 1e-12 * max(abs(d1), abs(d2))

    def test_wrong_margin_ratio_not_calibrated(self):
        loss = uneven("hinge", gamma=2.0, beta=1.0)
        report = check_calibrated_analytic(loss, CostParam(0.5))
        assert report.verdict == "not_calibrated"

    def test_symmetric_margin_hinge_calibrated_at_half(self):
        loss = uneven("hinge", gamma=1.0, beta=1.0)
        assert check_calibrated_analytic(loss, CostParam(0.5)).verdict == "calibrated"

    def test_nonconvex_loss_refused(self):
        loss = uneven("sigmoid", gamma=2.0)
        with pytest.raises(PreconditionError):
            check_calibrated_analytic(loss, CostParam(0.5))

    def test_missing_derivative_refused(self):
        partial = PartialLoss(fn=lambda t: abs(t), value_at_zero=0.0, is_convex=True)
        loss = Loss(pos=partial, neg=partial)
        with pytest.raises(PreconditionError):
            check_calibrated_analytic(loss, CostParam(0.5))


class TestNumericCheck:
    def test_sigmoid_calibrated_at_special_alpha(self):
        loss = uneven("sigmoid", gamma=2.0)
        report = check_calibrated_numeric(
            loss, CostParam(ALPHA_SIGMOID_GAMMA2), grid_size=1001, tolerance=1e-9
        )
        assert report.verdict == "calibrated"
        assert report.method == "numeric_grid"
        assert report.grid_size == 1001

    @pytest.mark.parametrize("offset", [-0.02, 0.02])
    def test_sigmoid_not_calibrated_off_special_alpha(self, offset):
        loss = uneven("sigmoid", gamma=2.0)
        report = check_calibrated_numeric(
            loss, CostParam(ALPHA_SIGMOID_GAMMA2 + offset), grid_size=1001,
            tolerance=1e-9,
        )
        assert report.verdict == "not_calibrated"
        assert report.witnesses

    def test_sigmoid_not_calibrated_at_half(self):
        loss = uneven("sigmoid", gamma=2.0)
        report = check_calibrated_numeric(
            loss, CostParam(0.5), grid_size=1001, tolerance=1e-9
        )
        assert report.verdict == "not_calibrated"

    def test_target_loss_is_its_own_counterexample(self):
        # The cost-sensitive 0-1 loss is not calibrated for itself.
        loss = cost_sensitive_loss(0.3)
        report = check_calibrated_numeric(loss, CostParam(0.3), 201, 1e-9)
        assert report.verdict == "not_calibrated"

    def test_witnesses_avoid_the_threshold(self):
        loss = uneven("hinge", gamma=2.0, beta=1.0)
        report = check_calibrated_numeric(loss, CostParam(0.5), 201, 1e-9)
        assert report.verdict == "not_calibrated"
        for eta, value in report.witnesses:
            assert eta != 0.5
            assert value <= 1e-9

    def test_rejects_tiny_grid(self):
        loss = uneven("hinge", gamma=2.0)
        with pytest.raises(DomainError):
            check_calibrated_numeric(loss, CostParam(0.5), grid_size=2)

    @pytest.mark.parametrize("family", ["hinge", "squared", "exponential"])
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_agrees_with_analytic_check(self, family, alpha):
        cost = CostParam(alpha)
        for weighted in (False, True):
            loss = uneven(family, gamma=2.0, alpha_weight=alpha if weighted else None)
            analytic = check_calibrated_analytic(loss, cost).verdict
            numeric = check_calibrated_numeric(loss, cost, 201, 1e-9).verdict
            assert analytic == numeric


class TestVerdictEquivalences:
    def test_weighting_carries_calibration_to_alpha(self):
        # A loss calibrated for the symmetric cost becomes, after the
        # (1 - a, a) outer weighting, calibrated for cost a -- and back.
        base = uneven("squared", gamma=2.0)
        a = 0.3
        assert (
            check_calibrated_numeric(base, CostParam(0.5), 201, 1e-9).verdict
            == "calibrated"
        )
        weighted = alpha_transform(base, CostParam(a))
        assert (
            check_calibrated_numeric(weighted, CostParam(a), 201, 1e-9).verdict
            == "calibrated"
        )
        unwound = alpha_transform(weighted, CostParam(1.0 - a))
        assert (
            check_calibrated_numeric(unwound, CostParam(0.5), 201, 1e-9).verdict
            == "calibrated"
        )

    def test_weighting_an_uncalibrated_loss_stays_uncalibrated(self):
        base = uneven("hinge", gamma=2.0, beta=1.0)  # not CC at 1/2
        weighted = alpha_transform(base, CostParam(0.3))
        assert (
            check_calibrated_numeric(weighted, CostParam(0.3), 201, 1e-9).verdict
            == "not_calibrated"
        )


class TestCalibrationFn:
    LOSS = uneven("hinge", gamma=2.0, alpha_weight=0.3)
    COST = CostParam(0.3)

    def test_infinite_beyond_the_distance(self):
        assert calibration_fn(self.LOSS, self.COST, 0.6, 0.5) == math.inf

    def test_gap_value_within_the_distance(self):
        assert calibration_fn(self.LOSS, self.COST, 0.1, 0.5) == pytest.approx(
            0.2, abs=1e-10
        )

    def test_infinite_at_the_threshold(self):
        assert calibration_fn(self.LOSS, self.COST, 0.2, 0.3) == math.inf

    def test_boundary_uses_the_gap_branch(self):
        # eps exactly |eta - alpha| still returns H.
        assert calibration_fn(self.LOSS, self.COST, 0.2, 0.5) == pytest.approx(
            0.2, abs=1e-10
        )

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(DomainError):
            calibration_fn(self.LOSS, self.COST, 0.0, 0.5)

    def test_rejects_nan_eps(self):
        with pytest.raises(DomainError):
            calibration_fn(self.LOSS, self.COST, math.nan, 0.5)

    @pytest.mark.parametrize("eta", [-0.1, 1.5, math.nan])
    def test_rejects_eta_outside_unit_interval(self, eta):
        with pytest.raises(DomainError, match=r"eta must lie in \[0, 1\]"):
            calibration_fn(self.LOSS, self.COST, 0.1, eta)

    def test_discontinuous_partials_refused(self):
        loss = cost_sensitive_loss(0.3)
        with pytest.raises(PreconditionError):
            calibration_fn(loss, self.COST, 0.1, 0.5)


class TestUniformCalibrationFn:
    LOSS = uneven("hinge", gamma=2.0, alpha_weight=0.3)
    COST = CostParam(0.3)

    def test_infinite_above_b_max(self):
        assert uniform_calibration_fn(self.LOSS, self.COST, 0.8) == math.inf

    def test_small_eps_sees_the_cheap_side(self):
        assert uniform_calibration_fn(self.LOSS, self.COST, 0.2) == pytest.approx(
            0.1, abs=1e-9
        )

    def test_large_eps_past_the_jump(self):
        assert uniform_calibration_fn(self.LOSS, self.COST, 0.5) == pytest.approx(
            0.5, abs=1e-9
        )

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(DomainError):
            uniform_calibration_fn(self.LOSS, self.COST, -0.1)

    def test_rejects_nan_eps(self):
        with pytest.raises(DomainError):
            uniform_calibration_fn(self.LOSS, self.COST, math.nan)

    @pytest.mark.parametrize("nan_at", [None, 0.2, 0.35, 0.7])
    def test_a_nan_gap_counts_as_min_counts_it(self, monkeypatch, nan_at):
        # min() over the knots at or past eps = 0.2 keeps a NaN only in
        # first place; past it, a NaN never compares less.
        def gaps(loss, cost, etas):
            dist = np.abs(etas - cost.alpha)
            values = 2.0 - dist
            if nan_at is not None:
                values[np.abs(dist - nan_at) < 1e-12] = math.nan
            return values

        monkeypatch.setattr(curves, "h_alpha", gaps)
        value = uniform_calibration_fn(self.LOSS, self.COST, 0.2, 11)
        nu = nu_curve(self.LOSS, self.COST, 11, extra_knots=(0.2,))
        expected = min(k.value for k in nu.knots if k.eps >= 0.2)
        assert type(value) is float
        if nan_at == 0.2:
            assert math.isnan(value) and math.isnan(expected)
        else:
            assert value == expected and not math.isnan(value)

    @pytest.mark.parametrize("grid_size", [0, 1, 2])
    def test_rejects_grids_below_three(self, grid_size):
        with pytest.raises(DomainError):
            uniform_calibration_fn(self.LOSS, self.COST, 0.2, grid_size)

    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.3, 0.45])
    @pytest.mark.parametrize("family", ["hinge", "squared", "exponential"])
    def test_reads_mu_off_nu(self, family, eps):
        # mu(eps) from the suffix-infimum curve, at the knots placed at eps.
        loss, cost = uneven(family, gamma=2.0, beta=1.0), CostParam(0.3)
        mu = mu_curve(nu_curve(loss, cost, 201, extra_knots=(eps,)))
        expected = min(k.value for k in mu.knots if k.eps == eps)
        assert uniform_calibration_fn(loss, cost, eps, 201) == expected


class TestNumericFallbackWitness:
    """A calibrated numeric verdict reports the least coarse gap the way
    min() finds it: the first least value, where NaN never compares less."""

    @pytest.mark.parametrize("nan_at", [None, 0, 1, 3])
    def test_first_least_gap_as_min_picks_it(self, monkeypatch, nan_at):
        def gaps(loss, cost, etas):
            values = 1.0 + (etas - 0.5) ** 2
            values[np.argmin(values) + 2] = values.min()  # a tie after the minimum
            if nan_at is not None:
                values[nan_at] = math.nan
            return values

        monkeypatch.setattr(calibration, "h_alpha", gaps)
        report = check_calibrated_numeric(uneven("hinge", gamma=1.0), CostParam(0.3), 11)
        etas = [e for e in np.linspace(0.0, 1.0, 11).tolist() if abs(e - 0.3) > 1.0 / 22.0]
        expected = min(zip(etas, gaps(None, None, np.array(etas)).tolist()), key=lambda ev: ev[1])
        assert report.verdict == "calibrated"
        assert repr(report.witnesses) == repr((expected,))  # NaN != NaN
        assert [type(x) for x in report.witnesses[0]] == [float, float]


class TestCheckCalibrated:
    def test_convex_partials_get_the_analytic_verdict(self):
        loss, cost = uneven("hinge", gamma=2.0, alpha_weight=0.3), CostParam(0.3)
        assert check_calibrated(loss, cost) == check_calibrated_analytic(loss, cost)

    def test_nonconvex_partials_get_the_numeric_verdict(self):
        loss, cost = uneven("sigmoid", gamma=2.0), CostParam(ALPHA_SIGMOID_GAMMA2)
        report = check_calibrated(loss, cost)
        assert report == check_calibrated_numeric(loss, cost)
        assert report.method == "numeric_grid"


def reference_mu(curve: SampledCurve) -> tuple[Knot, ...]:
    """Suffix infimum by a running minimum from the right."""
    out, running = [], math.inf
    for knot in reversed(curve.knots):
        running = min(running, knot.value)
        out.append(knot._replace(value=running))
    return tuple(reversed(out))


class TestMuCurve:
    @given(knot_curves())
    @settings(max_examples=200, deadline=None)
    def test_equals_running_min_reference(self, curve):
        mu = mu_curve(curve)
        assert mu.knots == reference_mu(curve)
        assert all(type(k) is Knot for k in mu.knots)
        assert mu.domain_max == curve.domain_max

    def test_equals_reference_on_family_curve(self):
        loss = uneven("sigmoid", gamma=2.0)
        nu = nu_curve(loss, CostParam(ALPHA_SIGMOID_GAMMA2), 201)
        assert mu_curve(nu).knots == reference_mu(nu)

    def test_nondecreasing_input_is_fixed(self):
        curve = SampledCurve(
            domain_max=0.6,
            knots=(
                Knot(0.0, 0.0, "both"),
                Knot(0.2, 0.1, "both"),
                Knot(0.4, 0.3, "both"),
                Knot(0.6, 0.3, "both"),
            ),
        )
        mu = mu_curve(curve)
        assert [k.value for k in mu.knots] == [0.0, 0.1, 0.3, 0.3]

    def test_convex_partials_leave_nu_unchanged(self):
        loss = uneven("hinge", gamma=2.0, alpha_weight=0.3)
        nu = nu_curve(loss, CostParam(0.3), 201)
        mu = mu_curve(nu)
        for a, b in zip(nu.knots, mu.knots):
            assert b.value == pytest.approx(a.value, abs=1e-12)
            assert (a.eps, a.side) == (b.eps, b.side)

    def test_interior_dip_is_flattened(self):
        curve = SampledCurve(
            domain_max=0.7,
            knots=(
                Knot(0.0, 0.0, "both"),
                Knot(0.2, 0.3, "both"),
                Knot(0.4, 0.1, "both"),
                Knot(0.7, 0.5, "both"),
            ),
        )
        mu = mu_curve(curve)
        values = {k.eps: k.value for k in mu.knots}
        assert values[0.2] == pytest.approx(0.1, abs=1e-15)
        assert values[0.0] == 0.0
        mu_vals = [k.value for k in mu.knots]
        assert mu_vals == sorted(mu_vals)

    def test_dominated_by_input(self):
        loss = uneven("sigmoid", gamma=2.0)
        nu = nu_curve(loss, CostParam(ALPHA_SIGMOID_GAMMA2), 201)
        mu = mu_curve(nu)
        for a, b in zip(nu.knots, mu.knots):
            assert b.value <= a.value + 1e-15

    def test_empty_curve_rejected(self):
        with pytest.raises(DomainError):
            mu_curve(SampledCurve(domain_max=0.0, knots=()))

    @pytest.mark.parametrize("family", ["hinge", "squared", "exponential", "sigmoid"])
    def test_envelopes_of_mu_and_nu_agree(self, family):
        if family == "sigmoid":
            loss = uneven(family, gamma=2.0)
            cost = CostParam(ALPHA_SIGMOID_GAMMA2)
        else:
            loss = uneven(family, gamma=2.0, alpha_weight=0.3)
            cost = CostParam(0.3)
        nu = nu_curve(loss, cost, 201)
        env_nu = biconjugate(nu)
        env_mu = biconjugate(mu_curve(nu))
        for k in nu.knots:
            assert envelope_eval(env_nu, k.eps) == pytest.approx(
                envelope_eval(env_mu, k.eps), abs=1e-9
            )

    def test_envelopes_agree_on_random_curves(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            xs = np.sort(rng.uniform(0.01, 1.0, rng.integers(3, 25)))
            values = rng.uniform(0.0, 2.0, xs.size)
            knots = (Knot(0.0, 0.0, "both"),) + tuple(
                Knot(float(x), float(v), "both") for x, v in zip(xs, values)
            )
            curve = SampledCurve(domain_max=float(xs[-1]), knots=knots)
            env_a = biconjugate(curve)
            env_b = biconjugate(mu_curve(curve))
            for k in curve.knots:
                assert envelope_eval(env_a, k.eps) == pytest.approx(
                    envelope_eval(env_b, k.eps), abs=1e-9
                )
