"""Conditional risks, constrained optima, gaps, and the reweighting transform."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from costcal import (
    CostParam,
    DomainError,
    Loss,
    PartialLoss,
    UnsupportedLimitError,
    alpha_transform,
    check_calibrated_analytic,
    conditional_risk,
    constrained_optimal_risk,
    cost_regret,
    h_alpha,
    h_cc,
    optimal_conditional_risk,
    theta_alpha,
)
from costcal.losses import sign
from costcal.oracle import brute_force_min

from conftest import counted, uneven, untagged

ETA_GRID = np.linspace(0.0, 1.0, 21)


class TestCostParam:
    def test_b_max_b_min(self):
        cost = CostParam(0.3)
        assert cost.b_max == 0.7
        assert cost.b_min == 0.3
        assert cost.b_max + cost.b_min == 1.0

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_degenerate_alpha(self, alpha):
        with pytest.raises(DomainError):
            CostParam(alpha)


class TestSign:
    def test_conventions(self):
        assert sign(0.0) == -1.0
        assert sign(2.0) == 1.0
        assert sign(-3.0) == -1.0
        assert sign(math.inf) == 1.0
        assert sign(-math.inf) == -1.0


class TestConditionalRisk:
    def test_margin_hinge_at_origin(self):
        # Both partials equal 1 at t = 0.
        loss = uneven("hinge", gamma=1.0, beta=1.0)
        assert conditional_risk(loss, 0.5, 0.0) == 1.0

    def test_sigmoid_limit_at_pos_inf(self):
        loss = uneven("sigmoid", gamma=2.0)
        assert conditional_risk(loss, 0.3, math.inf) == pytest.approx(0.35, abs=1e-12)

    def test_uneven_hinge_at_minus_one(self):
        loss = uneven("hinge", gamma=2.0)
        assert conditional_risk(loss, 0.3, -1.0) == pytest.approx(0.6, abs=1e-12)

    def test_infinite_value_propagates(self):
        loss = uneven("hinge", gamma=2.0)
        assert conditional_risk(loss, 0.3, -math.inf) == math.inf

    def test_zero_weight_absorbs_infinite_partial(self):
        # 0 * inf is 0: at eta = 1 only the positive partial matters.
        loss = uneven("hinge", gamma=2.0)
        assert conditional_risk(loss, 1.0, -math.inf) == math.inf
        assert conditional_risk(loss, 0.0, -math.inf) == 0.0

    def test_rejects_eta_outside_unit_interval(self):
        loss = uneven("hinge", gamma=1.0)
        with pytest.raises(DomainError):
            conditional_risk(loss, 1.2, 0.0)

    def test_undeclared_limit_raises(self):
        partial = PartialLoss(fn=lambda t: t * t, value_at_zero=0.0, is_convex=True)
        with pytest.raises(UnsupportedLimitError):
            partial(math.inf)


class TestOptimalConditionalRisk:
    def test_uneven_hinge_closed_value(self):
        loss = uneven("hinge", gamma=2.0)
        assert optimal_conditional_risk(loss, 0.3) == pytest.approx(0.45, abs=1e-12)

    def test_uneven_squared_symmetric(self):
        loss = uneven("squared", gamma=1.0)
        assert optimal_conditional_risk(loss, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_closed_path_matches_numeric_path(self):
        for family in ("hinge", "squared", "exponential", "sigmoid"):
            loss = uneven(family, gamma=2.0)
            plain = untagged(loss)
            for eta in (0.1, 0.3, 0.5, 0.8):
                assert optimal_conditional_risk(loss, eta) == pytest.approx(
                    optimal_conditional_risk(plain, eta), abs=1e-6
                )


class TestConstrainedOptimalRisk:
    def test_constraint_vacuous_at_threshold(self):
        loss = uneven("hinge", gamma=2.0)
        cost = CostParam(0.3)
        assert constrained_optimal_risk(loss, cost, 0.3) == pytest.approx(
            optimal_conditional_risk(loss, 0.3), abs=1e-12
        )

    def test_convex_calibrated_value_at_origin(self):
        # Calibrated at alpha = 1/2; constrained optimum sits at t = 0,
        # giving eta * L1(0) + (1 - eta) * L-1(0) = eta + (1 - eta)/gamma.
        loss = uneven("hinge", gamma=2.0)
        value = constrained_optimal_risk(loss, CostParam(0.5), 0.3)
        assert value == pytest.approx(0.65, abs=1e-12)

    def test_shortcut_agrees_with_constrained_search(self):
        # The analytic value must match the brute-force constrained search.
        for family in ("hinge", "squared", "exponential"):
            for alpha in (0.2, 0.5, 0.8):
                loss = uneven(family, gamma=2.0, alpha_weight=alpha)
                cost = CostParam(alpha)
                for eta in (0.05, 0.3, 0.6, 0.95):
                    shortcut = constrained_optimal_risk(loss, cost, eta)
                    constraint = (
                        "nonpositive_scores" if eta > alpha else "nonnegative_scores"
                    )
                    searched = brute_force_min(loss, eta, constraint).value
                    assert shortcut == pytest.approx(searched, abs=1e-6)

    def test_sigmoid_closed_branch(self):
        from costcal import ALPHA_SIGMOID_GAMMA2

        loss = uneven("sigmoid", gamma=2.0)
        cost = CostParam(ALPHA_SIGMOID_GAMMA2)
        assert constrained_optimal_risk(loss, cost, 0.2) == pytest.approx(0.3, abs=1e-12)



def quadratic_partial(d: float) -> PartialLoss:
    """1 + d*t + t^2: convex, with derivative d at 0."""
    return PartialLoss(
        fn=lambda t: 1.0 + d * t + t * t, value_at_zero=1.0, is_convex=True, deriv_at_zero=d
    )


#: Derivatives at 0 of either sign: zero, subnormal or tiny, and moderate.
DERIVATIVES = st.builds(
    lambda m, s: s * m,
    st.one_of(st.just(0.0), st.floats(1e-320, 1e-300), st.floats(1e-3, 10.0)),
    st.sampled_from([1.0, -1.0]),
)


class TestDerivativeTest:
    """One derivative test serves the analytic verdict and the C^- shortcut."""

    @settings(max_examples=60, deadline=None)
    @given(
        d1=DERIVATIVES,
        d2=DERIVATIVES,
        alpha=st.floats(0.01, 0.99),
        tangent=st.booleans(),
        eta=st.floats(0.0, 1.0),
    )
    @example(d1=-1e-305, d2=1.0000001e-305, alpha=0.5, tangent=False, eta=0.3)
    def test_shortcut_iff_analytic_verdict_calibrated(self, d1, d2, alpha, tangent, eta):
        if tangent and d1 != d2 and 0.0 < d2 / (d2 - d1) < 1.0:
            alpha = d2 / (d2 - d1)  # where the weighted combination vanishes
        assume(eta != alpha)
        loss, calls = counted(Loss(quadratic_partial(d1), quadratic_partial(d2)))
        cost = CostParam(alpha)
        calibrated = check_calibrated_analytic(loss, cost).verdict == "calibrated"
        for posteriors in (eta, np.array([eta])):
            calls.clear()
            constrained_optimal_risk(loss, cost, posteriors)
            assert (not calls) == calibrated

    def test_subnormal_tangent_takes_the_shortcut(self):
        loss, calls = counted(Loss(quadratic_partial(-1e-305), quadratic_partial(1.0000001e-305)))
        cost = CostParam(0.5)
        assert check_calibrated_analytic(loss, cost).verdict == "calibrated"
        assert constrained_optimal_risk(loss, cost, 0.3) == 1.0
        assert calls == []


class TestHAlpha:
    def test_weighted_hinge_above_threshold(self):
        loss = uneven("hinge", gamma=2.0, alpha_weight=0.3)
        assert h_alpha(loss, CostParam(0.3), 0.5) == pytest.approx(0.2, abs=1e-10)

    def test_weighted_hinge_below_threshold(self):
        loss = uneven("hinge", gamma=2.0, alpha_weight=0.3)
        assert h_alpha(loss, CostParam(0.3), 0.1) == pytest.approx(0.1, abs=1e-10)

    def test_zero_at_threshold(self):
        for family in ("hinge", "squared", "exponential"):
            loss = uneven(family, gamma=2.0, alpha_weight=0.3)
            assert h_alpha(loss, CostParam(0.3), 0.3) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("family", ["hinge", "squared", "exponential", "sigmoid"])
    @pytest.mark.parametrize("kind", ["untagged", "tagged", "weighted"])
    def test_exactly_zero_at_alpha_with_nothing_evaluated(self, family, kind):
        # The constraint is vacuous at eta == alpha, so the gap is 0 by
        # definition: a float call runs no search and no closed form there.
        alpha = 0.3
        loss = uneven(family, gamma=2.0, alpha_weight=alpha if kind == "weighted" else None)
        loss, calls = counted(untagged(loss) if kind == "untagged" else loss)
        cost = CostParam(alpha)
        value = h_alpha(loss, cost, alpha)
        assert value == 0.0 and isinstance(value, float)
        assert calls == []
        values = h_alpha(loss, cost, np.array([0.1, alpha, 0.9]))
        assert values[1] == 0.0

    def test_nonnegative_on_grid(self):
        loss = uneven("squared", gamma=2.0, alpha_weight=0.4)
        cost = CostParam(0.4)
        for eta in ETA_GRID:
            assert h_alpha(loss, cost, float(eta)) >= 0.0


class TestHCc:
    def test_uneven_hinge(self):
        loss = uneven("hinge", gamma=2.0)
        assert h_cc(loss, 0.3) == pytest.approx(0.2, abs=1e-10)

    def test_uneven_squared(self):
        loss = uneven("squared", gamma=1.0)
        assert h_cc(loss, 0.75) == pytest.approx(0.25, abs=1e-10)

    def test_zero_at_half(self):
        loss = uneven("exponential", gamma=2.0)
        assert h_cc(loss, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_matches_h_alpha_at_half(self):
        loss = uneven("squared", gamma=2.0)
        cost = CostParam(0.5)
        for eta in (0.1, 0.4, 0.8):
            assert h_cc(loss, eta) == h_alpha(loss, cost, eta)


class TestCostRegret:
    def test_wrong_sign_pays_distance(self):
        assert cost_regret(CostParam(0.3), 0.8, -1.0) == pytest.approx(0.5)

    def test_right_sign_is_free(self):
        assert cost_regret(CostParam(0.3), 0.8, 1.0) == 0.0

    def test_zero_at_threshold(self):
        cost = CostParam(0.3)
        for t in (-1.0, 0.0, 1.0, math.inf, -math.inf):
            assert cost_regret(cost, 0.3, t) == 0.0

    def test_zero_score_counts_as_negative(self):
        # sign(0) = -1: a zero score is the negative decision.
        assert cost_regret(CostParam(0.3), 0.8, 0.0) == pytest.approx(0.5)
        assert cost_regret(CostParam(0.3), 0.1, 0.0) == 0.0

    def test_infinite_scores(self):
        assert cost_regret(CostParam(0.3), 0.8, math.inf) == 0.0
        assert cost_regret(CostParam(0.3), 0.8, -math.inf) == pytest.approx(0.5)


class TestAlphaTransform:
    def test_uniform_scaling_at_half(self):
        base = uneven("hinge", gamma=1.0, beta=1.0)
        scaled = alpha_transform(base, CostParam(0.5))
        for t in (-2.0, -0.5, 0.0, 0.5, 2.0):
            assert scaled.pos(t) == pytest.approx(0.5 * base.pos(t), abs=1e-15)
            assert scaled.neg(t) == pytest.approx(0.5 * base.neg(t), abs=1e-15)

    def test_derivative_scales(self):
        base = uneven("hinge", gamma=1.0, beta=1.0)
        scaled = alpha_transform(base, CostParam(0.3))
        assert scaled.pos.deriv_at_zero == pytest.approx(-0.7, abs=1e-15)

    def test_composed_transforms_scale_by_alpha_times_one_minus_alpha(self):
        base = uneven("squared", gamma=2.0)
        alpha = 0.3
        twice = alpha_transform(
            alpha_transform(base, CostParam(1.0 - alpha)), CostParam(alpha)
        )
        c = alpha * (1.0 - alpha)
        for t in (-1.5, 0.0, 0.7):
            assert twice.pos(t) == pytest.approx(c * base.pos(t), abs=1e-14)
            assert twice.neg(t) == pytest.approx(c * base.neg(t), abs=1e-14)

    def test_family_tag_survives_one_weighting(self):
        base = uneven("hinge", gamma=2.0)
        once = alpha_transform(base, CostParam(0.4))
        assert once.family is not None
        assert once.family.alpha_weight == 0.4
        # A second weighting has no family-level representation.
        assert alpha_transform(once, CostParam(0.3)).family is None


class TestThetaAlpha:
    def test_threshold_maps_to_half(self):
        for alpha in (0.1, 0.3, 0.7):
            assert theta_alpha(CostParam(alpha), alpha).theta == pytest.approx(0.5)

    def test_identity_at_half(self):
        for eta in ETA_GRID:
            assert theta_alpha(CostParam(0.5), float(eta)).theta == pytest.approx(
                float(eta), abs=1e-15
            )

    def test_direct_substitution(self):
        theta, w = theta_alpha(CostParam(0.3), 0.5)
        assert theta == pytest.approx(0.7, abs=1e-15)
        assert w == pytest.approx(0.5, abs=1e-15)

    def test_sign_identity(self):
        for alpha in (0.2, 0.5, 0.8):
            cost = CostParam(alpha)
            for eta in ETA_GRID:
                theta, w = theta_alpha(cost, float(eta))
                assert w > 0.0
                assert sign(2.0 * theta - 1.0) == sign(float(eta) - alpha)


class TestStructuralInvariants:
    def test_risk_dominates_optimum(self):
        loss = uneven("squared", gamma=2.0)
        for eta in ETA_GRID:
            eta = float(eta)
            c_star = optimal_conditional_risk(loss, eta)
            for t in (-5.0, -1.0, 0.0, 1.0, 5.0, math.inf):
                assert conditional_risk(loss, eta, t) >= c_star - 1e-9

    def test_constrained_dominates_optimum(self):
        loss = uneven("hinge", gamma=2.0, alpha_weight=0.3)
        cost = CostParam(0.3)
        for eta in ETA_GRID:
            eta = float(eta)
            assert constrained_optimal_risk(loss, cost, eta) >= (
                optimal_conditional_risk(loss, eta) - 1e-9
            )

    @pytest.mark.parametrize("family", ["hinge", "squared", "exponential", "sigmoid"])
    def test_optimal_risk_concave(self, family):
        loss = uneven(family, gamma=2.0)
        values = [optimal_conditional_risk(loss, float(e)) for e in ETA_GRID]
        for i in range(1, len(values) - 1):
            assert values[i] >= 0.5 * (values[i - 1] + values[i + 1]) - 1e-9

    def test_constrained_risk_concave_on_each_side(self):
        loss = uneven("hinge", gamma=2.0, alpha_weight=0.4)
        cost = CostParam(0.4)
        below = np.linspace(0.0, 0.4, 11)
        above = np.linspace(0.4, 1.0, 11)
        for grid in (below, above):
            values = [constrained_optimal_risk(loss, cost, float(e)) for e in grid]
            for i in range(1, len(values) - 1):
                assert values[i] >= 0.5 * (values[i - 1] + values[i + 1]) - 1e-9

    @pytest.mark.parametrize("family", ["hinge", "squared", "exponential"])
    def test_reweighting_identity(self, family):
        # H of the weighted loss factors through the posterior
        # reparametrization: H_{L_a,a}(eta) = w(eta) * H_L(theta(eta)).
        for gamma in (0.5, 2.0):
            base = uneven(family, gamma=gamma)
            for alpha in (0.3, 0.6):
                weighted = uneven(family, gamma=gamma, alpha_weight=alpha)
                cost = CostParam(alpha)
                for eta in ETA_GRID:
                    eta = float(eta)
                    theta, w = theta_alpha(cost, eta)
                    assert h_alpha(weighted, cost, eta) == pytest.approx(
                        w * h_cc(base, theta), abs=1e-10
                    )

    @pytest.mark.parametrize("family", ["hinge", "squared", "exponential", "sigmoid"])
    def test_margin_symmetry(self, family):
        # beta = gamma = 1 margin losses have a gap symmetric about 1/2.
        loss = uneven(family, gamma=1.0, beta=1.0)
        for eta in np.linspace(0.0, 0.5, 11):
            eta = float(eta)
            assert h_cc(loss, eta) == pytest.approx(h_cc(loss, 1.0 - eta), abs=1e-9)
