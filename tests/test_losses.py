"""Conditional risks, constrained optima, gaps, and the reweighting transform."""

import math
from dataclasses import replace

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
    alpha_of_gamma,
    alpha_transform,
    check_calibrated_analytic,
    conditional_risk,
    constrained_optimal_risk,
    cost_regret,
    h_alpha,
    optimal_conditional_risk,
    regret_bound,
    theta_alpha,
)
from costcal import oracle
from costcal.losses import sign
from costcal.oracle import brute_force_min

from conftest import (
    HALF_LINE,
    INFINITE_ON_NEGATIVES,
    cost_sensitive_loss,
    counted,
    evaluations,
    uneven,
    untagged,
)

ETA_GRID = np.linspace(0.0, 1.0, 21)
HALF = CostParam(0.5)


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

    @pytest.mark.parametrize("alpha", [None, "0.3", [0.3]])
    def test_rejects_an_alpha_that_is_no_number(self, alpha):
        with pytest.raises(DomainError, match="alpha must be a number"):
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


class TestPosteriorThatIsNoNumber:
    """A posterior that is neither a number nor an ndarray raises
    ``DomainError``, not the comparison's ``TypeError``."""

    @pytest.mark.parametrize("eta", [[0.2, 0.4], "0.3", None])
    @pytest.mark.parametrize("tagged", [True, False])
    def test_optima_and_gap_raise_domain_error(self, eta, tagged):
        loss, cost = uneven("hinge", gamma=2.0), CostParam(0.3)
        loss = loss if tagged else untagged(loss)
        requests = (
            lambda: optimal_conditional_risk(loss, eta),
            lambda: constrained_optimal_risk(loss, cost, eta),
            lambda: h_alpha(loss, cost, eta),
        )
        for request in requests:
            with pytest.raises(DomainError, match="eta must be a number"):
                request()

    @pytest.mark.parametrize("t", [math.nan, np.float64(math.nan)])
    def test_rejects_nan_score(self, t):
        loss = uneven("hinge", gamma=1.0)
        with pytest.raises(DomainError, match="score must lie in .*, got nan"):
            conditional_risk(loss, 0.3, t)

    @pytest.mark.parametrize("t", [None, "0.3", [0.3]])
    def test_score_that_is_no_number_raises_domain_error(self, t):
        loss, cost = uneven("hinge", gamma=2.0), CostParam(0.3)
        for request in (lambda: conditional_risk(loss, 0.3, t), lambda: cost_regret(cost, 0.2, t)):
            with pytest.raises(DomainError, match="score must be a number"):
                request()

    def test_undeclared_limit_raises(self):
        partial = PartialLoss(fn=lambda t: t * t, is_convex=True)
        with pytest.raises(UnsupportedLimitError):
            partial(math.inf)

    def test_undeclared_limit_at_minus_inf_raises(self):
        partial = PartialLoss(
            fn=lambda t: t * t, is_convex=True, limit_pos_inf=math.inf
        )
        with pytest.raises(UnsupportedLimitError, match="no declared limit at -inf"):
            partial(-math.inf)


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
    return PartialLoss(fn=lambda t: 1.0 + d * t + t * t, is_convex=True, deriv_at_zero=d)


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
            # The shortcut reads each partial at the score 0 alone, once.
            searched = any(isinstance(t, np.ndarray) or t != 0.0 for t in calls)
            assert searched != calibrated

    def test_the_shortcut_reads_the_partials_at_zero(self):
        # A hand-built squared loss (beta = gamma = 1), calibrated at 1/2: C^-
        # is the risk at 0, from fn.  A declared value of 0.5 there, once
        # trusted, gave C^- 0.5 below C* 0.64, a gap of 0 and a bound of 0.357.
        loss = Loss(
            pos=PartialLoss(lambda t: (1.0 - t) ** 2, is_convex=True, deriv_at_zero=-2.0),
            neg=PartialLoss(lambda t: (1.0 + t) ** 2, is_convex=True, deriv_at_zero=2.0),
        )
        cost = CostParam(0.5)
        assert constrained_optimal_risk(loss, cost, 0.2) == 1.0
        assert h_alpha(loss, cost, 0.2) == pytest.approx(0.36, abs=1e-9)
        assert regret_bound(loss, cost, 0.01) == pytest.approx(0.05, rel=1e-9)

    def test_subnormal_tangent_takes_the_shortcut(self):
        loss, calls = counted(Loss(quadratic_partial(-1e-305), quadratic_partial(1.0000001e-305)))
        cost = CostParam(0.5)
        assert check_calibrated_analytic(loss, cost).verdict == "calibrated"
        assert constrained_optimal_risk(loss, cost, 0.3) == 1.0
        assert calls == [0.0, 0.0]


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


class TestGapAtHalf:
    """The cost-insensitive gap: H at alpha = 1/2."""

    def test_uneven_hinge(self):
        loss = uneven("hinge", gamma=2.0)
        assert h_alpha(loss, HALF, 0.3) == pytest.approx(0.2, abs=1e-10)

    def test_uneven_squared(self):
        loss = uneven("squared", gamma=1.0)
        assert h_alpha(loss, HALF, 0.75) == pytest.approx(0.25, abs=1e-10)

    def test_zero_at_half(self):
        loss = uneven("exponential", gamma=2.0)
        assert h_alpha(loss, HALF, 0.5) == pytest.approx(0.0, abs=1e-12)


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

    @pytest.mark.parametrize("eta", [0.1, 0.3, 0.8])
    def test_rejects_nan_score(self, eta):
        # sign(nan) is -1, so a NaN score would read as the negative decision.
        with pytest.raises(DomainError, match="score must lie in .*, got nan"):
            cost_regret(CostParam(0.3), eta, math.nan)


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

    @pytest.mark.parametrize("family", ["hinge", "squared", "exponential", "sigmoid"])
    @pytest.mark.parametrize("gamma", [0.3, 2.0, 3.0])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.7])
    def test_tagged_member_becomes_the_weighted_member(self, family, gamma, alpha):
        # One tag names one loss: the partials, metadata and gaps are bit for
        # bit those make_uneven_loss builds for the weighted tag (beta = 1/gamma;
        # the gamma = 2 sigmoid is its calibrated member).
        cost = CostParam(alpha)
        got = alpha_transform(uneven(family, gamma), cost)
        want = uneven(family, gamma, alpha_weight=alpha)
        assert got.family == want.family
        scores = np.linspace(-50.0, 50.0, 2001)
        for mine, theirs in ((got.pos, want.pos), (got.neg, want.neg)):
            assert replace(mine, fn=theirs.fn) == theirs
            assert mine.value_at_zero.hex() == theirs.value_at_zero.hex()
            assert np.array_equal(mine.fn(scores), theirs.fn(scores))
            assert [mine(t) for t in scores.tolist()] == [theirs(t) for t in scores.tolist()]
        etas = np.linspace(0.0, 1.0, 101)
        assert np.array_equal(h_alpha(got, cost, etas), h_alpha(want, cost, etas))

    def test_underflowing_member_weight_is_rejected(self):
        # As make_uneven_loss does for --weighted: alpha * beta rounds to 0.
        with pytest.raises(DomainError, match="underflows"):
            alpha_transform(uneven("hinge", gamma=1.0, beta=5e-324), CostParam(0.3))


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


#: One case per branch of the closed-or-search chooser: (loss, alpha, whether
#: C* is closed, whether C^- is closed off alpha).
#: A tagged convex loss is closed at every alpha, so the searched branches
#: take the gamma = 2 sigmoid off its alpha and untagged copies.
CHOOSER_BRANCHES = {
    "both closed": (uneven("hinge", gamma=2.0), 0.5, True, True),
    "C^- searched": (uneven("sigmoid", gamma=2.0, alpha_weight=0.3), 0.3, True, False),
    "C* searched": (untagged(uneven("squared", gamma=2.0, beta=0.7)), 1.4 / 2.4, False, True),
    "both searched": (untagged(uneven("sigmoid", gamma=3.0)), 0.3, False, False),
}


class TestVerdictGaps:
    """The numeric verdict's gaps (``oracle._verdict_gaps``): where C* is
    searched, a floor never above the gap rules posteriors out; every gap
    searched is ``h_alpha``'s, bit for bit, and every gap ruled out lies
    above both the tolerance and the least gap found.

    Private by need: the verdict reports its witnesses, and no public call
    returns the gaps it searched, ruled out or floored."""

    FLOORED = {
        "C* searched": CHOOSER_BRANCHES["C* searched"][:2],
        "untagged hinge": (untagged(uneven("hinge", gamma=2.0)), 0.5),
        "untagged exponential": (
            untagged(uneven("exponential", gamma=0.25, beta=0.7, alpha_weight=0.3)),
            0.0525 / 0.7525,
        ),
        "both searched": CHOOSER_BRANCHES["both searched"][:2],
        "tagged sigmoid": (uneven("sigmoid", gamma=0.5), 0.6),
        "untagged sigmoid at alpha(3)": (untagged(uneven("sigmoid", gamma=3.0)), alpha_of_gamma(3.0)),
        "untagged sigmoid off alpha(3)": (untagged(uneven("sigmoid", gamma=3.0)), alpha_of_gamma(3.0) - 1e-4),
        "untagged squared, not calibrated": (untagged(uneven("squared", gamma=2.0)), 0.98),
        "half-line partials": (HALF_LINE, 0.3),
        "infinite on negatives": (INFINITE_ON_NEGATIVES, 0.3),
        "cost-sensitive 0-1": (cost_sensitive_loss(0.3), 0.3),
    }
    #: The cases whose C^- is searched, with C* at the posteriors nearest alpha.
    C_MINUS_SEARCHED = set(FLOORED) - {"C* searched", "untagged hinge", "untagged exponential"}
    DRAWN_ETAS = st.lists(
        st.one_of(st.sampled_from([0.0, 1e-12, 1.0 - 1e-12, 1.0]), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=40,
    )

    @settings(max_examples=30, deadline=None)
    @given(DRAWN_ETAS, st.sampled_from(sorted(FLOORED)))
    def test_the_floor_is_at_most_the_gap(self, etas, name):
        # The floor is the gap's arithmetic with the ceiling in C*'s place:
        # a ceiling at least the searched C* keeps it at most the gap.
        loss, alpha = self.FLOORED[name]
        cost = CostParam(alpha)
        etas = np.array([eta for eta in etas if eta != alpha] or [0.0])
        ceiling = oracle._c_star_ceiling(loss, etas)
        assume(ceiling is not None)  # none where a grid table holds a NaN
        assert (ceiling >= optimal_conditional_risk(loss, etas)).all()
        floor = constrained_optimal_risk(loss, cost, etas) - ceiling
        assert (np.where(0.0 > floor, 0.0, floor) <= h_alpha(loss, cost, etas)).all()

    @settings(max_examples=30, deadline=None)
    @given(DRAWN_ETAS, st.sampled_from(sorted(FLOORED)), st.sampled_from([0.0, 1e-9, 0.05]))
    def test_searched_gaps_are_exact_and_the_rest_above_the_threshold(self, etas, name, tolerance):
        alpha = self.FLOORED[name][1]
        self.check_gaps(name, np.array([eta for eta in etas if eta != alpha] or [0.0]), tolerance)

    @pytest.mark.parametrize("tolerance", [0.0, 1e-9, 0.05])
    @pytest.mark.parametrize("name", sorted(FLOORED))
    def test_on_the_verdict_s_coarse_grid(self, name, tolerance):
        # The posteriors of a verdict at grid 1001: alpha's neighbourhood
        # removed, as ``check_calibrated_numeric`` does, so that C^-'s chords
        # span 32 posteriors each.
        alpha = self.FLOORED[name][1]
        grid = np.linspace(0.0, 1.0, 1001)
        self.check_gaps(name, grid[np.abs(grid - alpha) > 1.0 / 2002], tolerance)

    def check_gaps(self, name, etas, tolerance):
        """The verdict's gaps on ``etas`` against ``h_alpha``'s: the searched
        ones bit for bit, the rest above the threshold, the first least gap
        found, and where C^- is searched, the posteriors nearest alpha
        searched and its chords under the searched C^-.  Where ``h_alpha``
        raises, the verdict raises the same error."""
        loss, alpha = self.FLOORED[name]
        cost = CostParam(alpha)
        try:
            gaps = h_alpha(loss, cost, etas)
        except DomainError as error:
            with pytest.raises(DomainError) as raised:
                oracle._verdict_gaps(loss, cost, etas, tolerance)
            assert str(raised.value) == str(error)
            return
        found = oracle._verdict_gaps(loss, cost, etas, tolerance)
        searched = found != np.inf
        assert found[searched].tobytes() == gaps[searched].tobytes()
        assert (gaps[~searched] > max(found.min(), tolerance)).all()
        i = int(gaps.argmin())  # the first least gap
        assert int(found.argmin()) == i and found[i].tobytes() == gaps[i].tobytes()
        if name in self.C_MINUS_SEARCHED:
            # The posteriors nearest alpha get their gaps in C^-'s search.
            nearest = np.argsort(np.abs(etas - alpha), kind="stable")[: oracle._FIRST_SEARCHED]
            assert searched[nearest].all()
            c_minus = constrained_optimal_risk(loss, cost, etas)
            knot = oracle._chord_knots(etas, alpha)
            chords = oracle._chord_floor(etas, alpha, knot, c_minus)
            assert (chords <= c_minus).all() and chords[knot].tobytes() == c_minus[knot].tobytes()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_knot_not_finite_floors_nothing_on_its_chords(self, value):
        # A C^- at a knot that is not finite gives floors of -inf between
        # it and its neighbouring knots, with no warning, and the chords of
        # finite knots elsewhere.  Private by need: no search returns a NaN.
        etas = np.arange(1.0, 100.0) / 100.0
        knot = oracle._chord_knots(etas, 0.5)
        assert etas[knot].tolist() == [0.01, 0.33, 0.49, 0.51, 0.83, 0.99]
        c_minus = np.ones(etas.shape)
        c_minus[etas == 0.33] = value
        with np.errstate(all="raise"):
            floor = oracle._chord_floor(etas, 0.5, knot, c_minus)
        assert floor[knot].tobytes() == c_minus[knot].tobytes()
        assert (floor[~knot & (etas < 0.5)] == -np.inf).all()
        above = floor[~knot & (etas > 0.5)]
        assert ((1.0 - 2e-9 < above) & (above < 1.0)).all()

    @pytest.mark.parametrize("branch", ["both closed", "C^- searched"])
    def test_every_gap_where_c_star_is_closed(self, branch):
        loss, alpha, _, _ = CHOOSER_BRANCHES[branch]
        cost = CostParam(alpha)
        etas = ETA_GRID[ETA_GRID != alpha]
        found = oracle._verdict_gaps(loss, cost, etas, 0.0)
        assert found.tobytes() == h_alpha(loss, cost, etas).tobytes()


class TestFloatAndArrayRequests:
    """C*, C^- and H on an array, alpha among the posteriors, against the
    same requests one float at a time, on each branch of the chooser."""

    @pytest.mark.parametrize("branch", sorted(CHOOSER_BRANCHES))
    def test_array_matches_floats(self, branch):
        loss, alpha, star_closed, minus_closed = CHOOSER_BRANCHES[branch]
        cost = CostParam(alpha)
        etas = np.array([0.0, 1e-12, 0.1, alpha, 0.5, 0.9, 1.0 - 1e-12, 1.0])

        def cold(request, eta):
            """``request`` at ``eta`` on a fresh counted copy of the loss, and
            what its partials saw (``evaluations``)."""
            fresh, calls = counted(loss)
            return request(fresh, eta), evaluations(calls)

        def side(eta):
            return "nonnegative_scores" if eta < alpha else "nonpositive_scores"

        # Per request: the function, and the searches it needs at a posterior.
        star = [] if star_closed else ["none"]
        requests = {
            "C*": (optimal_conditional_risk, lambda e: star),
            "C^-": (
                lambda l, e: constrained_optimal_risk(l, cost, e),
                lambda e: star if e == alpha else [] if minus_closed else [side(e)],
            ),
            "H": (
                lambda l, e: h_alpha(l, cost, e),
                lambda e: [] if e == alpha else ([] if minus_closed else [side(e)]) + star,
            ),
        }
        def at_zero(name, eta):
            """The float evaluations of an untagged loss's derivative-test
            shortcut off alpha: its two partials' ``value_at_zero``."""
            return 2 if name != "C*" and eta != alpha and minus_closed and loss.family is None else 0

        for name, (request, needs) in requests.items():
            values, (sizes, floats) = cold(request, etas)
            # An array makes no float evaluation but the shortcut's, and
            # searches where any posterior needs a search.
            searched = any(needs(e) for e in etas.tolist())
            assert floats == at_zero(name, 0.0) and bool(sizes) == searched, name
            for eta in etas.tolist():
                # A float makes the float evaluations of the searches it needs.
                value, (sizes, floats) = cold(request, eta)
                searches = [cold(lambda l, e: brute_force_min(l, e, c), eta)[1][1] for c in needs(eta)]
                assert floats == sum(searches) + at_zero(name, eta), (name, eta)
                assert bool(sizes) == bool(searches), (name, eta)
                np.testing.assert_allclose(values[etas == eta], value, rtol=0.0, atol=1e-12, err_msg=name)
        # H searches no row at alpha: alpha costs it nothing.
        off = cold(lambda l, e: h_alpha(l, cost, e), etas[etas != alpha])[1]
        assert cold(lambda l, e: h_alpha(l, cost, e), etas)[1] == off

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.8])
    def test_zero_dimensional_c_minus_at_alpha_is_c_star(self, alpha):
        # Both take the closed C* of the same 0-d array, so the same bits.
        loss, at = uneven("exponential", gamma=2.0, alpha_weight=0.3), np.array(alpha)
        c_minus = constrained_optimal_risk(loss, CostParam(alpha), at)
        assert float(c_minus).hex() == float(optimal_conditional_risk(loss, at)).hex()


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
                        w * h_alpha(base, HALF, theta), abs=1e-10
                    )

    @pytest.mark.parametrize("family", ["hinge", "squared", "exponential", "sigmoid"])
    def test_margin_symmetry(self, family):
        # beta = gamma = 1 margin losses have a gap symmetric about 1/2.
        loss = uneven(family, gamma=1.0, beta=1.0)
        for eta in np.linspace(0.0, 0.5, 11):
            eta = float(eta)
            assert h_alpha(loss, HALF, eta) == pytest.approx(h_alpha(loss, HALF, 1.0 - eta), abs=1e-9)
