"""Gap curves, lower convex envelopes, and the regret-bound transfer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costcal import (
    ConvexEnvelope,
    CostParam,
    DomainError,
    Knot,
    SampledCurve,
    VacuousBoundError,
    biconjugate,
    check_calibrated_analytic,
    envelope_eval,
    envelope_invert,
    jump_at_bmin,
    nu_curve,
    psi_costinsensitive,
    regret_bound,
)

from conftest import knot_curves, uneven


def knot_value(curve: SampledCurve, eps: float, side: str = "both") -> float:
    for k in curve.knots:
        if k.eps == eps and k.side == side:
            return k.value
    raise AssertionError(f"no knot at eps={eps} side={side}")


def hand_curve(points, domain_max=None) -> SampledCurve:
    knots = tuple(Knot(x, v, "both") for x, v in points)
    return SampledCurve(domain_max=domain_max or points[-1][0], knots=knots)


HULL_EXAMPLE = ConvexEnvelope(hull_knots=((0.0, 0.0), (0.3, 0.15), (0.7, 0.7)))


class TestNuCurve:
    def test_weighted_hinge_values(self):
        loss = uneven("hinge", gamma=2.0, alpha_weight=0.3)
        curve = nu_curve(loss, CostParam(0.3), grid_size=8, extra_knots=(0.2, 0.5))
        assert knot_value(curve, 0.2) == pytest.approx(0.1, abs=1e-10)
        assert knot_value(curve, 0.5) == pytest.approx(0.5, abs=1e-10)
        assert knot_value(curve, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert curve.domain_max == 0.7

    def test_knots_sorted_with_mandatory_points(self):
        loss = uneven("squared", gamma=2.0, alpha_weight=0.4)
        curve = nu_curve(loss, CostParam(0.4), grid_size=17)
        eps = [k.eps for k in curve.knots]
        assert eps == sorted(eps)
        assert eps[0] == 0.0
        assert eps[-1] == 0.6
        sides = [(k.eps, k.side) for k in curve.knots if k.eps == 0.4]
        assert sides == [(0.4, "left"), (0.4, "right")]

    def test_extra_knots_are_sampled_exactly(self):
        loss = uneven("hinge", gamma=2.0, alpha_weight=0.3)
        curve = nu_curve(loss, CostParam(0.3), grid_size=7, extra_knots=(0.123,))
        assert any(k.eps == 0.123 for k in curve.knots)

    def test_extra_knots_clipped_to_domain(self):
        loss = uneven("hinge", gamma=2.0, alpha_weight=0.3)
        curve = nu_curve(loss, CostParam(0.3), grid_size=7, extra_knots=(-1.0, 2.0))
        assert all(0.0 <= k.eps <= 0.7 for k in curve.knots)

    def test_rejects_tiny_grid(self):
        loss = uneven("hinge", gamma=2.0, alpha_weight=0.3)
        with pytest.raises(DomainError):
            nu_curve(loss, CostParam(0.3), grid_size=2)


class TestJumpAtBmin:
    def test_hinge_jump_below_half(self):
        loss = uneven("hinge", gamma=2.0, alpha_weight=0.3)
        has_jump, left, right = jump_at_bmin(nu_curve(loss, CostParam(0.3), 101))
        assert has_jump
        assert left == pytest.approx(0.15, abs=1e-10)
        assert right == pytest.approx(0.3, abs=1e-10)

    def test_hinge_no_jump_above_half(self):
        loss = uneven("hinge", gamma=2.0, alpha_weight=0.7)
        has_jump, left, right = jump_at_bmin(nu_curve(loss, CostParam(0.7), 101))
        assert not has_jump
        assert left == pytest.approx(right, abs=1e-10)

    def test_no_jump_at_symmetric_cost(self):
        loss = uneven("hinge", gamma=1.0, alpha_weight=0.5)
        has_jump, _, _ = jump_at_bmin(nu_curve(loss, CostParam(0.5), 101))
        assert not has_jump

    def test_missing_pair_raises(self):
        with pytest.raises(DomainError):
            jump_at_bmin(hand_curve([(0.0, 0.0), (0.5, 0.5)]))


class TestBiconjugate:
    def test_convex_input_is_fixed_point(self):
        loss = uneven("hinge", gamma=1.0, alpha_weight=0.5)
        env = biconjugate(nu_curve(loss, CostParam(0.5), 501))
        for eps in (0.0, 0.1, 0.25, 0.4, 0.5):
            assert envelope_eval(env, eps) == pytest.approx(eps, abs=1e-9)

    def test_hull_of_exact_jump_knots(self):
        curve = SampledCurve(
            domain_max=0.7,
            knots=(
                Knot(0.0, 0.0, "both"),
                Knot(0.3, 0.15, "left"),
                Knot(0.3, 0.3, "right"),
                Knot(0.7, 0.7, "both"),
            ),
        )
        env = biconjugate(curve)
        assert env.hull_knots == ((0.0, 0.0), (0.3, 0.15), (0.7, 0.7))
        assert envelope_eval(env, 0.5) == pytest.approx(0.425, abs=1e-12)

    def test_squared_margin_envelope_is_quadratic(self):
        loss = uneven("squared", gamma=1.0, beta=1.0)
        env = biconjugate(nu_curve(loss, CostParam(0.5), 2001))
        for eps in np.linspace(0.0, 0.5, 26):
            eps = float(eps)
            assert envelope_eval(env, eps) == pytest.approx(4.0 * eps * eps, abs=1e-6)

    def test_needs_two_knots(self):
        with pytest.raises(DomainError):
            biconjugate(SampledCurve(domain_max=0.0, knots=(Knot(0.0, 0.0, "both"),)))

    def test_idempotent(self):
        loss = uneven("hinge", gamma=2.0, alpha_weight=0.3)
        env = biconjugate(nu_curve(loss, CostParam(0.3), 201))
        again = biconjugate(hand_curve(list(env.hull_knots)))
        assert again.hull_knots == env.hull_knots

    @given(
        st.lists(
            st.tuples(
                st.floats(0.001, 1.0),
                st.floats(0.0, 5.0),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_hull_properties_on_random_curves(self, points):
        points = [(0.0, 0.0)] + sorted(points)
        curve = hand_curve(points, domain_max=points[-1][0])
        env = biconjugate(curve)
        # Minorant at every knot, convex, nondecreasing, zero at zero.
        assert env.hull_knots[0] == (0.0, 0.0)
        for x, v in points:
            assert envelope_eval(env, x) <= v + 1e-12
        xs = [k[0] for k in env.hull_knots]
        ys = [k[1] for k in env.hull_knots]
        slopes = [
            (y2 - y1) / (x2 - x1)
            for (x1, y1), (x2, y2) in zip(env.hull_knots, env.hull_knots[1:])
        ]
        assert all(s2 >= s1 - 1e-12 for s1, s2 in zip(slopes, slopes[1:]))
        assert all(y2 >= y1 for y1, y2 in zip(ys, ys[1:]))
        assert xs == sorted(xs)


def reference_hull(curve: SampledCurve) -> tuple[tuple[float, float], ...]:
    """Lower hull by the textbook monotone chain with a cross-product helper."""

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    hull: list[tuple[float, float]] = []
    for p in sorted((k.eps, k.value) for k in curve.knots):
        while len(hull) >= 2 and cross(hull[-2], hull[-1], p) <= 0.0:
            hull.pop()
        hull.append(p)
    while len(hull) >= 2 and hull[-1][0] == hull[-2][0]:
        hull.pop()
    return tuple(hull)


class TestBiconjugateReference:
    @given(knot_curves())
    @settings(max_examples=200, deadline=None)
    def test_equals_reference_chain(self, curve):
        assert biconjugate(curve).hull_knots == reference_hull(curve)

    def test_equals_reference_on_family_curves(self):
        for family in ("hinge", "squared", "exponential"):
            loss = uneven(family, gamma=2.0, alpha_weight=0.3)
            curve = nu_curve(loss, CostParam(0.3), 201, extra_knots=(0.05, 0.4))
            assert biconjugate(curve).hull_knots == reference_hull(curve)


class TestEnvelopeEval:
    def test_knot_values(self):
        assert envelope_eval(HULL_EXAMPLE, 0.3) == pytest.approx(0.15, abs=1e-15)
        assert envelope_eval(HULL_EXAMPLE, 0.0) == 0.0

    def test_interpolation(self):
        assert envelope_eval(HULL_EXAMPLE, 0.5) == pytest.approx(0.425, abs=1e-12)

    @pytest.mark.parametrize("eps", [-0.1, 0.71, 5.0])
    def test_domain(self, eps):
        with pytest.raises(DomainError):
            envelope_eval(HULL_EXAMPLE, eps)


class TestEnvelopeInvert:
    def test_inverse_at_knot(self):
        assert envelope_invert(HULL_EXAMPLE, 0.15) == pytest.approx(0.3, abs=1e-12)

    def test_zero_maps_to_zero_when_strictly_increasing(self):
        assert envelope_invert(HULL_EXAMPLE, 0.0) == 0.0

    def test_clamps_at_domain_max(self):
        assert envelope_invert(HULL_EXAMPLE, 10.0) == 0.7

    def test_flat_segment_returns_right_endpoint(self):
        env = ConvexEnvelope(hull_knots=((0.0, 0.0), (0.2, 0.0), (0.5, 0.6)))
        assert envelope_invert(env, 0.0) == pytest.approx(0.2, abs=1e-12)

    def test_negative_target_rejected(self):
        with pytest.raises(DomainError):
            envelope_invert(HULL_EXAMPLE, -0.01)

    def test_invert_of_eval_does_not_shrink(self):
        for eps in np.linspace(0.0, 0.7, 15):
            eps = float(eps)
            y = envelope_eval(HULL_EXAMPLE, eps)
            assert envelope_invert(HULL_EXAMPLE, y) >= eps - 1e-12


class TestRegretBound:
    def test_weighted_margin_hinge_clamps_at_domain(self):
        # nu is the identity here, so the bound is min(regret, B).
        loss = uneven("hinge", gamma=1.0, alpha_weight=0.3)
        assert regret_bound(loss, CostParam(0.3), 1.2) == pytest.approx(0.7, abs=1e-9)

    def test_zero_surrogate_regret(self):
        loss = uneven("hinge", gamma=1.0, alpha_weight=0.3)
        assert regret_bound(loss, CostParam(0.3), 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_squared_margin_inverse_square_root(self):
        loss = uneven("squared", gamma=1.0, beta=1.0)
        assert regret_bound(loss, CostParam(0.5), 0.04) == pytest.approx(0.1, abs=1e-6)

    def test_uncalibrated_loss_is_vacuous(self):
        loss = uneven("hinge", gamma=2.0, beta=1.0)
        with pytest.raises(VacuousBoundError):
            regret_bound(loss, CostParam(0.5), 0.1)

    def test_negative_regret_rejected(self):
        loss = uneven("hinge", gamma=1.0, alpha_weight=0.3)
        with pytest.raises(DomainError):
            regret_bound(loss, CostParam(0.3), -0.1)


class TestPsiCostInsensitive:
    def test_squared_margin_classic_bound(self):
        loss = uneven("squared", gamma=1.0, beta=1.0)
        assert psi_costinsensitive(loss, 0.5) == pytest.approx(0.25, abs=1e-6)

    def test_hinge_margin_linear(self):
        loss = uneven("hinge", gamma=1.0, beta=1.0)
        assert psi_costinsensitive(loss, 0.5) == pytest.approx(0.5, abs=1e-6)

    def test_zero_at_zero(self):
        loss = uneven("exponential", gamma=1.0, beta=1.0)
        assert psi_costinsensitive(loss, 0.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("eps", [-0.1, 1.1])
    def test_domain(self, eps):
        loss = uneven("squared", gamma=1.0, beta=1.0)
        with pytest.raises(DomainError):
            psi_costinsensitive(loss, eps)


class TestInvertibilityMatchesCalibration:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("family", ["hinge", "squared", "exponential"])
    def test_hull_strictly_increasing_iff_calibrated(self, family, alpha):
        cost = CostParam(alpha)
        for weighted in (False, True):
            loss = uneven(
                family, gamma=2.0, alpha_weight=alpha if weighted else None
            )
            verdict = check_calibrated_analytic(loss, cost).verdict
            env = biconjugate(nu_curve(loss, cost, 201))
            ys = [k[1] for k in env.hull_knots]
            strictly_increasing = len(ys) >= 2 and all(
                b > a for a, b in zip(ys, ys[1:])
            )
            assert strictly_increasing == (verdict == "calibrated")
