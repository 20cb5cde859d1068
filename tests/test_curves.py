"""Gap curves, lower convex envelopes, and the regret-bound transfer."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import costcal
from costcal import curves
from costcal import (
    ALPHA_SIGMOID_GAMMA2,
    FAMILIES,
    ConvexEnvelope,
    CostParam,
    DomainError,
    Knot,
    Loss,
    PartialLoss,
    SampledCurve,
    VacuousBoundError,
    biconjugate,
    check_calibrated_analytic,
    envelope_eval,
    envelope_invert,
    jump_at_bmin,
    mu_curve,
    nu_curve,
    psi_costinsensitive,
    regret_bound,
)

from conftest import (
    collinear_curves,
    curve_bits,
    curve_of,
    knot_curves,
    long_curves,
    reference_mu,
    uneven,
)


def knot_value(curve: SampledCurve, eps: float, side: str = "both") -> float:
    for k in curve.knots:
        if k.eps == eps and k.side == side:
            return k.value
    raise AssertionError(f"no knot at eps={eps} side={side}")


def hand_curve(points, domain_max=None) -> SampledCurve:
    return curve_of(domain_max or points[-1][0], ((x, v, "both") for x, v in points))


HULL_EXAMPLE = ConvexEnvelope([0.0, 0.3, 0.7], [0.0, 0.15, 0.7])


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

    def test_nan_extra_knot_rejected_before_any_gap(self, monkeypatch):
        def no_gaps(*args):
            raise AssertionError("a gap was computed")

        monkeypatch.setattr(curves, "h_alpha", no_gaps)
        loss = uneven("hinge", gamma=2.0, alpha_weight=0.3)
        for extra in ((math.nan,), (0.1, math.nan, 0.2), iter([math.nan])):
            with pytest.raises(DomainError, match="extra_knots.*nan"):
                nu_curve(loss, CostParam(0.3), 5, extra_knots=extra)

    @pytest.mark.parametrize("extra", [("a",), (0.1, None), ([0.2],)])
    def test_extra_knots_that_are_no_numbers_rejected(self, extra):
        loss = uneven("hinge", gamma=2.0, alpha_weight=0.3)
        with pytest.raises(DomainError, match="extra_knots must be numbers"):
            nu_curve(loss, CostParam(0.3), 5, extra_knots=extra)

    def test_infinite_extra_knots_clip_to_the_ends(self):
        loss = uneven("hinge", gamma=2.0, alpha_weight=0.3)
        plain = nu_curve(loss, CostParam(0.3), 5)
        clipped = nu_curve(loss, CostParam(0.3), 5, extra_knots=(math.inf, -math.inf))
        assert curve_bits(clipped) == curve_bits(plain)
        assert len(clipped.eps) == 7 and clipped.eps[[0, -1]].tolist() == [0.0, 0.7]


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
            0.7, [0.0, 0.3, 0.3, 0.7], [0.0, 0.15, 0.3, 0.7], ["both", "left", "right", "both"]
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
            biconjugate(SampledCurve(0.0, [0.0], [0.0], ["both"]))

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_nan_knot_is_a_domain_error(self, at):
        points = [(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)]
        points[at] = (points[at][0], math.nan)
        with pytest.raises(DomainError, match=f"NaN knot at eps={points[at][0]!r}"):
            biconjugate(hand_curve(points))

    def test_nan_eps_is_a_domain_error(self):
        curve = hand_curve([(0.0, 0.0), (math.nan, 0.5), (1.0, 1.0)], domain_max=1.0)
        with pytest.raises(DomainError, match="NaN knot at eps=nan"):
            biconjugate(curve)

    def test_first_nan_knot_is_named(self):
        curve = hand_curve([(0.0, 0.0), (0.75, math.nan), (0.25, math.nan), (1.0, 1.0)])
        with pytest.raises(DomainError, match="eps=0.75$"):
            biconjugate(curve)

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


def assert_hull_is_reference(env: ConvexEnvelope, curve: SampledCurve) -> None:
    """The envelope's columns and its lazily built knots are the chain's."""
    hull = reference_hull(curve)
    assert "hull_knots" not in vars(env)
    assert env.xs.tolist() == [x for x, _ in hull]
    assert env.ys.tolist() == [y for _, y in hull]
    assert env.hull_knots == hull


class TestBiconjugateReference:
    @given(knot_curves())
    @settings(max_examples=200, deadline=None)
    def test_equals_reference_chain(self, curve):
        assert_hull_is_reference(biconjugate(curve), curve)
        assert mu_curve(curve).knots == reference_mu(curve)

    @given(collinear_curves())
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_chain_on_straight_pieces(self, curve):
        # Crosses of exactly 0 must pop, as in the chain; repeated points too.
        assert_hull_is_reference(biconjugate(curve), curve)
        assert mu_curve(curve).knots == reference_mu(curve)

    @pytest.mark.parametrize("grid", [201, 2001])
    @pytest.mark.parametrize("weighted", [False, True], ids=["calibrated", "weighted"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_equals_references_on_family_curves_at_scale(self, family, weighted, grid):
        # Unweighted, the convex families calibrate at 1/2 and the sigmoid
        # (gamma = 2) at its own alpha; --weighted calibrates at alpha.
        alpha = 0.3 if weighted else (ALPHA_SIGMOID_GAMMA2 if family == "sigmoid" else 0.5)
        loss = uneven(family, gamma=2.0, alpha_weight=alpha if weighted else None)
        cost, extra = CostParam(alpha), (0.05, 0.123, alpha / 3.0)
        nu = nu_curve(loss, cost, grid, extra_knots=extra)
        assert_hull_is_reference(biconjugate(nu), nu)
        assert mu_curve(nu).knots == reference_mu(nu)

    def test_equals_reference_on_family_curves(self):
        for family in ("hinge", "squared", "exponential"):
            loss = uneven(family, gamma=2.0, alpha_weight=0.3)
            curve = nu_curve(loss, CostParam(0.3), 201, extra_knots=(0.05, 0.4))
            assert biconjugate(curve).hull_knots == reference_hull(curve)

    @pytest.mark.parametrize("grid", [201, 2001])
    @pytest.mark.parametrize("alpha", [None, 0.3, 0.7], ids=["half", "weighted-0.3", "weighted-0.7"])
    @pytest.mark.parametrize("gamma", [0.25, 0.4, 4.0])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_equals_reference_across_gammas_and_costs(self, family, gamma, alpha, grid):
        # Unweighted members at alpha = 1/2; weighted ones at their alpha.
        loss = uneven(family, gamma=gamma, alpha_weight=alpha)
        nu = nu_curve(loss, CostParam(alpha or 0.5), grid)
        assert_hull_is_reference(biconjugate(nu), nu)

    def test_past_the_doubled_knot_167_knots_leave_the_hull(self):
        # Past b_min each of 167 points pops just the one before it, over
        # the same knot under the top, so 167 knots leave the hull.
        loss = uneven("squared", gamma=0.4, alpha_weight=0.7)
        nu = nu_curve(loss, CostParam(0.7), 2001)
        env = biconjugate(nu)
        assert_hull_is_reference(env, nu)
        assert nu.eps.size - env.xs.size == 167

    #: A parabola's points are pushed as one run, and a last point far below
    #: pops back past the whole run, or past most of it.  Where the
    #: parabola's first half zigzags, every other consecutive cross pops, so
    #: the chain steps through that half before the run.  On a dyadic
    #: parabola the last point lies exactly on the line through the 11th
    #: and 12th points: that cross is 0, and pops.  Over a concave curve, or
    #: after a jump up from 0, each point pops the one before it over the
    #: first point, which has none under it.  Over a concave piece after
    #: (0, 0) and (1, 1), each point pops the one before it over (1, 1),
    #: until a point on the line y = x makes a cross of exactly 0 with them,
    #: and pops (1, 1) too.
    PARABOLA = [(i / 599, (i / 599) ** 2) for i in range(600)]
    ZIGZAG = [(x, y + 1e-3 * (i % 2 and i < 300)) for i, (x, y) in enumerate(PARABOLA)]
    CASCADES = {
        "past-the-run": PARABOLA + [(1.01, -1.0)],
        "into-the-run": PARABOLA + [(1.01, 0.5)],
        "into-the-run-after-a-zigzag": ZIGZAG + [(1.01, 0.5)],
        "onto-a-line": [(k / 64, (k / 64) ** 2) for k in range(201)] + [(4.0, 1.28564453125)],
        "over-a-concave-curve": [(i / 999, (i / 999) ** 0.5) for i in range(1000)],
        "after-a-jump": [(0.0, 0.0)] + [(i / 999, 1 + (i / 999) ** 2) for i in range(1, 1000)],
        "onto-the-line-under-the-top": [(0.0, 0.0), (1.0, 1.0)]
        + [(1 + i / 64, 1 + 2 * (i / 64) ** 0.5) for i in range(1, 201)]
        + [(4.25 + i / 64, 4.25 + i / 16 + (i / 64) ** 2) for i in range(400)],
    }

    @pytest.mark.parametrize("name", sorted(CASCADES))
    def test_points_pop_back_into_a_pushed_run(self, name):
        curve = hand_curve(self.CASCADES[name])
        env = biconjugate(curve)
        assert_hull_is_reference(env, curve)
        if name == "past-the-run":
            assert env.hull_knots == ((0.0, 0.0), (1.01, -1.0))

    def test_knots_out_of_order_are_sorted_first(self):
        # A family curve's knots shuffled, and a jump whose left value lies
        # above its right one, sort by (eps, value) as the chain sorts them.
        nu = nu_curve(uneven("sigmoid", gamma=2.0, alpha_weight=0.3), CostParam(0.3), 2001)
        order = np.random.default_rng(7).permutation(nu.eps.size)
        shuffled = SampledCurve(nu.domain_max, nu.eps[order], nu.values[order], nu.sides[order])
        assert_hull_is_reference(biconjugate(shuffled), shuffled)
        assert biconjugate(shuffled).xs.tobytes() == biconjugate(nu).xs.tobytes()
        jump = hand_curve([(0.0, 0.0), (0.5, 0.9), (0.5, 0.2), (1.0, 1.0)])
        assert biconjugate(jump).hull_knots == ((0.0, 0.0), (0.5, 0.2), (1.0, 1.0))

    @given(long_curves())
    @settings(max_examples=60, deadline=None)
    def test_equals_reference_chain_on_long_curves(self, curve):
        assert_hull_is_reference(biconjugate(curve), curve)


class TestSampledCurveColumns:
    KNOTS = (
        Knot(0.0, 0.0, "both"),
        Knot(0.3, 0.15, "left"),
        Knot(0.3, 0.3, "right"),
        Knot(0.7, 0.7, "both"),
    )

    def test_hand_built_curve_holds_its_columns(self):
        curve = curve_of(0.7, self.KNOTS)
        assert curve.eps.dtype == curve.values.dtype == np.float64
        assert curve.sides.dtype == object
        assert curve.eps.tolist() == [0.0, 0.3, 0.3, 0.7]
        assert curve.values.tolist() == [0.0, 0.15, 0.3, 0.7]
        assert curve.sides.tolist() == ["both", "left", "right", "both"]
        assert curve.knots == self.KNOTS

    def test_arrays_of_the_column_dtype_are_not_copied(self):
        eps, values = np.array([0.0, 0.5]), np.array([0.0, 0.25])
        sides = np.array(["both", "both"], object)
        curve = SampledCurve(0.5, eps, values, sides)
        assert curve.eps is eps and curve.values is values and curve.sides is sides
        assert not eps.flags.writeable
        ints = np.array([0, 1])
        assert SampledCurve(1.0, ints, ints, sides).eps.dtype == np.float64

    def test_knots_are_built_once_from_the_columns(self):
        nu = nu_curve(uneven("squared", gamma=2.0, alpha_weight=0.3), CostParam(0.3), 11)
        assert "knots" not in vars(nu)
        knots = nu.knots
        assert nu.knots is knots
        assert all(type(k) is Knot for k in knots)
        assert all(type(k.eps) is float and type(k.value) is float for k in knots)
        assert [k.side for k in knots].count("left") == 1

    def test_columns_are_read_only(self):
        nu = nu_curve(uneven("hinge", gamma=2.0, alpha_weight=0.3), CostParam(0.3), 11)
        for curve in (nu, mu_curve(nu), curve_of(0.7, self.KNOTS)):
            for column in (curve.eps, curve.values, curve.sides):
                with pytest.raises(ValueError):
                    column[0] = column[1]
            with pytest.raises(AttributeError):
                curve.domain_max = 1.0


class TestMalformedColumns:
    """A hand-built curve or envelope is refused where it is built."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SampledCurve(0.7, [[0.0, 0.7]], [[0.0, 0.7]], [["both", "both"]]),
            lambda: SampledCurve(0.7, 0.0, [0.0], ["both"]),
            lambda: ConvexEnvelope(np.zeros((2, 2)), np.zeros((2, 2))),
        ],
        ids=["curve-2d", "curve-0d", "envelope-2d"],
    )
    def test_a_column_that_is_not_1d_is_a_domain_error(self, build):
        with pytest.raises(DomainError, match="1-d columns of one length"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SampledCurve(0.7, [0.0, 0.7], [0.0, 0.7], ["both"]),
            lambda: ConvexEnvelope([0.0, 0.3], [0.0, 0.15, 0.7]),
        ],
        ids=["curve", "envelope"],
    )
    def test_columns_of_different_lengths_are_a_domain_error(self, build):
        with pytest.raises(DomainError, match="1-d columns of one length"):
            build()

    def test_an_empty_envelope_is_a_domain_error(self):
        with pytest.raises(DomainError, match="at least one knot"):
            ConvexEnvelope([], [])


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
        env = ConvexEnvelope([0.0, 0.2, 0.5], [0.0, 0.0, 0.6])
        assert envelope_invert(env, 0.0) == pytest.approx(0.2, abs=1e-12)

    def test_negative_target_rejected(self):
        with pytest.raises(DomainError):
            envelope_invert(HULL_EXAMPLE, -0.01)

    @pytest.mark.parametrize(
        "env", [ConvexEnvelope([0.0, 1.0], [0.5, 1.0]), ConvexEnvelope([0.0], [0.3])]
    )
    def test_target_below_the_first_value_rejected(self, env):
        # No eps has env(eps) <= y: neither extrapolated (-0.8) nor NaN.
        with pytest.raises(DomainError, match="below the envelope's first value"):
            envelope_invert(env, 0.1)
        assert envelope_invert(env, env.ys[0].item()) == 0.0

    def test_invert_of_eval_does_not_shrink(self):
        for eps in np.linspace(0.0, 0.7, 15):
            eps = float(eps)
            y = envelope_eval(HULL_EXAMPLE, eps)
            assert envelope_invert(HULL_EXAMPLE, y) >= eps - 1e-12


def list_eval(env, eps):
    """envelope_eval as it was, rebuilding the knot lists at every call."""
    xs = [k[0] for k in env.hull_knots]
    ys = [k[1] for k in env.hull_knots]
    return float(np.interp(min(max(eps, xs[0]), xs[-1]), xs, ys))


def list_invert(env, y):
    """envelope_invert as it was, rebuilding the knot arrays at every call."""
    xs = np.array([k[0] for k in env.hull_knots])
    ys = np.array([k[1] for k in env.hull_knots])
    if y >= ys[-1]:
        return float(xs[-1])
    i = int(np.searchsorted(ys, y, side="right")) - 1
    slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
    return float(xs[i] + (y - ys[i]) / slope)


class TestEnvelopeArrays:
    """The envelope's columns give the list-based answers."""

    FLAT = ConvexEnvelope([0.0, 0.2, 0.5], [0.0, 0.0, 0.6])

    @staticmethod
    def envelopes():
        loss = uneven("exponential", gamma=2.0, alpha_weight=0.3)
        family = biconjugate(nu_curve(loss, CostParam(0.3), 201))
        return [HULL_EXAMPLE, TestEnvelopeArrays.FLAT, family]

    @staticmethod
    def probes(values):
        """Each knot value, the midpoints between knots, 0, and past the end."""
        mids = [(a + b) / 2.0 for a, b in zip(values, values[1:])]
        return [0.0, *values, *mids, values[-1] * 1.5 + 1.0]

    def test_eval_equals_list_eval(self):
        for env in self.envelopes():
            xs = [x for x, _ in env.hull_knots]
            for eps in self.probes(xs)[:-1] + [env.domain_max, env.domain_max + 1e-12]:
                assert envelope_eval(env, eps) == list_eval(env, eps), eps

    def test_invert_equals_list_invert(self):
        for env in self.envelopes():
            for y in self.probes([y for _, y in env.hull_knots]):
                assert envelope_invert(env, y) == list_invert(env, y), y

    def test_flat_first_segment(self):
        assert envelope_invert(self.FLAT, 0.0) == list_invert(self.FLAT, 0.0) == 0.2
        assert envelope_eval(self.FLAT, 0.1) == list_eval(self.FLAT, 0.1) == 0.0


class TestEnvelopeColumns:
    KNOT_SETS = [
        ((0.0, 0.0), (0.3, 0.15), (0.7, 0.7)),
        ((0.0, 0.0), (0.2, 0.0), (0.5, 0.6)),
        ((0.0, -0.0), (1.0, 1e-300), (1.0, math.inf)),
        ((0.0, 0.0),),
    ]

    @pytest.mark.parametrize("knots", KNOT_SETS)
    def test_hand_built_envelope_holds_its_columns(self, knots):
        xs, ys = ([k[i] for k in knots] for i in range(2))
        env = ConvexEnvelope(xs, ys)
        assert env.xs.dtype == env.ys.dtype == np.float64
        assert env.xs.tolist() == xs and env.ys.tolist() == ys
        assert env.hull_knots == knots
        assert env.domain_max == xs[-1]

    def test_built_columns_are_not_copied(self):
        nu = nu_curve(uneven("hinge", gamma=2.0, alpha_weight=0.3), CostParam(0.3), 51)
        env = biconjugate(nu)
        rebuilt = ConvexEnvelope(env.xs, env.ys)
        assert rebuilt.xs is env.xs and rebuilt.ys is env.ys
        assert rebuilt.hull_knots == env.hull_knots

    def test_columns_are_read_only(self):
        nu = nu_curve(uneven("squared", gamma=2.0, alpha_weight=0.3), CostParam(0.3), 11)
        for env in (biconjugate(nu), HULL_EXAMPLE):
            for column in (env.xs, env.ys):
                with pytest.raises(ValueError):
                    column[0] = 1.0
            with pytest.raises(AttributeError):
                env.hull_knots = ()
            with pytest.raises(AttributeError):
                env.xs = env.ys

    def test_answers_build_no_knot_tuples(self, monkeypatch):
        built = []

        def kept(curve):
            built.append(biconjugate(curve))
            return built[-1]

        monkeypatch.setattr(costcal.calibration, "biconjugate", kept)
        loss, cost = uneven("exponential", gamma=2.0, alpha_weight=0.3), CostParam(0.3)
        regret_bound(loss, cost, 0.01)
        env = built[0]
        envelope_eval(env, 0.2)
        envelope_invert(env, 0.05)
        assert env.domain_max == 0.7
        assert "hull_knots" not in vars(env)
        knots = env.hull_knots
        assert env.hull_knots is knots
        assert all(type(x) is float and type(y) is float for x, y in knots)


class TestRegretBound:
    def test_nan_gaps_are_a_domain_error(self):
        # The partials are NaN past |t| = 30, so the oracle's gaps are NaN
        # at some posteriors; the numeric verdict, and so the bound, refuse them.
        def nan_far(fn):
            return lambda t: np.where(np.abs(t) > 30.0, np.nan, fn(t))

        loss = Loss(
            pos=PartialLoss(nan_far(lambda t: np.maximum(1.0 - t, 0.0) ** 2), 1.0, False,
                            limit_neg_inf=math.inf, limit_pos_inf=0.0),
            neg=PartialLoss(nan_far(lambda t: np.maximum(1.0 + t, 0.0) ** 2), 1.0, False,
                            limit_neg_inf=0.0, limit_pos_inf=math.inf),
        )
        cost = CostParam(0.5)
        with pytest.raises(DomainError, match="conditional risk is NaN at eta="):
            costcal.check_calibrated(loss, cost)
        with pytest.raises(DomainError, match="conditional risk is NaN at eta="):
            regret_bound(loss, cost, 0.01, 51)

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


def module_trees() -> dict[str, ast.Module]:
    """The parsed source of every module of the package, by module name."""
    package = Path(costcal.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}


def modules_naming(names: set[str]) -> set[str]:
    """The modules of the package that name any of ``names``: as a name, an
    imported name or an attribute."""
    return {
        module
        for module, tree in module_trees().items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.alias) and node.name in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
    }


#: Each module's layer: a module imports only from lower layers at run time.
LAYERS = {
    "errors": 0, "losses": 1, "families": 2, "oracle": 2, "curves": 3, "calibration": 4, "cli": 5
}


def runtime_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports anywhere outside its
    ``if TYPE_CHECKING:`` block."""
    imported = set()
    for statement in tree.body:
        if isinstance(statement, ast.If) and ast.unparse(statement.test) == "TYPE_CHECKING":
            continue
        for node in ast.walk(statement):
            if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.startswith("costcal")
            ):
                module = (node.module or "").removeprefix("costcal").lstrip(".")
                imported.update([module] if module else (alias.name for alias in node.names))
            elif isinstance(node, ast.Import):
                imported.update(
                    alias.name.removeprefix("costcal.")
                    for alias in node.names
                    if alias.name.startswith("costcal.")
                )
    return imported


class TestLayering:
    """The modules form one order, errors < losses < {families, oracle} <
    curves < calibration < cli, and import nothing inside a function."""

    def test_no_function_imports(self):
        inside = [
            (module, function.name)
            for module, tree in module_trees().items()
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert inside == []

    def test_runtime_imports_follow_the_layer_order(self):
        trees = module_trees()
        assert set(trees) == set(LAYERS) | {"__init__"}
        upward = {
            (module, imported)
            for module, layer in LAYERS.items()
            for imported in runtime_imports(trees[module])
            if not LAYERS[imported] < layer
        }
        assert upward == set()

    def test_oracle_imports_only_errors_and_losses(self):
        # The search and its chooser rest on the pointwise layer alone.
        assert runtime_imports(module_trees()["oracle"]) == {"errors", "losses"}

    def test_curves_imports_nothing_from_calibration(self):
        # curves owns the knot format; calibration owns the answers the verdict gates.
        imported = set()
        for node in ast.walk(module_trees()["curves"]):  # function-local imports too
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").rpartition(".")[2])
                imported.update(alias.name.rpartition(".")[2] for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name.rpartition(".")[2] for alias in node.names)
        assert "calibration" not in imported

    def test_only_curves_reads_the_knot_views(self):
        # The tuple views are kept for the benchmark; the package reads columns.
        readers = {
            module
            for module, tree in module_trees().items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in {"knots", "hull_knots"}
        }
        assert readers <= {"curves"}

    def test_only_oracle_names_the_search_layout(self):
        # ``Loss._search_state`` is defined in losses and read in oracle alone.
        layout = {"_SEARCH", "_START", "_STOP", "_grid_tables", "_search_state"}
        assert modules_naming(layout) == {"oracle"}

    def test_constraint_names_are_read_only_where_brute_force_min_takes_them(self):
        names = {"none", "nonnegative_scores", "nonpositive_scores"}
        trees = module_trees()
        naming = {
            (module, getattr(statement, "name", None) or statement.targets[0].id)
            for module in ("losses", "oracle")
            for statement in trees[module].body
            for node in ast.walk(statement)
            if isinstance(node, ast.Constant) and node.value in names
        }
        assert naming == {("oracle", "_SEARCH"), ("oracle", "brute_force_min")}
