"""Gap curves, lower convex envelopes, and the regret-bound transfer."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import costcal
from costcal import (
    ALPHA_SIGMOID_GAMMA2,
    FAMILIES,
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
    h_alpha,
    jump_at_bmin,
    mu_curve,
    nu_curve,
    psi_costinsensitive,
    regret_bound,
)

from conftest import collinear_curves, knot_curves, uneven


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


def reference_mu(curve: SampledCurve) -> tuple[Knot, ...]:
    """Suffix infimum by a running minimum from the right end."""
    knots, low = [], math.inf
    for k in reversed(curve.knots):
        low = min(low, k.value)
        knots.append(Knot(k.eps, low, k.side))
    return tuple(reversed(knots))


def knots_built_the_old_way(loss, cost, grid_size, extra_knots) -> tuple[Knot, ...]:
    """nu_curve's knots as the list-building code made them: the same
    samples, one Knot per eps, the b_min one split into left and right."""
    alpha, big, small = cost.alpha, cost.b_max, cost.b_min
    extra = [min(max(float(e), 0.0), big) for e in extra_knots]
    eps_values = np.union1d(np.linspace(0.0, big, grid_size), np.array([0.0, small, big] + extra))
    lo, hi = np.maximum(alpha - eps_values, 0.0), np.minimum(alpha + eps_values, 1.0)
    etas, where = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    h_lo, h_hi = np.split(h_alpha(loss, cost, etas)[where], 2)
    far = h_hi if alpha <= 0.5 else h_lo
    values = np.where(eps_values <= small, np.where(h_lo < h_hi, h_lo, h_hi), far)
    eps_list = eps_values.tolist()
    knots = [Knot(e, v, "both") for e, v in zip(eps_list, values.tolist())]
    i = eps_list.index(small)
    right = float(far[i]) if small < big else knots[i].value
    knots[i : i + 1] = [knots[i]._replace(side="left"), Knot(small, right, "right")]
    return tuple(knots)


class TestBiconjugateReference:
    @given(knot_curves())
    @settings(max_examples=200, deadline=None)
    def test_equals_reference_chain(self, curve):
        assert biconjugate(curve).hull_knots == reference_hull(curve)
        assert mu_curve(curve).knots == reference_mu(curve)

    @given(collinear_curves())
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_chain_on_straight_pieces(self, curve):
        # Crosses of exactly 0 must pop, as in the chain; repeated points too.
        assert biconjugate(curve).hull_knots == reference_hull(curve)
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
        assert biconjugate(nu).hull_knots == reference_hull(nu)
        assert mu_curve(nu).knots == reference_mu(nu)
        assert nu.knots == knots_built_the_old_way(loss, cost, grid, extra)

    def test_equals_reference_on_family_curves(self):
        for family in ("hinge", "squared", "exponential"):
            loss = uneven(family, gamma=2.0, alpha_weight=0.3)
            curve = nu_curve(loss, CostParam(0.3), 201, extra_knots=(0.05, 0.4))
            assert biconjugate(curve).hull_knots == reference_hull(curve)


class TestSampledCurveColumns:
    KNOTS = (
        Knot(0.0, 0.0, "both"),
        Knot(0.3, 0.15, "left"),
        Knot(0.3, 0.3, "right"),
        Knot(0.7, 0.7, "both"),
    )

    def test_hand_built_curve_keeps_its_knots(self):
        curve = SampledCurve(domain_max=0.7, knots=self.KNOTS)
        assert curve.knots is self.KNOTS
        assert curve.eps.dtype == curve.values.dtype == np.float64
        assert curve.eps.tolist() == [0.0, 0.3, 0.3, 0.7]
        assert curve.values.tolist() == [0.0, 0.15, 0.3, 0.7]
        assert curve.sides.tolist() == ["both", "left", "right", "both"]

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
        for curve in (nu, mu_curve(nu), SampledCurve(domain_max=0.7, knots=self.KNOTS)):
            for column in (curve.eps, curve.values, curve.sides):
                with pytest.raises(ValueError):
                    column[0] = column[1]
            with pytest.raises(AttributeError):
                curve.domain_max = 1.0

    def test_equality_and_hash_compare_domain_and_knots(self):
        loss, cost = uneven("exponential", gamma=2.0, alpha_weight=0.3), CostParam(0.3)
        nu, fresh = nu_curve(loss, cost, 51), nu_curve(loss, cost, 51)
        rebuilt = SampledCurve(domain_max=nu.domain_max, knots=nu.knots)
        assert fresh == rebuilt and rebuilt == fresh
        assert hash(fresh) == hash(rebuilt)
        assert {rebuilt: 1}[nu_curve(loss, cost, 51)] == 1
        assert SampledCurve(domain_max=1.0, knots=nu.knots) != nu
        dip = hand_curve([(0.0, 0.0), (0.3, 0.5), (0.7, 0.2)])
        assert mu_curve(dip) != dip
        assert nu != nu.knots
        assert SampledCurve(domain_max=0.0, knots=()) == SampledCurve(domain_max=0.0, knots=[])
        assert repr(rebuilt) == f"SampledCurve(domain_max=0.7, knots={nu.knots!r})"


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
    """The knot arrays cached on an envelope give the list-based answers."""

    FLAT = ConvexEnvelope(hull_knots=((0.0, 0.0), (0.2, 0.0), (0.5, 0.6)))

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

    def test_equality_and_hash_ignore_the_cache(self):
        knots = ((0.0, 0.0), (0.3, 0.15), (0.7, 0.7))
        used, fresh = ConvexEnvelope(hull_knots=knots), ConvexEnvelope(hull_knots=knots)
        envelope_eval(used, 0.5)
        envelope_invert(used, 0.2)
        assert used == fresh and hash(used) == hash(fresh)
        assert {used: 1}[fresh] == 1


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


def module_trees() -> dict[str, ast.Module]:
    """The parsed source of every module of the package, by module name."""
    package = Path(costcal.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}


class TestLayering:
    """curves sits below calibration: it owns the knot format, and
    calibration owns the answers the verdict gates."""

    def test_curves_imports_nothing_from_calibration(self):
        imported = set()
        for node in ast.walk(module_trees()["curves"]):  # function-local imports too
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").rpartition(".")[2])
                imported.update(alias.name.rpartition(".")[2] for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name.rpartition(".")[2] for alias in node.names)
        assert "calibration" not in imported

    def test_only_curves_names_the_knot_builder(self):
        naming = {
            module
            for module, tree in module_trees().items()
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "_knots")
            or (isinstance(node, ast.alias) and node.name == "_knots")
            or (isinstance(node, ast.Attribute) and node.attr == "_knots")
        }
        assert naming == {"curves"}
