"""The four margin-loss families, their closed forms, and sigmoid machinery."""

import math
import warnings

import numpy as np
import pytest

from costcal import (
    ALPHA_SIGMOID_GAMMA2,
    CostParam,
    DomainError,
    UnevenMarginSpec,
    UnsupportedFamilyError,
    alpha_of_gamma,
    closed_forms,
    conditional_risk,
    constrained_optimal_risk,
    h_alpha,
    make_uneven_loss,
    optimal_conditional_risk,
    sigmoid_c_minus,
    sigmoid_t_minus,
)
from costcal.oracle import brute_force_min, finite_diff_check

from conftest import uneven

ALL_FAMILIES = ("hinge", "squared", "exponential", "sigmoid")


def quartic_residual(eta: float, t: float) -> float:
    """Stationarity quartic in z = e^t for the gamma = 2 sigmoid risk."""
    z = math.exp(t)
    return (
        eta * z**4
        - (1.0 - eta) * z**3
        + 2.0 * (2.0 * eta - 1.0) * z**2
        - (1.0 - eta) * z
        + eta
    )


class TestSpecValidation:
    def test_rejects_unknown_family(self):
        with pytest.raises(DomainError):
            UnevenMarginSpec("logistic", beta=1.0, gamma=1.0)

    @pytest.mark.parametrize(
        "beta,gamma",
        [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0), (math.inf, 1.0), (1.0, math.nan)],
    )
    def test_rejects_nonpositive_scales(self, beta, gamma):
        with pytest.raises(DomainError):
            UnevenMarginSpec("hinge", beta=beta, gamma=gamma)

    def test_rejects_degenerate_weight(self):
        with pytest.raises(DomainError):
            UnevenMarginSpec("hinge", beta=1.0, gamma=1.0, alpha_weight=1.0)


class TestMakeUnevenLoss:
    def test_hinge_negative_partial(self):
        loss = uneven("hinge", gamma=2.0)
        # L-1(t) = (1/2)(1 + 2t)+
        assert loss.neg(-1.0) == 0.0
        assert loss.neg(1.0) == pytest.approx(1.5, abs=1e-15)
        assert loss.neg(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_squared_negative_partial(self):
        loss = uneven("squared", gamma=2.0)
        # L-1(t) = (1/2)(1 + 2t)^2
        assert loss.neg(1.0) == pytest.approx(4.5, abs=1e-15)
        assert loss.neg(-0.5) == 0.0

    def test_weighted_symmetric_exponential(self):
        loss = uneven("exponential", gamma=1.0, beta=1.0, alpha_weight=0.5)
        for t in (-0.7, 0.0, 1.3):
            assert loss.pos(t) == pytest.approx(0.5 * math.exp(-t), abs=1e-15)
            assert loss.neg(t) == pytest.approx(0.5 * math.exp(t), abs=1e-15)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    def test_metadata_consistency(self, family, gamma):
        loss = uneven(family, gamma=gamma)
        for partial in (loss.pos, loss.neg):
            assert partial.value_at_zero == pytest.approx(partial(0.0), abs=1e-15)
            assert finite_diff_check(partial, 0.0) == pytest.approx(
                partial.deriv_at_zero, abs=1e-5
            )
            assert partial.is_convex == (family != "sigmoid")

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_partials_nonnegative_and_convexity_flag_honest(self, family):
        loss = uneven(family, gamma=2.0)
        ts = np.linspace(-5.0, 5.0, 41)
        for partial in (loss.pos, loss.neg):
            values = [partial(float(t)) for t in ts]
            assert min(values) >= 0.0
            if partial.is_convex:
                for i in range(1, len(values) - 1):
                    assert values[i] <= 0.5 * (values[i - 1] + values[i + 1]) + 1e-12

    def test_declared_limits(self):
        loss = uneven("exponential", gamma=2.0)
        assert loss.pos(math.inf) == 0.0
        assert loss.pos(-math.inf) == math.inf
        assert loss.neg(-math.inf) == 0.0
        assert loss.neg(math.inf) == math.inf


class TestClosedForms:
    def test_squared_minimizer(self):
        forms = closed_forms(UnevenMarginSpec("squared", beta=0.5, gamma=2.0), 0.75)
        assert forms.t_star == pytest.approx(0.4, abs=1e-12)

    def test_exponential_minimizer(self):
        eta = math.e / (1.0 + math.e)
        forms = closed_forms(UnevenMarginSpec("exponential", beta=1.0, gamma=1.0), eta)
        assert forms.t_star == pytest.approx(0.5, abs=1e-12)

    def test_hinge_values(self):
        forms = closed_forms(UnevenMarginSpec("hinge", beta=0.5, gamma=2.0), 0.3)
        assert forms.c_star == pytest.approx(0.45, abs=1e-12)
        assert forms.h_cc == pytest.approx(0.2, abs=1e-12)
        assert forms.t_star == pytest.approx(-0.5, abs=1e-15)

    def test_exponential_boundary_posteriors(self):
        spec = UnevenMarginSpec("exponential", beta=0.5, gamma=2.0)
        low = closed_forms(spec, 0.0)
        assert low.t_star == -math.inf
        assert low.c_star == 0.0
        high = closed_forms(spec, 1.0)
        assert high.t_star == math.inf
        assert high.c_star == 0.0

    @pytest.mark.parametrize("family", ["squared", "exponential"])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 4.0])
    def test_minimizer_is_stationary(self, family, gamma):
        spec = UnevenMarginSpec(family, beta=1.0 / gamma, gamma=gamma)
        loss = make_uneven_loss(spec)
        for eta in (0.1, 0.35, 0.5, 0.8, 0.95):
            t_star = closed_forms(spec, eta).t_star

            def risk(t, eta=eta):
                return conditional_risk(loss, eta, t)

            deriv = (risk(t_star + 1e-6) - risk(t_star - 1e-6)) / 2e-6
            assert abs(deriv) <= 1e-6 * max(1.0, abs(risk(t_star)))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_agrees_with_oracle_on_eta_grid(self, family):
        gamma = 2.0
        spec = UnevenMarginSpec(family, beta=1.0 / gamma, gamma=gamma)
        loss = make_uneven_loss(spec)
        for eta in np.linspace(0.0, 1.0, 21):
            eta = float(eta)
            assert closed_forms(spec, eta).c_star == pytest.approx(
                brute_force_min(loss, eta, "none").value, abs=1e-6
            )

    def test_uncalibrated_configuration_unsupported(self):
        with pytest.raises(UnsupportedFamilyError):
            closed_forms(UnevenMarginSpec("hinge", beta=1.0, gamma=2.0), 0.5)

    def test_sigmoid_needs_gamma_two(self):
        with pytest.raises(UnsupportedFamilyError):
            closed_forms(UnevenMarginSpec("sigmoid", beta=1.0, gamma=1.0), 0.5)

    def test_weighted_spec_unsupported(self):
        spec = UnevenMarginSpec("hinge", beta=0.5, gamma=2.0, alpha_weight=0.3)
        with pytest.raises(UnsupportedFamilyError):
            closed_forms(spec, 0.5)

    def test_rejects_eta_outside_unit_interval(self):
        with pytest.raises(DomainError):
            closed_forms(UnevenMarginSpec("hinge", beta=0.5, gamma=2.0), 1.5)


class TestSigmoidTMinus:
    def test_reference_values(self):
        assert sigmoid_t_minus(0.2) == pytest.approx(-1.6628, abs=1e-4)
        assert sigmoid_t_minus(0.4) == pytest.approx(-0.7785, abs=1e-4)

    @pytest.mark.parametrize("eta", [0.05, 0.15, 0.25, 0.35, 0.45])
    def test_solves_stationarity_quartic(self, eta):
        assert abs(quartic_residual(eta, sigmoid_t_minus(eta))) <= 1e-9

    @pytest.mark.parametrize("eta", [0.1, 0.2, 0.3, 0.4])
    def test_matches_polynomial_root_oracle(self, eta):
        # Independent oracle: solve the quartic in z = e^t directly.
        coeffs = [eta, -(1.0 - eta), 2.0 * (2.0 * eta - 1.0), -(1.0 - eta), eta]
        roots = np.roots(coeffs)
        real = sorted(
            float(r.real)
            for r in roots
            if abs(r.imag) < 1e-9 and 0.0 < r.real < 1.0
        )
        assert real, "quartic oracle found no admissible root"
        assert sigmoid_t_minus(eta) == pytest.approx(math.log(real[0]), abs=1e-9)

    def test_risk_is_stationary_at_t_minus(self):
        loss = uneven("sigmoid", gamma=2.0)
        for eta in (0.1, 0.25, 0.45):
            t = sigmoid_t_minus(eta)
            deriv = (
                conditional_risk(loss, eta, t + 1e-6)
                - conditional_risk(loss, eta, t - 1e-6)
            ) / 2e-6
            assert abs(deriv) <= 1e-5

    def test_vanishes_approaching_one_half(self):
        assert abs(sigmoid_t_minus(0.4999999)) < 1e-3

    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.7, -0.1])
    def test_domain(self, eta):
        with pytest.raises(DomainError):
            sigmoid_t_minus(eta)

    @pytest.mark.parametrize("eta", [3e-9, 1e-8])
    def test_stationary_at_tiny_posteriors(self, eta):
        # The root z = e^t is about eta here; the textbook root formula
        # cancels to nothing.  Evaluate the quartic exactly at the float z.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            z = mpmath.exp(mpmath.mpf(sigmoid_t_minus(eta)))
            e = mpmath.mpf(eta)
            scale = e * (1 + z**2) ** 2
            residual = scale - (1 - e) * z * (1 + z) ** 2
            assert abs(residual / scale) <= 1e-12


class TestAlphaOfGamma:
    def test_gamma_two_closed_constant(self):
        assert abs(alpha_of_gamma(2.0) - ALPHA_SIGMOID_GAMMA2) <= 1e-10

    def test_gamma_one_is_half(self):
        assert alpha_of_gamma(1.0) == 0.5

    def test_gamma_half_by_symmetry(self):
        assert alpha_of_gamma(0.5) == pytest.approx(0.62361503, abs=1e-8)

    @pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0, 5.0, 8.0])
    def test_reciprocal_symmetry(self, gamma):
        assert abs(alpha_of_gamma(gamma) + alpha_of_gamma(1.0 / gamma) - 1.0) <= 1e-8

    def test_monotone_in_log_gamma(self):
        gammas = np.geomspace(0.25, 4.0, 9)
        alphas = [alpha_of_gamma(float(g)) for g in gammas]
        assert all(b < a for a, b in zip(alphas, alphas[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            alpha_of_gamma(0.0)
        with pytest.raises(DomainError):
            alpha_of_gamma(2.0, tol=0.0)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan, 150.0, 1e300, 1e-300])
    def test_rejects_gammas_the_bisection_cannot_handle(self, gamma):
        with pytest.raises(DomainError):
            alpha_of_gamma(gamma)

    def test_near_one_sign_monotone_and_symmetric(self):
        offsets = [1e-15, 1e-13, 1e-12, 1e-11, 1e-9]
        gammas = sorted([1.0 - d for d in offsets] + [1.0] + [1.0 + d for d in offsets])
        alphas = [alpha_of_gamma(g) for g in gammas]
        for g, a in zip(gammas, alphas):
            assert np.sign(a - 0.5) == -np.sign(g - 1.0)
            assert abs(alpha_of_gamma(1.0 / g) - (1.0 - a)) <= 1e-15
        assert all(b < a for a, b in zip(alphas, alphas[1:]))

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_linear_term_meets_bisection_at_band_edge(self, side):
        # Just inside |gamma - 1| <= 1e-6 vs a tight bisection just outside.
        inside = 1.0 + side * 0.9999999e-6
        outside = inside + side * 2e-13
        step = alpha_of_gamma(inside) - alpha_of_gamma(outside, tol=1e-15)
        assert 0.0 < side * step <= 1e-13


#: Posteriors at the edges and branch points of the closed forms.
EDGE_POSTERIORS = [0.0, 1.0, 1e-12, 3e-9, 1.0 - 1e-12, 1.0 / 3.0, 0.5, ALPHA_SIGMOID_GAMMA2]
ARRAY_ETAS = np.concatenate([EDGE_POSTERIORS, np.linspace(0.0, 1.0, 101)])
CLOSED_CONFIGS = [
    (family, gamma) for family in ("hinge", "squared", "exponential") for gamma in (0.25, 1.0, 4.0)
] + [("sigmoid", 2.0)]


def no_warnings(fn, *args):
    """fn(*args), failing on any numpy warning from a masked-out branch."""
    with warnings.catch_warnings(), np.errstate(divide="warn", over="warn", invalid="warn"):
        warnings.simplefilter("error")
        return fn(*args)


class TestArrayClosedForms:
    """An ndarray of posteriors runs the closed forms in numpy; the float
    path is the reference."""

    @pytest.mark.parametrize("family,gamma", CLOSED_CONFIGS)
    @pytest.mark.parametrize("alpha_weight", [None, 0.3])
    def test_c_star_matches_float_path(self, family, gamma, alpha_weight):
        loss = uneven(family, gamma, alpha_weight=alpha_weight)
        values = no_warnings(optimal_conditional_risk, loss, ARRAY_ETAS)
        expected = [optimal_conditional_risk(loss, e) for e in ARRAY_ETAS.tolist()]
        np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("family,gamma", CLOSED_CONFIGS)
    def test_gap_matches_float_path(self, family, gamma):
        alpha = ALPHA_SIGMOID_GAMMA2 if family == "sigmoid" else 0.3
        loss = uneven(family, gamma, alpha_weight=None if family == "sigmoid" else alpha)
        cost = CostParam(alpha)
        values = no_warnings(h_alpha, loss, cost, ARRAY_ETAS)
        expected = [h_alpha(loss, cost, e) for e in ARRAY_ETAS.tolist()]
        np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-12)

    def test_sigmoid_c_minus_matches_float_path(self):
        # eta == ALPHA_SIGMOID_GAMMA2 exactly takes the local-minimum branch.
        loss = uneven("sigmoid", gamma=2.0)
        cost = CostParam(ALPHA_SIGMOID_GAMMA2)
        for fn in (
            lambda e: constrained_optimal_risk(loss, cost, e),
            lambda e: sigmoid_c_minus(cost, e),
        ):
            values = no_warnings(fn, ARRAY_ETAS)
            expected = [fn(e) for e in ARRAY_ETAS.tolist()]
            np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-12)

    def test_sigmoid_t_minus_matches_float_path(self):
        etas = np.array([1e-12, 3e-9, 0.1, 1.0 / 3.0, ALPHA_SIGMOID_GAMMA2, 0.4999999])
        values = no_warnings(sigmoid_t_minus, etas)
        np.testing.assert_allclose(
            values, [sigmoid_t_minus(e) for e in etas.tolist()], rtol=1e-15, atol=0.0
        )

    def test_sigmoid_t_minus_rejects_array_outside_domain(self):
        with pytest.raises(DomainError):
            sigmoid_t_minus(np.array([0.2, 0.5]))

    @pytest.mark.parametrize("family,gamma", CLOSED_CONFIGS)
    def test_shape_is_kept(self, family, gamma):
        loss = uneven(family, gamma)
        grid = ARRAY_ETAS[:108].reshape(12, 9)
        values = optimal_conditional_risk(loss, grid)
        assert values.shape == grid.shape
        np.testing.assert_array_equal(values.ravel(), optimal_conditional_risk(loss, grid.ravel()))


class TestSigmoidCMinus:
    COST = CostParam(ALPHA_SIGMOID_GAMMA2)

    def test_low_posterior_branch(self):
        assert sigmoid_c_minus(self.COST, 0.2) == pytest.approx(0.3, abs=1e-12)

    def test_high_posterior_branch(self):
        assert sigmoid_c_minus(self.COST, 0.6) == pytest.approx(0.4, abs=1e-12)

    def test_local_minimum_branch(self):
        loss = uneven("sigmoid", gamma=2.0)
        expected = conditional_risk(loss, 0.4, sigmoid_t_minus(0.4))
        assert sigmoid_c_minus(self.COST, 0.4) == pytest.approx(expected, abs=1e-12)

    def test_branches_agree_at_breakpoints(self):
        for b in (1.0 / 3.0, ALPHA_SIGMOID_GAMMA2, 0.5):
            below = sigmoid_c_minus(self.COST, b - 1e-10)
            above = sigmoid_c_minus(self.COST, b + 1e-10)
            assert below == pytest.approx(above, abs=1e-8)

    def test_tangency_at_calibrating_alpha(self):
        # At eta = alpha the local-minimum value meets the limit value.
        a = ALPHA_SIGMOID_GAMMA2
        loss = uneven("sigmoid", gamma=2.0)
        assert conditional_risk(loss, a, sigmoid_t_minus(a)) == pytest.approx(
            (1.0 - a) / 2.0, abs=1e-9
        )

    def test_rejects_other_alpha(self):
        with pytest.raises(DomainError):
            sigmoid_c_minus(CostParam(0.4), 0.2)

    def test_rejects_eta_outside_unit_interval(self):
        with pytest.raises(DomainError):
            sigmoid_c_minus(self.COST, 1.2)
