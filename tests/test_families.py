"""The four margin-loss families, their closed forms, and sigmoid machinery."""

import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import costcal
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
    theta_alpha,
)
from costcal.oracle import brute_force_min

from conftest import counted, finite_diff_check, uneven, untagged

ALL_FAMILIES = ("hinge", "squared", "exponential", "sigmoid")
# Each family's phi, as its unweighted positive partial 1.0 * phi(t).
_phi_hinge, _phi_squared, _phi_exponential, _phi_sigmoid = (
    make_uneven_loss(UnevenMarginSpec(family, 1.0, 1.0)).pos.fn for family in ALL_FAMILIES
)
SIGMOID_GAMMA2 = UnevenMarginSpec("sigmoid", 0.5, 2.0)


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

    @pytest.mark.parametrize(
        "beta, gamma, weight", [(None, 2.0, None), (1.0, "2", None), (1.0, 2.0, "0.3")]
    )
    def test_rejects_parameters_that_are_no_numbers(self, beta, gamma, weight):
        with pytest.raises(DomainError, match="must be a number"):
            UnevenMarginSpec("hinge", beta, gamma, weight)


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

    def test_underflowing_negative_weight_is_rejected(self):
        # 1e-320 * 1e-300 is 0.0: the negative partial would be 0, or NaN
        # where phi overflows, instead of the weighted loss.
        with pytest.raises(DomainError):
            uneven("squared", gamma=1e300, alpha_weight=1e-320)
        assert uneven("squared", gamma=1e300, alpha_weight=1e-5).neg.value_at_zero > 0.0

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    def test_metadata_consistency(self, family, gamma):
        loss = uneven(family, gamma=gamma)
        for partial in (loss.pos, loss.neg):
            assert finite_diff_check(partial, 0.0) == pytest.approx(
                partial.deriv_at_zero, abs=1e-5
            )
            assert partial.is_convex == (family != "sigmoid")

    @pytest.mark.parametrize("family", ["hinge", "squared", "exponential"])
    def test_the_c_minus_shortcut_reads_the_partials_at_zero(self, family):
        # Where the derivative test calls a convex member calibrated, C^-
        # off alpha is the risk at the score 0, which a tagged loss reads
        # from its spec: at eta 0 and 1 it is one partial's value there, bit
        # for bit what that partial's fn gives, and between them the two
        # mixed, at posteriors either side of alpha and within an ulp of it.
        for gamma in (1e-3, 0.25, 0.5, 1.0, 2.0, 4.0, 1e3):
            for beta in (1.0 / gamma, 0.3, 0.7, 2.0):
                for weight in (None, 0.05, 0.3, 0.9):
                    loss = uneven(family, gamma, beta, weight)
                    d1, d2 = loss.pos.deriv_at_zero, loss.neg.deriv_at_zero
                    cost = CostParam(d2 / (d2 - d1))
                    found = [constrained_optimal_risk(loss, cost, eta) for eta in (1.0, 0.0)]
                    assert [v.hex() for v in found] == [loss.pos(0.0).hex(), loss.neg(0.0).hex()]
                    near = [math.nextafter(cost.alpha, 0.0), math.nextafter(cost.alpha, 1.0)]
                    etas = np.array([1e-12, 0.25, 0.75, 1.0 - 1e-12] + near)
                    at0 = etas * loss.pos(0.0) + (1.0 - etas) * loss.neg(0.0)
                    assert constrained_optimal_risk(loss, cost, etas).tobytes() == at0.tobytes()
                    assert [constrained_optimal_risk(loss, cost, e) for e in etas.tolist()] == at0.tolist()

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

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize(
        "beta, gamma, weight", [(1e300, 1e300, None), (1e300, 1e300, 0.3), (0.7, 2.0, 0.3), (1e-300, 1e-300, None)]
    )
    def test_numpy_scalar_specs_build_the_python_float_loss(self, family, beta, gamma, weight):
        # A spec of numpy scalars (what iterating an ndarray yields) builds
        # the partials' metadata of the same spec of Python floats, bit for
        # bit, with no warning where beta * gamma overflows.
        def metadata(spec):
            loss = make_uneven_loss(spec)
            fields = ("deriv_at_zero", "limit_neg_inf", "limit_pos_inf", "is_convex", "value_at_zero")
            return [repr(getattr(partial, field)) for partial in (loss.pos, loss.neg) for field in fields]

        floats = metadata(UnevenMarginSpec(family, beta, gamma, weight))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weight = None if weight is None else np.float64(weight)
            assert metadata(UnevenMarginSpec(family, np.float64(beta), np.float64(gamma), weight)) == floats

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

    @pytest.mark.parametrize("family", ["hinge", "squared", "exponential"])
    @pytest.mark.parametrize("beta,gamma", [(1.0, 2.0), (0.7, 2.0), (1e3, 1e-3), (1e-3, 1e3)])
    def test_every_unweighted_convex_member_is_served(self, family, beta, gamma):
        # Its minimizer attains its C*, and its gap is h_alpha's at 1/2.
        spec = UnevenMarginSpec(family, beta, gamma)
        loss = make_uneven_loss(spec)
        for eta in (0.1, 0.3, 0.5, 0.9):
            forms = closed_forms(spec, eta)
            assert forms.c_star == spec.c_star(eta)
            assert conditional_risk(loss, eta, forms.t_star) == pytest.approx(forms.c_star, rel=1e-12)
            assert forms.h_cc == h_alpha(loss, CostParam(0.5), eta)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_gap_is_h_alpha_at_half(self, family):
        # The gamma = 2 sigmoid's too: at eta = 1/2 it had read 0.125.
        spec = UnevenMarginSpec(family, 0.5, 2.0)
        loss = make_uneven_loss(spec)
        for eta in np.linspace(0.0, 1.0, 101).tolist() + [0.5]:
            assert closed_forms(spec, eta).h_cc == h_alpha(loss, CostParam(0.5), eta)

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

    @pytest.mark.parametrize("gamma", [1e200, 1e300])
    def test_squared_c_star_at_huge_gamma(self, gamma):
        # (1 + gamma) ** 2 overflows past gamma ~ 1.3e154; the closed form
        # must not square it.
        mpmath = pytest.importorskip("mpmath")
        spec = UnevenMarginSpec("squared", beta=1.0 / gamma, gamma=gamma)
        etas = [1e-12, 0.1, 0.5, 0.9, 1.0 - 1e-12]
        rows = spec.c_star(np.array(etas))
        with mpmath.workdps(50):
            g = mpmath.mpf(gamma)
            for eta, row in zip(etas, rows.tolist()):
                e = mpmath.mpf(eta)
                ref = (1 + g) ** 2 / g * e * (1 - e) / (e + g * (1 - e))
                for value in (closed_forms(spec, eta).c_star, row):
                    assert abs(value - ref) <= 1e-12 * ref, (eta, value)


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

    def test_within_40_ulps_of_mpmath(self):
        # The smaller root z = 2 / (w + sqrt(w^2 - 4)), w = num / (2 eta), in
        # 60 digits, where w^2 cannot overflow.  Near 1/2 the float formula
        # loses digits to cancellation in num, hence 40 ulps.
        mpmath = pytest.importorskip("mpmath")
        etas = np.concatenate([np.logspace(-320.0, -1.0, 120), np.linspace(0.01, 0.49, 241)])
        values = no_warnings(sigmoid_t_minus, etas)
        for eta, array_value in zip(etas.tolist(), values.tolist()):
            with mpmath.workdps(60):
                e = mpmath.mpf(eta)
                w = ((1 - e) + mpmath.sqrt((1 - e) ** 2 + 8 * e * (1 - e))) / (2 * e)
                ref = float(mpmath.log(2 / (w + mpmath.sqrt(w * w - 4))))
            for value in (sigmoid_t_minus(eta), array_value):
                assert abs(value - ref) <= 40 * math.ulp(ref), (eta, value, ref)

    def test_one_solve_per_scalar_c_star(self, monkeypatch):
        calls = []

        def spy(eta):
            calls.append(eta)
            return sigmoid_t_minus(eta)

        monkeypatch.setattr(costcal.families, "sigmoid_t_minus", spy)
        loss = uneven("sigmoid", gamma=2.0)
        for request in (
            SIGMOID_GAMMA2.c_star,
            lambda eta: optimal_conditional_risk(loss, eta),
            SIGMOID_GAMMA2.t_star,
            lambda eta: closed_forms(SIGMOID_GAMMA2, eta),
        ):
            for eta in (1e-9, 0.05, 0.2, 0.3):
                del calls[:]
                request(eta)
                assert calls == [eta]

    @pytest.mark.parametrize("eta", [3e-9, 1e-8, 1e-300, 1e-320])
    def test_stationary_at_tiny_posteriors(self, eta):
        # The root z = e^t is about eta here; the textbook root formula
        # cancels to nothing, and below 1e-150 w * w would overflow.
        # Evaluate the quartic exactly at the float z, float and array path.
        mpmath = pytest.importorskip("mpmath")
        row = no_warnings(sigmoid_t_minus, np.array([eta]))[0]
        for t in (sigmoid_t_minus(eta), closed_forms(SIGMOID_GAMMA2, eta).t_star, row):
            with mpmath.workdps(50):
                z = mpmath.exp(mpmath.mpf(t))
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

    # A numpy scalar (what iterating an ndarray yields) must behave as the
    # float, in its errors and in its answer's type.
    @pytest.mark.parametrize("scalar", [float, np.float64])
    def test_domain(self, scalar):
        with pytest.raises(DomainError):
            alpha_of_gamma(scalar(0.0))

    @pytest.mark.parametrize("gamma", [None, "2"])
    def test_rejects_a_gamma_that_is_no_number(self, gamma):
        with pytest.raises(DomainError, match="gamma must be a number"):
            alpha_of_gamma(gamma)

    @pytest.mark.parametrize("scalar", [float, np.float64])
    @pytest.mark.parametrize("gamma", [math.inf, math.nan, 1e12, 1e-12, 1e300, 1e-300])
    def test_rejects_gammas_the_bisection_cannot_handle(self, gamma, scalar):
        with pytest.raises(DomainError):
            alpha_of_gamma(scalar(gamma))

    # Below 1 the root is found at 1 / gamma; the error must still name the
    # caller's gamma, not 1e300 or the infinite reciprocal of 5e-324.
    @pytest.mark.parametrize("gamma", [1e-300, 5e-324, 1e300])
    def test_errors_name_the_callers_gamma(self, gamma):
        with pytest.raises(DomainError, match=re.escape(f"gamma={gamma!r} ")):
            alpha_of_gamma(gamma)

    @pytest.mark.parametrize("scalar", [float, np.float64])
    @pytest.mark.parametrize("gamma", [143.0, 1.0 / 143.0])
    def test_edge_of_the_supported_range(self, gamma, scalar):
        alpha = alpha_of_gamma(scalar(gamma))
        assert type(alpha) is float
        assert alpha == alpha_of_gamma(gamma)
        assert alpha == pytest.approx(0.013482772326302649 if gamma > 1.0 else 0.9865172276736974)

    @pytest.mark.parametrize("scalar", [float, np.float64])
    @pytest.mark.parametrize("gamma", [150.0, 1e3, 1.0 / 150.0, 1e-3])
    def test_past_143_against_mpmath(self, gamma, scalar):
        # The tangency equation's root by 60-digit bisection, past gamma = 143,
        # where its powers overflow a float.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            g = mpmath.mpf(max(gamma, 1.0 / gamma))
            lo, hi = 1 / (1 + g), mpmath.mpf(1)
            for _ in range(220):
                eta = (lo + hi) / 2
                base = (eta * g - 1 + eta) / (1 - eta) * g / (g - 1)
                if eta * (g * g * base ** (g - 1) + 1) < 1:
                    lo = eta
                else:
                    hi = eta
            ref = float(lo if gamma > 1.0 else 1 - lo)
        alpha = alpha_of_gamma(scalar(gamma))
        assert type(alpha) is float
        assert abs(alpha - ref) <= 2 * math.ulp(ref)

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
        step = alpha_of_gamma(inside) - alpha_of_gamma(outside)
        assert 0.0 < side * step <= 1e-13

    @pytest.mark.parametrize("start", [1.5, 1.0 + 2e-6, 3.0, 0.3])
    def test_never_rises_between_adjacent_gammas(self, start):
        # 199 steps of 1e-12: alpha decreases in gamma, so no step may raise it.
        alphas = [alpha_of_gamma(start + k * 1e-12) for k in range(200)]
        assert all(b <= a for a, b in zip(alphas, alphas[1:]))


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

    @pytest.mark.parametrize("scalar", [float, np.float64])
    @pytest.mark.parametrize(
        "gamma,eta",
        [(1e-300, 1e-320), (0.01, 1e-320), (0.04, 5e-324), (1e-300, 1e-300), (0.01, 1e-300)]
        + [(1.0, 1e-300), (1.0, 1e-320), (4.0, 1e-300), (4.0, 1e-320)],
    )
    def test_exponential_past_the_float_range(self, gamma, eta, scalar):
        # ratio ** (-1 / (1 + gamma)) overflows at subnormal posteriors and
        # small gamma; the float path must take the same way round as the
        # array, for a numpy scalar (what iterating an ndarray yields) too.
        spec = UnevenMarginSpec("exponential", 1.0 / gamma, gamma)
        loss = make_uneven_loss(spec)
        mpmath = pytest.importorskip("mpmath")
        row = no_warnings(spec.c_star, np.array([eta, 0.5]))[0]
        with mpmath.workdps(50):
            e, g = mpmath.mpf(eta), mpmath.mpf(gamma)
            ratio = e / (1 - e)
            expected = e * ratio ** (-1 / (1 + g)) + (1 - e) / g * ratio ** (g / (1 + g))
        eta = scalar(eta)
        closed = closed_forms(spec, eta)
        for value in (row, spec.c_star(eta), closed.c_star, optimal_conditional_risk(loss, eta)):
            assert value == pytest.approx(float(expected), rel=1e-12)
        assert closed == closed_forms(spec, float(eta))
        cost = CostParam(0.5)  # where beta = 1/gamma is calibrated
        assert h_alpha(loss, cost, eta) == h_alpha(loss, cost, float(eta))

    @pytest.mark.parametrize("scalar", [float, np.float64])
    def test_sigmoid_c_star_at_tiny_posteriors(self, scalar):
        # Below eta = 1e-150, C* rounds to eta (the next term is -eta^2 / 2),
        # on the float path (a numpy scalar included) as on the array path.
        loss, cost = make_uneven_loss(SIGMOID_GAMMA2), CostParam(ALPHA_SIGMOID_GAMMA2)
        etas = np.array([5e-324, 1e-320, 1e-300, 1e-200, 1e-150, 1e-100])
        np.testing.assert_array_equal(no_warnings(SIGMOID_GAMMA2.c_star, etas), etas)
        gaps = no_warnings(h_alpha, loss, cost, etas)
        for eta, gap in zip(map(scalar, etas.tolist()), gaps.tolist()):
            assert SIGMOID_GAMMA2.c_star(eta) == closed_forms(SIGMOID_GAMMA2, eta).c_star == eta
            assert h_alpha(loss, cost, eta) == gap

    @pytest.mark.parametrize("eta", [1e-300, 1e-320])
    def test_sigmoid_c_star_at_tiny_posteriors_by_mpmath(self, eta):
        # The risk at the local minimizer, in 50 digits, rounds to eta.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            z = mpmath.exp(mpmath.mpf(sigmoid_t_minus(eta)))
            e = mpmath.mpf(eta)
            assert float(e / (1 + z) + (1 - e) / 2 * z**2 / (1 + z**2)) == eta

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

    @pytest.mark.parametrize(
        "eta", [0.2, 1.0 / 3.0, 0.35, ALPHA_SIGMOID_GAMMA2, 0.45, 0.5, 0.7]
    )
    def test_float_is_element_of_array_call(self, eta):
        value = sigmoid_c_minus(self.COST, eta)
        assert type(value) is float
        assert value == sigmoid_c_minus(self.COST, np.array([eta]))[0]

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


SUPPORTED_SPECS = [
    UnevenMarginSpec(family, beta, gamma, weight)
    for family in ("hinge", "squared", "exponential")
    for gamma in (0.25, 1.0, 4.0)
    for beta in (1.0 / gamma, 0.7)
    for weight in (None, 0.3)
] + [UnevenMarginSpec("sigmoid", 0.5, 2.0), UnevenMarginSpec("sigmoid", 0.5, 2.0, 0.3)]
#: Convex ones are searched as untagged copies; the sigmoid as it is.
UNSUPPORTED_SPECS = [
    UnevenMarginSpec("hinge", 1.0, 2.0),
    UnevenMarginSpec("exponential", 1.0, 4.0, 0.3),
    UnevenMarginSpec("sigmoid", 1.0 / 3.0, 3.0),
]
ROUTING_ETAS = [0.0, 0.2, 0.5, ALPHA_SIGMOID_GAMMA2, 0.9, 1.0]


def reference_c_star(spec: UnevenMarginSpec, eta: float) -> float:
    """``closed_forms``' C*, weighted members through theta and w."""
    if spec.alpha_weight is None:
        return closed_forms(spec, eta).c_star
    theta, w = theta_alpha(CostParam(spec.alpha_weight), eta)
    return w * closed_forms(replace(spec, alpha_weight=None), theta).c_star


class TestSpecRouting:
    """The spec alone decides between its closed forms and the oracle."""

    @pytest.mark.parametrize("spec", SUPPORTED_SPECS, ids=repr)
    def test_supported_specs_evaluate_no_partial(self, spec):
        loss, calls = counted(make_uneven_loss(spec))
        expected = [reference_c_star(spec, eta) for eta in ROUTING_ETAS]
        floats = [optimal_conditional_risk(loss, eta) for eta in ROUTING_ETAS]
        rows = optimal_conditional_risk(loss, np.array(ROUTING_ETAS))
        assert calls == []
        np.testing.assert_allclose(floats, expected, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(rows, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("spec", UNSUPPORTED_SPECS, ids=repr)
    def test_unsupported_specs_run_the_oracle(self, spec):
        loss = make_uneven_loss(spec)
        if spec.family == "sigmoid":
            assert spec.c_star(0.3) is None
        else:
            loss = replace(loss, family=None)
        for eta in (0.3, np.array([0.3, 0.7])):
            loss, calls = counted(loss)
            optimal_conditional_risk(loss, eta)
            assert calls

    def test_gamma_two_sigmoid_c_minus_closed_at_every_alpha(self):
        # At its own alpha it is sigmoid_c_minus; weighted, it is searched.
        spec = UnevenMarginSpec("sigmoid", 0.5, 2.0)
        loss, calls = counted(make_uneven_loss(spec))
        cost = CostParam(ALPHA_SIGMOID_GAMMA2)
        etas = [0.2, 0.45, 0.8]
        for eta in etas + [np.array(etas)]:
            np.testing.assert_array_equal(
                constrained_optimal_risk(loss, cost, eta), sigmoid_c_minus(cost, eta)
            )
            for alpha in (0.02, 0.3, 0.7):
                constrained_optimal_risk(loss, CostParam(alpha), eta)
        assert calls == []
        weighted = replace(spec, alpha_weight=0.3)
        assert weighted.c_minus(CostParam(0.3), 0.2) is None
        loss, calls = counted(make_uneven_loss(weighted))
        for eta in (0.2, np.array(etas)):
            calls.clear()
            constrained_optimal_risk(loss, CostParam(0.3), eta)
            assert calls

    @pytest.mark.parametrize("spec", SUPPORTED_SPECS, ids=repr)
    def test_t_star_attains_c_star(self, spec):
        if spec.alpha_weight is not None:
            assert spec.t_star(0.3) is None
            return
        loss = make_uneven_loss(spec)
        for eta in ROUTING_ETAS + [1e-12, 0.35, 1.0 - 1e-12]:
            risk = conditional_risk(loss, eta, spec.t_star(eta))
            assert risk == pytest.approx(spec.c_star(eta), rel=1e-12, abs=1e-300), eta
        assert UNSUPPORTED_SPECS[-1].t_star(0.3) is None


class TestSigmoidCMinusAtEveryAlpha:
    """The gamma = 2 sigmoid's closed C^- off its own alpha, from its two
    half-line optima."""

    @pytest.mark.parametrize("alpha", [0.02, 0.3, 0.5, 0.7, 0.98])
    def test_matches_the_search(self, alpha):
        loss, cost = make_uneven_loss(SIGMOID_GAMMA2), CostParam(alpha)
        etas = np.linspace(0.0, 1.0, 101)
        rows = no_warnings(constrained_optimal_risk, loss, cost, etas)
        for eta, row in zip(etas.tolist(), rows.tolist()):
            side = "nonnegative_scores" if eta < alpha else "nonpositive_scores"
            ref = brute_force_min(untagged(loss), eta, "none" if eta == alpha else side).value
            for value in (row, constrained_optimal_risk(loss, cost, eta)):
                assert abs(value - ref) <= 1e-9 * ref, (eta, value, ref)

    def test_float_gap_is_zero_where_the_minimizer_is_admissible(self):
        # From alpha to ALPHA_SIGMOID_GAMMA2 the local minimizer is t*, so
        # C^- and C* are one value, float and array alike.
        loss, cost = make_uneven_loss(SIGMOID_GAMMA2), CostParam(0.3)
        etas = np.linspace(0.3, ALPHA_SIGMOID_GAMMA2, 41, endpoint=False)
        assert not h_alpha(loss, cost, etas).any()
        for eta in etas.tolist():
            assert h_alpha(loss, cost, eta) == 0.0, eta
            assert constrained_optimal_risk(loss, cost, eta) == optimal_conditional_risk(loss, eta), eta

    def test_keeps_its_bits_at_its_own_alpha(self):
        # sigmoid_c_minus's form: (1 - eta)/2 on (1/3, 1/2), else (1 + eta)/4,
        # and the local minimum from alpha to 1/2, in numpy.
        a = ALPHA_SIGMOID_GAMMA2
        etas = np.append(np.linspace(0.0, 1.0, 101), a)
        expected = np.where((1.0 / 3.0 < etas) & (etas < 0.5), (1.0 - etas) / 2.0, (1.0 + etas) / 4.0)
        local = (etas >= a) & (etas < 0.5)
        e = etas[local]
        t = sigmoid_t_minus(e)
        expected[local] = e * _phi_sigmoid(t) + 0.5 * (1.0 - e) * _phi_sigmoid(-2.0 * t)
        cost = CostParam(a)
        for values in (sigmoid_c_minus(cost, etas), SIGMOID_GAMMA2.c_minus(cost, etas)):
            assert values.tobytes() == expected.tobytes()
        assert [sigmoid_c_minus(cost, eta) for eta in etas.tolist()] == expected.tolist()

    def test_local_minimum_rounds_to_eta_below_1e_150(self):
        # As C* does: there the array logistic clips its scores, which would
        # add about 5.6e-309 to the local minimum.
        loss, cost = make_uneven_loss(SIGMOID_GAMMA2), CostParam(5e-324)
        etas = np.array([1e-320, 1e-300, 1e-200, 1e-151, 1e-150, 1e-100, 0.1])
        rows = no_warnings(constrained_optimal_risk, loss, cost, etas)
        assert rows.tobytes() == no_warnings(optimal_conditional_risk, loss, etas).tobytes()
        assert rows[:4].tolist() == etas[:4].tolist()
        assert [constrained_optimal_risk(loss, cost, eta) for eta in etas.tolist()] == rows.tolist()


#: (beta, gamma) of the convex reference grid: gamma from 1e-3 to 1e3,
#: beta at both ends, 0.7, 3 and 1/gamma; and every pair of 1e-300, 1 and
#: 1e300, where gamma or beta * gamma lies at an end of the float range.
REFERENCE_PARAMS = [
    (beta, gamma)
    for gamma in (1e-3, 0.02, 0.5, 1.0, 2.0, 50.0, 1e3)
    for beta in (1e-3, 0.7, 3.0, 1.0 / gamma, 1e3)
] + [(beta, gamma) for beta in (1e-300, 1.0, 1e300) for gamma in (1e-300, 1.0, 1e300)]
REFERENCE_ETAS = [0.0, 1e-300, 1e-12, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-12, 1.0]


def reference_optima(family, w_pos, w_neg, gamma, eta, alpha):
    """(C*, C^-) at 50 digits of the risk a phi(t) + b phi(-gamma t), with
    a = eta w_pos and b = (1 - eta) w_neg.  C* is the least risk at the
    hinge's kinks, a b (1 + gamma)^2 / (a + b gamma^2) for the squared loss
    and (1 + gamma) gamma^-q a^q b^p for the exponential (p = 1 / (1 +
    gamma), q = 1 - p), each the risk at its stationary point.  The risk is
    convex with its minimizer of the sign of a - b gamma, so C^- is C*
    where that sign is admissible at alpha, and else the risk at 0, a + b."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a, b, g = mpmath.mpf(eta) * w_pos, (1 - mpmath.mpf(eta)) * w_neg, mpmath.mpf(gamma)
        if family == "hinge":
            c_star = min(a * (1 + 1 / g), b * (1 + g))
        elif family == "squared":
            c_star = a * b * (1 + g) ** 2 / (a + b * g**2)
        else:
            c_star = (1 + g) * g ** (-g / (1 + g)) * a ** (g / (1 + g)) * b ** (1 / (1 + g))
        sign = mpmath.sign(a - b * g)
        admissible = sign <= 0 if eta > alpha else sign >= 0 if eta < alpha else True
        return c_star, c_star if admissible else a + b


class TestConvexClosedForms:
    """Every tagged convex member is served by its closed forms, against a
    50-digit reference, at every alpha, with no partial evaluated."""

    @pytest.mark.parametrize("family", ["hinge", "squared", "exponential"])
    @pytest.mark.parametrize("weight", [None, 0.3])
    def test_against_mpmath(self, family, weight):
        # Within 1e-15 relative, and absolute below the least normal float.
        floor = sys.float_info.min
        for beta, gamma in REFERENCE_PARAMS:
            spec = UnevenMarginSpec(family, beta, gamma, weight)
            w_pos, w_neg = (1.0, beta) if weight is None else (1.0 - weight, weight * beta)
            loss, calls = counted(make_uneven_loss(spec))
            for alpha in (1e-3, 0.3, 0.98):
                cost = CostParam(alpha)
                rows = [
                    optimal_conditional_risk(loss, np.array(REFERENCE_ETAS)),
                    constrained_optimal_risk(loss, cost, np.array(REFERENCE_ETAS)),
                ]
                for i, eta in enumerate(REFERENCE_ETAS):
                    refs = reference_optima(family, w_pos, w_neg, gamma, eta, alpha)
                    floats = optimal_conditional_risk(loss, eta), constrained_optimal_risk(loss, cost, eta)
                    for value, row, ref in zip(floats, rows, refs):
                        for v in (value, row[i]):
                            assert abs(v - ref) <= 1e-15 * max(ref, floor), (spec, alpha, eta, v)
            assert calls == []

    @pytest.mark.parametrize("family", ["hinge", "squared", "exponential"])
    @pytest.mark.parametrize("beta,gamma,weight", [(0.5, 2.0, 0.3), (1e3, 1e-3, 0.9), (1e306, 1.0, 0.999)])
    def test_weighted_c_star_near_the_ends(self, family, beta, gamma, weight):
        # A weighted member is w1 times the unweighted one with beta' = w2 /
        # w1, so no 1 - theta cancels near eta = 1 (it read 3.7e-5 off at
        # weight 0.3), and where beta' = 9.99e308 overflows the far forms
        # take the masses.
        spec = UnevenMarginSpec(family, beta, gamma, weight)
        etas = [1.0 - 1e-12, 1.0 - 1e-9, 1e-12, 0.5]
        rows = no_warnings(spec.c_star, np.array(etas))
        for eta, row in zip(etas, rows.tolist()):
            ref = reference_optima(family, 1.0 - weight, weight * beta, gamma, eta, 0.5)[0]
            for value in (no_warnings(spec.c_star, eta), row):
                assert abs(value - ref) <= 1e-15 * ref, (eta, value)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["hinge", "squared", "exponential"]),
        *[st.floats(-300.0, 300.0).map(lambda x: 10.0**x)] * 2,
        st.one_of(st.none(), st.floats(1e-6, 1.0 - 1e-6)),
        st.floats(1e-9, 1.0 - 1e-9),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    )
    def test_any_member_at_any_alpha_is_closed(self, family, beta, gamma, weight, alpha, etas):
        loss, calls = counted(make_uneven_loss(UnevenMarginSpec(family, beta, gamma, weight)))
        cost = CostParam(alpha)
        for request in (optimal_conditional_risk, lambda l, e: h_alpha(l, cost, e)):
            values = [no_warnings(request, loss, np.array(etas))]
            values += [no_warnings(request, loss, eta) for eta in etas]
            assert np.isfinite(np.concatenate(values, axis=None)).all()
        assert calls == []

    @pytest.mark.parametrize("family", ["hinge", "squared", "exponential"])
    def test_no_partial_is_evaluated_and_nothing_warns(self, family):
        # C*, C^- and H, float and array, at the calibrating alpha and off
        # it, finite everywhere: at the ends of the range too, where k =
        # beta * gamma overflows or underflows.
        etas = np.array(REFERENCE_ETAS + [0.5 + 1e-12])
        for beta, gamma in REFERENCE_PARAMS:
            for weight in (None, 1e-3, 0.3, 0.999):
                loss, calls = counted(make_uneven_loss(UnevenMarginSpec(family, beta, gamma, weight)))
                d1, d2 = loss.pos.deriv_at_zero, loss.neg.deriv_at_zero
                calibrating = d2 / (d2 - d1) if d2 < math.inf else 1.0
                for alpha in {0.5, 1e-3, 0.98, min(max(calibrating, 1e-300), 1.0 - 1e-16)}:
                    cost = CostParam(alpha)
                    for request in (
                        lambda e: optimal_conditional_risk(loss, e),
                        lambda e: constrained_optimal_risk(loss, cost, e),
                        lambda e: h_alpha(loss, cost, e),
                    ):
                        values = [no_warnings(request, etas)]
                        values += [no_warnings(request, eta) for eta in etas.tolist()]
                        assert np.isfinite(np.concatenate(values, axis=None)).all()
                assert calls == []


class TestLogistic:
    """The sigmoid family's phi(t) = 1 / (1 + e^t), computed without scipy."""

    def test_import_leaves_scipy_out(self):
        src = os.path.dirname(os.path.dirname(costcal.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, costcal, costcal.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"

    @settings(max_examples=300, deadline=None)
    @given(st.floats(max_value=709.0))
    def test_float_path_is_libm(self, t):
        assert _phi_sigmoid(t) == 1.0 / (1.0 + math.exp(t))
        assert _phi_sigmoid(np.float64(t)) == 1.0 / (1.0 + math.exp(t))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=710.0))
    def test_float_path_is_zero_past_exp_overflow(self, t):
        assert _phi_sigmoid(t) == 0.0

    def test_array_path_within_4_ulp_of_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(5)
        ts = np.concatenate(
            [
                np.linspace(-745.0, 709.0, 1501),
                rng.uniform(-745.0, 709.0, 500),
                rng.normal(0.0, 4.0, 500),
            ]
        )
        values = _phi_sigmoid(ts)
        with mpmath.workdps(50):
            for t, value in zip(ts.tolist(), values.tolist()):
                ref = 1 / (1 + mpmath.exp(mpmath.mpf(t)))
                assert abs(value - ref) <= 4 * np.spacing(float(ref)), t

    def test_array_path_beyond_exp_range(self):
        high = _phi_sigmoid(np.array([709.8, 710.0, 1e5, 1e300, np.inf]))
        assert np.all((high >= 0.0) & (high < 6e-309))
        np.testing.assert_array_equal(_phi_sigmoid(np.array([-746.0, -1e300, -np.inf])), 1.0)

    @pytest.mark.parametrize("t", [1e300, -1e300])
    def test_no_warning_at_huge_scores(self, t):
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            scalar = _phi_sigmoid(t)
            row = _phi_sigmoid(np.array([t]))[0]
        if t > 0:
            assert scalar == 0.0 and 0.0 <= row < 6e-309
        else:
            assert scalar == row == 1.0


class TestHinge:
    """The hinge family's phi(t) = max(0, 1 - t): the float path skips the ufunc."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False))
    def test_float_path_is_the_array_path(self, t):
        row = _phi_hinge(np.array([t]))[0]
        for scalar in (_phi_hinge(t), _phi_hinge(np.float64(t))):
            assert float(scalar).hex() == float(row).hex()

    def test_float_path_keeps_nan(self):
        assert math.isnan(_phi_hinge(math.nan))
        assert math.isnan(_phi_hinge(np.float64("nan")))


def mp_phi(family, t):
    """The family's margin function at the exact score t, in mpmath."""
    import mpmath

    if family == "hinge":
        return max(mpmath.mpf(0), 1 - t)
    if family == "squared":
        return (1 - t) ** 2
    if family == "exponential":
        return mpmath.exp(-t)
    return 1 / (1 + mpmath.exp(t))


#: The largest magnitude whose square is finite.
_SQRT_MAX = math.sqrt(sys.float_info.max)
_LOG_MAX = math.log(sys.float_info.max)


class TestScoresPastTheFloatRange:
    """A float score whose loss overflows gives +inf: no exception, no warning."""

    @pytest.mark.parametrize("t", [1e200, -1e200, 1e300, -1e300, -1000.0])
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_conditional_risk_against_mpmath(self, family, t):
        mpmath = pytest.importorskip("mpmath")
        for beta, gamma in ((1.0, 1.0), (0.5, 2.0)):
            loss = make_uneven_loss(UnevenMarginSpec(family, beta, gamma))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = conditional_risk(loss, 0.5, t)
            with mpmath.workdps(50):
                mt = mpmath.mpf(t)
                ref = float(0.5 * mp_phi(family, mt) + 0.5 * beta * mp_phi(family, -gamma * mt))
            assert value == pytest.approx(ref, rel=1e-12), (beta, gamma)

    @pytest.mark.parametrize("t", [1e200, -1e200, -1000.0])
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_numpy_scalar_score_gets_the_float_result(self, family, t):
        for beta, gamma in ((1.0, 1.0), (0.5, 2.0)):
            loss = make_uneven_loss(UnevenMarginSpec(family, beta, gamma))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = conditional_risk(loss, 0.5, np.float64(t))
            assert value == conditional_risk(loss, 0.5, t), (beta, gamma)
            assert type(value) is float

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_finite_diff_check_does_not_warn(self, family):
        loss = make_uneven_loss(UnevenMarginSpec(family, 1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (-800.0, -1e200, 1e200):
                finite_diff_check(loss.pos, t)
                finite_diff_check(loss.neg, t)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-1e150, max_value=1e150))
    def test_squared_float_path_is_the_power(self, t):
        # d * d, numpy's array power: a float's or a numpy scalar's ``** 2``
        # differs from it in the last bit for about 1 score in 1000.
        power = ((1.0 - np.array([t])) ** 2).item()
        assert _phi_squared(t) == power and _phi_squared(np.float64(t)) == power

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-_LOG_MAX, allow_nan=False))
    def test_exponential_float_path_is_numpy_exp(self, t):
        assert _phi_exponential(t) == np.exp(-t)

    def test_overflow_thresholds(self):
        assert math.isfinite(_phi_exponential(-_LOG_MAX))
        assert _phi_exponential(math.nextafter(-_LOG_MAX, -math.inf)) == math.inf
        for t in (1.0 - _SQRT_MAX, 1.0 + _SQRT_MAX):
            assert math.isfinite(_phi_squared(t))
            assert _phi_squared(math.nextafter(t, math.copysign(math.inf, t))) == math.inf
        assert math.isnan(_phi_exponential(math.nan))
        assert math.isnan(_phi_squared(math.nan))
