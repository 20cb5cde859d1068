"""Calibration verdicts, calibration functions, and the suffix-infimum curve."""

import math
import re
from dataclasses import replace
from itertools import zip_longest
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from costcal import calibration, curves, oracle
from costcal import (
    ALPHA_SIGMOID_GAMMA2,
    CostParam,
    DomainError,
    Knot,
    PartialLoss,
    Loss,
    PreconditionError,
    SampledCurve,
    alpha_of_gamma,
    alpha_transform,
    biconjugate,
    brute_force_min,
    calibration_fn,
    check_calibrated,
    check_calibrated_analytic,
    check_calibrated_numeric,
    constrained_optimal_risk,
    envelope_eval,
    h_alpha,
    mu_curve,
    nu_curve,
    uniform_calibration_fn,
)

from conftest import (
    HALF_LINE,
    INFINITE_ON_NEGATIVES,
    NAN_FAR,
    UNDECLARED_LIMIT,
    cost_sensitive_loss,
    counted,
    curve_bits,
    edge_nan_loss,
    evaluations,
    knot_curves,
    reference_mu,
    uneven,
    untagged,
)


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

    def test_an_overflowed_derivative_is_not_calibrated(self):
        # beta * gamma overflows, so L-1'(0) is inf and the weighted sum of
        # the derivatives is inf; it once passed the tolerance, inf <= inf.
        loss = uneven("hinge", gamma=1e300, beta=1e300)
        report = check_calibrated_analytic(loss, CostParam(1e-3))
        assert report.derivative_checks[1] == math.inf
        assert report.verdict == "not_calibrated"

    def test_symmetric_margin_hinge_calibrated_at_half(self):
        loss = uneven("hinge", gamma=1.0, beta=1.0)
        assert check_calibrated_analytic(loss, CostParam(0.5)).verdict == "calibrated"

    def test_nonconvex_loss_refused(self):
        loss = uneven("sigmoid", gamma=2.0)
        with pytest.raises(PreconditionError):
            check_calibrated_analytic(loss, CostParam(0.5))

    def test_missing_derivative_refused(self):
        partial = PartialLoss(fn=lambda t: abs(t), is_convex=True)
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

    @pytest.mark.parametrize("tolerance", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_rejects_a_tolerance_outside_zero_to_inf(self, tolerance):
        # Uncalibrated by both methods: a negative or NaN tolerance would
        # find no gap at or below it and call the loss calibrated.
        loss, cost = uneven("hinge", gamma=2.0, beta=0.5), CostParam(0.7)
        assert check_calibrated_analytic(loss, cost).verdict == "not_calibrated"
        assert check_calibrated_numeric(loss, cost, 201, 0.0).verdict == "not_calibrated"
        with pytest.raises(DomainError, match="tolerance"):
            check_calibrated_numeric(loss, cost, 201, tolerance)

    def test_a_zero_gap_reads_exactly_zero(self):
        # Between this member's calibrating alpha, 0.3, and alpha = 0.98 the
        # minimizer is admissible, so C^- is C* and the gap is 0: once the
        # search's 8.2e-13, which read calibrated at tolerance 0.
        loss, cost = uneven("hinge", 1.0, 1.0, 0.3), CostParam(0.98)
        assert h_alpha(loss, cost, 0.5) == 0.0
        report = check_calibrated_numeric(loss, cost, 3, 0.0)
        assert report.verdict == check_calibrated_analytic(loss, cost).verdict == "not_calibrated"
        assert (0.5, 0.0) in report.witnesses
        # Where the minimizer's sign turns, eta = 1/2 for this hinge (beta *
        # gamma is 1.0), the minimizer is 0, so C^- is C* there too.
        loss, cost = uneven("hinge", 1e-3), CostParam(0.02)
        assert h_alpha(loss, cost, 0.5) == h_alpha(loss, cost, np.array([0.5]))[0] == 0.0
        assert check_calibrated_numeric(loss, cost, 3, 0.0).verdict == "not_calibrated"

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
        # The least knot value at or past eps = 0.2, as min() finds it.  No
        # gap is NaN: the search that reads a NaN risk raises, here first at
        # the posterior nan_at past alpha, whatever its knot's place.
        alpha = self.COST.alpha
        if nan_at is not None:
            loss = edge_nan_loss(alpha + nan_at - 0.01, "right")
            with pytest.raises(DomainError, match="conditional risk is NaN at eta=") as error:
                uniform_calibration_fn(loss, self.COST, 0.2, 11)
            assert float(str(error.value).rpartition("=")[2]) == pytest.approx(alpha + nan_at)
            return

        def gaps(loss, cost, etas):
            return 2.0 - np.abs(etas - cost.alpha)

        monkeypatch.setattr(curves, "h_alpha", gaps)
        value = uniform_calibration_fn(self.LOSS, self.COST, 0.2, 11)
        nu = nu_curve(self.LOSS, self.COST, 11, extra_knots=(0.2,))
        expected = min(k.value for k in nu.knots if k.eps >= 0.2)
        assert type(value) is float
        assert value == expected and not math.isnan(value)

    @pytest.mark.parametrize("grid_size", [0, 1, 2])
    def test_rejects_grids_below_three(self, grid_size):
        with pytest.raises(DomainError):
            uniform_calibration_fn(self.LOSS, self.COST, 0.2, grid_size)


class TestIntegerGridSize:
    """Every grid size is checked to be an integer (numpy's too) before use."""

    LOSS = uneven("hinge", gamma=2.0, alpha_weight=0.3)
    COST = CostParam(0.3)
    CALLS = {
        "nu_curve": lambda loss, cost, g: nu_curve(loss, cost, g),
        "check_calibrated_numeric": lambda loss, cost, g: check_calibrated_numeric(
            loss, cost, g
        ),
        "uniform_calibration_fn": lambda loss, cost, g: uniform_calibration_fn(
            loss, cost, 0.2, g
        ),
        "regret_bound": lambda loss, cost, g: calibration.regret_bound(loss, cost, 0.1, g),
    }

    @pytest.mark.parametrize("grid_size", [5.0, np.float64(5.0), 201.5, "201", None])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_rejects_a_grid_size_that_is_not_an_integer(self, name, grid_size):
        with pytest.raises(DomainError, match="grid_size must be an integer"):
            self.CALLS[name](self.LOSS, self.COST, grid_size)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_numpy_integers_accepted(self, name):
        call = self.CALLS[name]
        got, want = call(self.LOSS, self.COST, np.int64(51)), call(self.LOSS, self.COST, 51)
        if name == "nu_curve":
            got, want = curve_bits(got), curve_bits(want)
        assert got == want

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_a_grid_too_large_to_allocate_is_a_domain_error(self, name):
        # numpy refuses 7.11 PiB at once, so nothing is allocated.
        with pytest.raises(DomainError, match="^grid_size=1000000000000000 is too large") as error:
            self.CALLS[name](self.LOSS, self.COST, 10**15)
        assert isinstance(error.value.__cause__, MemoryError)

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
    min() finds it: the first least value.  A search that reads a NaN risk
    raises ``DomainError`` naming the first coarse posterior it reads it at."""

    @pytest.mark.parametrize("nan_at", [None, 0, 1, 3])
    def test_first_least_gap_as_min_picks_it(self, monkeypatch, nan_at):
        etas = [e for e in np.linspace(0.0, 1.0, 11).tolist() if abs(e - 0.3) > 1.0 / 22.0]
        if nan_at is not None:
            # Read below the threshold on the left, above it on the right.
            loss = (
                edge_nan_loss(0.5, "left")
                if nan_at == 0
                else edge_nan_loss((etas[nan_at - 1] + etas[nan_at]) / 2.0, "right")
            )
            with pytest.raises(DomainError, match=re.escape(f"NaN at eta={etas[nan_at]!r}") + "$"):
                check_calibrated_numeric(loss, CostParam(0.3), 11)
            return

        def gaps(loss, cost, etas, tolerance):
            values = 1.0 + (etas - 0.5) ** 2
            values[np.argmin(values) + 2] = values.min()  # a tie after the minimum
            return values

        monkeypatch.setattr(calibration, "_verdict_gaps", gaps)
        report = check_calibrated_numeric(uneven("hinge", gamma=1.0), CostParam(0.3), 11)
        values = gaps(None, None, np.array(etas), 0.0).tolist()
        expected = min(zip(etas, values), key=lambda ev: ev[1])
        assert report.verdict == "calibrated"
        assert repr(report.witnesses) == repr((expected,))
        assert [type(x) for x in report.witnesses[0]] == [float, float]


def verdict_outcome(loss, cost, grid_size, tolerance):
    """The numeric verdict's report as its repr, or its error's type and
    message."""
    try:
        return repr(check_calibrated_numeric(loss, cost, grid_size, tolerance))
    except Exception as error:
        return type(error), str(error)


def full_search_outcome(loss, cost, grid_size, tolerance):
    """The reference: ``h_alpha`` on every coarse posterior, then the
    verdict's own reduction and refinement."""
    def every_gap(loss, cost, etas, tolerance):
        return h_alpha(loss, cost, etas)

    with mock.patch.object(calibration, "_verdict_gaps", every_gap):
        return verdict_outcome(loss, cost, grid_size, tolerance)


def declared_edge_nan_loss(threshold: float, edge: str) -> Loss:
    """``edge_nan_loss`` declared convex with its derivatives at 0, so the
    derivative test serves C^- at alpha = ``threshold`` and the verdict
    there bounds its gaps by a floor."""
    loss = edge_nan_loss(threshold, edge)
    return Loss(
        pos=replace(loss.pos, is_convex=True, deriv_at_zero=threshold - 1.0),
        neg=replace(loss.neg, is_convex=True, deriv_at_zero=threshold),
    )


def calibrated_alpha(loss: Loss) -> float:
    """The alpha the derivative test calls calibrated for a convex family
    member, or the sigmoid's alpha(gamma)."""
    if not loss.pos.is_convex:
        return alpha_of_gamma(loss.family.gamma)
    d1, d2 = loss.pos.deriv_at_zero, loss.neg.deriv_at_zero
    return d2 / (d2 - d1)


@st.composite
def verdict_requests(draw):
    family = draw(st.sampled_from(["hinge", "squared", "exponential", "sigmoid"]))
    gamma = draw(st.sampled_from([1e-3, 0.25, 1.0, 4.0, 1e3]))
    beta = draw(st.sampled_from([1.0 / gamma, 0.7]))
    loss = uneven(family, gamma, beta, draw(st.sampled_from([None, 0.3])))
    alpha = draw(st.sampled_from([calibrated_alpha(loss), 0.02, 0.3, 0.5, 0.98]))
    if draw(st.booleans()):
        loss = untagged(loss)
    grid_size = draw(st.sampled_from([3, 11, 1001]))
    return loss, CostParam(alpha), grid_size, draw(st.sampled_from([0.0, 1e-9, 1e-3]))


#: Untagged convex members the derivative test does not call calibrated,
#: so C^- is searched: (family, gamma, beta, alpha_weight, alpha).
NOT_CALIBRATED_CONVEX = [
    ("hinge", 2.0, 0.7, None, 0.3),
    ("squared", 2.0, None, 0.3, 0.5),
    ("exponential", 2.0, None, None, 0.8),
]


class TestBoundedCoarseSearch:
    """A numeric verdict searches only the coarse posteriors whose gap
    floor cannot rule them out, and reports exactly what searching them all
    reports."""

    @given(verdict_requests())
    @settings(max_examples=25, deadline=None)
    def test_report_equals_the_full_search(self, drawn):
        assert verdict_outcome(*drawn) == full_search_outcome(*drawn)

    @pytest.mark.parametrize("grid_size", [3, 11, 1001])
    @pytest.mark.parametrize(
        "loss, alpha",
        [
            (HALF_LINE, 0.3),
            (NAN_FAR, 0.5),
            (UNDECLARED_LIMIT, 0.5),
            (INFINITE_ON_NEGATIVES, 0.3),
            (edge_nan_loss(0.5, "left"), 0.3),
            (edge_nan_loss(0.4, "right"), 0.3),
            # Floored, and a NaN read off the grid scores: the first round
            # reads it at a posterior after the grid's first.
            (declared_edge_nan_loss(0.3, "left"), 0.3),
            (declared_edge_nan_loss(0.7, "right"), 0.7),
        ],
    )
    def test_hand_built_losses_as_the_full_search(self, loss, alpha, grid_size):
        request = loss, CostParam(alpha), grid_size, 1e-9
        assert verdict_outcome(*request) == full_search_outcome(*request)

    @pytest.mark.parametrize("tolerance", [0.0, 1e-9, 1e-3])
    @pytest.mark.parametrize("grid_size", [3, 11, 1001])
    @pytest.mark.parametrize(
        "family, gamma, beta, weight",
        [("hinge", 4.0, 0.25, None), ("squared", 0.25, 0.7, 0.3), ("exponential", 1e3, 0.7, None)],
    )
    def test_floored_verdicts_as_the_full_search(self, family, gamma, beta, weight, grid_size, tolerance):
        loss = untagged(uneven(family, gamma, beta, weight))
        request = loss, CostParam(calibrated_alpha(loss)), grid_size, tolerance
        assert verdict_outcome(*request) == full_search_outcome(*request)

    @pytest.mark.parametrize("c_minus_searched", [False, True])
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, 1e-9, 1.0, math.inf]), st.floats(0.0, 2.0)),
                st.sampled_from([0.0, 1e-9, 0.5, 4.0]),
                st.sampled_from([-4.0, -0.5, 0.0, 0.5, 4.0]),
            ),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from([0.0, 1e-9, 0.5]),
    )
    # The least gap lies past the first round's least floors, above the tolerance.
    @example([(1.0, 4.0, 0.0)] * 4 + [(0.5, 0.0, 0.0)], 0.0)
    # NaN gaps, in a float round and in row rounds of more than _FLOAT_ROUND.
    @example([(math.nan, 4.0, 0.0), (0.0, 0.0, 0.0)], 0.0)
    @example([(0.5, 4.0, 0.0)] * 36 + [(math.nan, 0.0, 0.0)] + [(1e-9, 0.0, 0.0)] * 3, 1e-9)
    @example([(math.nan, 4.0, 0.0)] + [(0.5, 0.5, 0.0)] * 38 + [(math.nan, 0.0, 0.0)], 0.0)
    # Searched C^-: a tent, 0 at both ends, with gaps under the tolerance
    # inside the chords' intervals next to each end.
    @example([(0.0, 0.0, 4.0)] + [(math.inf, 0.0, 0.0)] * 38 + [(0.0, 0.0, -4.0)], 0.5)
    @settings(max_examples=200, deadline=None)
    def test_rounds_keep_what_the_report_reads(self, c_minus_searched, rows, tolerance):
        # Private by need: no public loss gives drawn gaps and ceilings.
        # Drawn gaps, each as C^- with C* 0, and a ceiling at least 0, so
        # each floor is at most the gap (a ceiling of 4 floors any finite
        # gap at 0): the rounds leave every gap at or under the tolerance
        # exact, and the first least gap where argmin finds it.  An
        # example's NaN floor rules nothing out, so a NaN gap is searched
        # and raises, naming the first NaN posterior as the full search
        # does.  Posterior i is (i + 1) / 64, in order of nearness to alpha
        # = 2^-10.  Where C^- is searched, it is concave on alpha's side, as
        # every loss's is, for its chords to floor it: the least of the
        # drawn affine functions of eta, row i's through its gap at its own
        # posterior with its drawn slope (a NaN one drops out, unless all do).
        gaps = np.array([gap for gap, _, _ in rows])
        ceiling = np.array([ceiling for _, ceiling, _ in rows])
        etas = np.arange(1.0, len(gaps) + 1.0) / 64.0
        if c_minus_searched:
            slopes = np.array([slope for _, _, slope in rows])
            gaps = np.fmin.reduce(gaps[:, None] + slopes[:, None] * (etas - etas[:, None]), axis=0)

        def gap_at(eta):
            return gaps[(np.asarray(eta) * 64.0).astype(int) - 1]

        def closed(loss, cost, eta):  # C^-, unless searched; C* is searched
            if cost is None or c_minus_searched:
                return None
            return gap_at(eta) if isinstance(eta, np.ndarray) else gap_at(eta).item()

        def search_rows(loss, eta, *codes):  # C^- where a code is nonzero, C* = 0
            assert c_minus_searched or not any(code.any() for code in codes)
            values = (np.where(code != 0, gap_at(eta), 0.0) for code in codes)
            return [oracle.SearchResult(np.zeros(eta.shape), value) for value in values]

        def search_float(loss, eta, code):
            assert code == 0 and not c_minus_searched
            return oracle.SearchResult(0.0, 0.0)

        with mock.patch.object(oracle, "_closed", closed), \
                mock.patch.object(oracle, "_c_star_ceiling", lambda loss, etas: ceiling.copy()), \
                mock.patch.object(oracle, "_search_rows", search_rows), \
                mock.patch.object(oracle, "_search_float", search_float):
            request = untagged(uneven("hinge", 2.0)), CostParam(2.0**-10), etas, tolerance
            if np.isnan(gaps).any():
                first_nan = etas[np.isnan(gaps)][0].item()
                with pytest.raises(DomainError, match=re.escape(f"at eta={first_nan!r}")):
                    oracle._verdict_gaps(*request)
                return
            found = oracle._verdict_gaps(*request)
        gaps = np.where(0.0 > gaps, 0.0, gaps)  # a negative C^- less C* = 0 is a gap of 0
        low = gaps <= tolerance
        assert ((found <= tolerance) == low).all() and (found[low] == gaps[low]).all()
        i = gaps.argmin()
        assert found.argmin() == i and repr(found[i]) == repr(gaps[i])
        if c_minus_searched:  # the first posteriors get their gaps with C^-
            first = slice(oracle._FIRST_SEARCHED)
            assert found[first].tobytes() == gaps[first].tobytes()

    @staticmethod
    def evaluations(loss, cost, *request) -> tuple[list, int]:
        """The verdict's partial evaluations: the size of each array one
        after the two grid tables, and the number of float ones."""
        loss, calls = counted(loss)
        check_calibrated_numeric(loss, cost, *request)
        sizes, floats = evaluations(calls)
        assert sizes[:2] == [801, 801]
        return sizes[2:], floats

    @staticmethod
    def coarse(alpha, grid_size=1001) -> np.ndarray:
        """The verdict's coarse posteriors: the uniform grid outside half a
        step of alpha."""
        grid = np.linspace(0.0, 1.0, grid_size)
        return grid[np.abs(grid - alpha) > 1.0 / (2.0 * grid_size)]

    @staticmethod
    def one_row_search(loss, *requests) -> list:
        """The array evaluations of one row search on the rows of every
        request together, each request a public array call on a loss.  A
        row's golden section takes the same steps whatever rows run beside
        it, so each evaluation of the one search is the sum of the rows the
        requests' own searches have running at that step."""
        sizes = []
        for request in requests:
            counted_loss, calls = counted(loss)
            request(counted_loss)
            request_sizes, floats = evaluations(calls)
            assert request_sizes[:2] == [801, 801] and floats == 0
            sizes.append(request_sizes[2:])
        return [sum(step) for step in zip_longest(*sizes, fillvalue=0)]

    #: A calibrated convex verdict's float evaluations: each partial at the
    #: score 0 once, for C^-'s shortcut, and four float gap searches.
    CALIBRATED_FLOATS = {"hinge": 346, "squared": 256, "exponential": 256}

    @pytest.mark.parametrize("family", ["hinge", "squared", "exponential"])
    def test_calibrated_convex_verdict_runs_a_handful_of_float_searches(self, family):
        loss = untagged(uneven(family, gamma=3.0, beta=0.7, alpha_weight=0.3))
        rows, floats = self.evaluations(loss, CostParam(calibrated_alpha(loss)))
        assert rows == [] and floats == self.CALIBRATED_FLOATS[family]

    @pytest.mark.parametrize("family, floats", [("hinge", 312), ("squared", 303), ("exponential", 330)])
    def test_a_round_past_the_crossover_is_one_row_search(self, monkeypatch, family, floats):
        # A floor of 0 rules nothing out: after the first round's four float
        # searches, the 996 posteriors left are searched in one round, as
        # rows.  Private by need: no public loss has a ceiling of +inf.
        loss = untagged(uneven(family, gamma=3.0, beta=0.7, alpha_weight=0.3))
        request = loss, CostParam(calibrated_alpha(loss)), 1001, 1e-9

        def zero_floor(loss, etas):  # an infinite ceiling floors every gap at 0
            return np.full(etas.shape, np.inf)

        monkeypatch.setattr(oracle, "_c_star_ceiling", zero_floor)
        rows, float_evaluations = self.evaluations(*request)
        # Every floor is 0, so the first round takes the first four.
        rest = self.coarse(request[1].alpha)[4:]
        assert rows == self.one_row_search(loss, lambda loss: brute_force_min(loss, rest))
        assert float_evaluations == floats
        monkeypatch.undo()
        with mock.patch.object(oracle, "_c_star_ceiling", zero_floor):
            assert verdict_outcome(*request) == full_search_outcome(*request)

    @staticmethod
    def first_search(loss, cost) -> tuple[list, np.ndarray]:
        """Where C^- is searched, the array evaluations of the verdict's
        first row search, and the coarse posteriors whose C* it finds.  It
        searches C^- at every ``_CHORD_STEP``-th posterior of each side of
        alpha and at both ends of the side, whose chords floor C^- between
        them, and at the four posteriors nearest alpha; and C* at those
        four.  Private by need: no public call gives the chords' step."""
        etas = TestBoundedCoarseSearch.coarse(cost.alpha)
        nearest = etas[np.argsort(np.abs(etas - cost.alpha), kind="stable")[:4]]
        below, above = etas[etas < cost.alpha], etas[etas > cost.alpha]
        step = oracle._CHORD_STEP
        knots = np.union1d(np.concatenate([below[::step], below[-1:], above[::step], above[-1:]]), nearest)
        sizes = TestBoundedCoarseSearch.one_row_search(
            loss,
            lambda loss: constrained_optimal_risk(loss, cost, knots),
            lambda loss: brute_force_min(loss, nearest),
        )
        assert sizes[0] == knots.size + nearest.size
        return sizes, nearest

    @pytest.mark.parametrize("tagged, gamma", [(False, 3.0), (True, 0.5)])
    def test_calibrated_sigmoid_verdict_is_one_row_search(self, tagged, gamma):
        # C^- is searched at the chords' knots and C* at the four nearest
        # alpha, in one search of 40 rows, not the 1004 of C^- at every
        # coarse posterior; their gaps and the chords rule out the rest.
        loss = uneven("sigmoid", gamma=gamma)
        loss = loss if tagged else untagged(loss)
        cost = CostParam(alpha_of_gamma(gamma))
        rows, floats = self.evaluations(loss, cost)
        assert floats == 0 and rows[0] == 40
        assert rows == self.first_search(loss, cost)[0]

    @pytest.mark.parametrize("family, gamma, beta, weight, alpha", NOT_CALIBRATED_CONVEX)
    def test_searched_c_minus_rounds_are_row_searches(self, family, gamma, beta, weight, alpha):
        # Not calibrated, so the gap is 0 on a stretch of posteriors.  After
        # the first search, whose least gap is 0, one round searches C^- and
        # C* together, as ``h_alpha`` on an array does, at every posterior
        # the floors leave: those of least gap, each gap at or under the
        # tolerance and a few more.  Then the refinement pass searches rows
        # within a coarse step of each gap under the tolerance, alpha's
        # tenth of a half step left out.  No other round follows, and no
        # search is a float search: C^- comes from the floors' own search.
        loss = untagged(uneven(family, gamma, beta, weight))
        cost = CostParam(alpha)
        rows, floats = self.evaluations(loss, cost)
        first, nearest = self.first_search(loss, cost)
        assert floats == 0 and rows[: len(first)] == first
        etas = self.coarse(alpha)
        gaps = h_alpha(loss, cost, etas)
        rest = ~np.isin(etas, nearest)
        searched = rows[len(first)] // 2  # its first step evaluates C^- and C* at each
        assert (gaps[rest] <= 1e-9).sum() <= searched <= (gaps[rest] <= 1e-9).sum() + 8
        least = np.sort(etas[rest][np.argsort(gaps[rest], kind="stable")[:searched]])
        bad = etas[gaps <= 1e-9]
        near = np.linspace(np.maximum(bad - 1e-3, 0.0), np.minimum(bad + 1e-3, 1.0), 21, axis=1)
        near = near[np.abs(near - alpha) > 1.0 / 20020.0]
        later = self.one_row_search(loss, lambda loss: h_alpha(loss, cost, least))
        refinement = self.one_row_search(loss, lambda loss: h_alpha(loss, cost, near))
        assert rows == first + later + refinement

    @pytest.mark.parametrize("alpha", ["at", "below", "above", 0.3, 0.7])
    @pytest.mark.parametrize("tagged", [False, True])
    @pytest.mark.parametrize("gamma", [1e-3, 0.5, 3.0, 1e3])
    def test_sigmoid_verdicts_as_the_full_search(self, gamma, tagged, alpha):
        loss = uneven("sigmoid", gamma=gamma)
        loss = loss if tagged else untagged(loss)
        offset = {"at": 0.0, "below": -1e-4, "above": 1e-4}
        alpha = alpha_of_gamma(gamma) + offset[alpha] if alpha in offset else alpha
        request = loss, CostParam(alpha), 1001, 1e-9
        assert verdict_outcome(*request) == full_search_outcome(*request)

    @pytest.mark.parametrize("family, gamma, beta, weight, alpha", NOT_CALIBRATED_CONVEX)
    def test_not_calibrated_convex_verdicts_as_the_full_search(
        self, family, gamma, beta, weight, alpha
    ):
        loss = untagged(uneven(family, gamma, beta, weight))
        request = loss, CostParam(alpha), 1001, 1e-9
        assert verdict_outcome(*request) == full_search_outcome(*request)


class TestCheckCalibrated:
    def test_convex_partials_get_the_analytic_verdict(self):
        loss, cost = uneven("hinge", gamma=2.0, alpha_weight=0.3), CostParam(0.3)
        assert check_calibrated(loss, cost) == check_calibrated_analytic(loss, cost)

    def test_nonconvex_partials_get_the_numeric_verdict(self):
        loss, cost = uneven("sigmoid", gamma=2.0), CostParam(ALPHA_SIGMOID_GAMMA2)
        report = check_calibrated(loss, cost)
        assert report == check_calibrated_numeric(loss, cost)
        assert report.method == "numeric_grid"


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
        curve = SampledCurve(0.6, [0.0, 0.2, 0.4, 0.6], [0.0, 0.1, 0.3, 0.3], ["both"] * 4)
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
        curve = SampledCurve(0.7, [0.0, 0.2, 0.4, 0.7], [0.0, 0.3, 0.1, 0.5], ["both"] * 4)
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
            mu_curve(SampledCurve(0.0, [], [], []))

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
            sides = ["both"] * (xs.size + 1)
            curve = SampledCurve(float(xs[-1]), np.r_[0.0, xs], np.r_[0.0, values], sides)
            env_a = biconjugate(curve)
            env_b = biconjugate(mu_curve(curve))
            for k in curve.knots:
                assert envelope_eval(env_a, k.eps) == pytest.approx(
                    envelope_eval(env_b, k.eps), abs=1e-9
                )
