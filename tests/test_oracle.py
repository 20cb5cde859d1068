"""Brute-force search, finite differences, empirical regrets, and fuzzing."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costcal import (
    ALPHA_SIGMOID_GAMMA2,
    CostParam,
    DecisionAssignment,
    DomainError,
    FiniteDistribution,
    Loss,
    PartialLoss,
    brute_force_min,
    check_calibrated_numeric,
    closed_forms,
    empirical_regrets,
    finite_diff_check,
    fuzz_bound,
    h_alpha,
    nu_curve,
)
from costcal import oracle
from costcal.families import UnevenMarginSpec

from conftest import uneven, untagged

CONSTRAINTS = ("none", "nonpositive_scores", "nonnegative_scores")
#: Untagged family members, so every optimum comes from the search.
SEARCHED = {
    "hinge": untagged(uneven("hinge", gamma=2.0)),
    "squared-weighted": untagged(uneven("squared", gamma=0.5, alpha_weight=0.3)),
    "exponential": untagged(uneven("exponential", gamma=3.0, beta=1.0)),
    "sigmoid": untagged(uneven("sigmoid", gamma=2.0)),
    "sigmoid-gamma3": untagged(uneven("sigmoid", gamma=3.0)),
}


def assert_batch_matches_scalar(loss, etas, constraint):
    batch = brute_force_min(loss, np.array(etas, dtype=float), constraint)
    assert batch.value.shape == (len(etas),)
    for eta, value in zip(etas, batch.value.tolist()):
        expected = brute_force_min(loss, float(eta), constraint).value
        assert value == expected or abs(value - expected) <= 1e-12, (eta, value, expected)


class TestBruteForceMin:
    def test_squared_minimizer_and_value(self):
        spec = UnevenMarginSpec("squared", beta=0.5, gamma=2.0)
        loss = uneven("squared", gamma=2.0)
        result = brute_force_min(loss, 0.75, "none")
        assert result.arg == pytest.approx(0.4, abs=1e-4)
        assert result.value == pytest.approx(closed_forms(spec, 0.75).c_star, abs=1e-6)

    def test_sigmoid_escapes_to_infinity(self):
        loss = uneven("sigmoid", gamma=2.0)
        result = brute_force_min(loss, 0.6, "none")
        assert result.arg == math.inf
        assert result.value == pytest.approx(0.2, abs=1e-12)

    def test_half_lines_cover_the_reals(self):
        loss = uneven("hinge", gamma=2.0)
        for eta in (0.2, 0.5, 0.8):
            free = brute_force_min(loss, eta, "none").value
            split = min(
                brute_force_min(loss, eta, "nonpositive_scores").value,
                brute_force_min(loss, eta, "nonnegative_scores").value,
            )
            assert split == pytest.approx(free, abs=1e-9)

    def test_constraints_restrict_the_argument(self):
        loss = uneven("hinge", gamma=1.0, beta=1.0)
        assert brute_force_min(loss, 0.9, "nonpositive_scores").arg <= 0.0
        assert brute_force_min(loss, 0.1, "nonnegative_scores").arg >= 0.0

    def test_unknown_constraint_rejected(self):
        loss = uneven("hinge", gamma=1.0)
        with pytest.raises(DomainError):
            brute_force_min(loss, 0.5, "positive_scores")

    def test_eta_domain(self):
        loss = uneven("hinge", gamma=1.0)
        with pytest.raises(DomainError):
            brute_force_min(loss, -0.1, "none")


class TestBatchedSearch:
    """An ndarray of posteriors against the float search, one by one."""

    # The grid pass works in 32-row blocks: n = 1, 32, 33 and 44 give a
    # lone row, one full block, and a full block before a ragged one.
    @pytest.mark.parametrize("n", [1, 32, 33, 44])
    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    @pytest.mark.parametrize("name", sorted(SEARCHED))
    def test_families_at_the_edges_and_on_a_grid(self, name, constraint, n):
        alpha = 0.3
        etas = [0.0, 1.0, alpha] + np.linspace(0.0, 1.0, 41).tolist()
        assert_batch_matches_scalar(SEARCHED[name], etas[:n], constraint)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
        st.sampled_from(sorted(SEARCHED)),
        st.sampled_from(CONSTRAINTS),
    )
    def test_drawn_posteriors(self, etas, name, constraint):
        assert_batch_matches_scalar(SEARCHED[name], etas, constraint)

    def test_undeclared_limit_counts_only_under_weight(self):
        # L1 declares no limit at +inf, so that candidate is out wherever L1
        # has weight; at eta = 0 the limit 0 of L-1 alone wins there.
        decreasing = dict(fn=lambda t: np.exp(-t), value_at_zero=1.0, is_convex=True)
        loss = Loss(
            pos=PartialLoss(**decreasing, limit_neg_inf=math.inf),
            neg=PartialLoss(**decreasing, limit_neg_inf=math.inf, limit_pos_inf=0.0),
        )
        for constraint in CONSTRAINTS:
            assert_batch_matches_scalar(loss, [0.0, 1.0], constraint)
        batch = brute_force_min(loss, np.array([0.0, 1.0]), "none")
        assert batch.arg[0] == math.inf and batch.value[0] == 0.0
        assert batch.arg[1] == pytest.approx(50.0) and batch.value[1] > 0.0

    def test_infinite_partial_under_zero_weight_contributes_nothing(self):
        # L1 is +inf on every negative score; at eta = 0 it has weight 0,
        # so the optimum is L-1's minimum at t = -1 (0 * inf = 0).
        loss = Loss(
            pos=PartialLoss(
                fn=lambda t: np.where(t < 0.0, np.inf, np.exp(-t)),
                value_at_zero=1.0,
                is_convex=True,
                limit_neg_inf=math.inf,
                limit_pos_inf=0.0,
            ),
            neg=PartialLoss(
                fn=lambda t: (1.0 + t) ** 2,
                value_at_zero=1.0,
                is_convex=True,
                limit_neg_inf=math.inf,
                limit_pos_inf=math.inf,
            ),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_batch_matches_scalar(loss, [0.0, 0.5, 1.0], "none")
            batch = brute_force_min(loss, np.array([0.0]), "none")
        assert batch.arg[0] == pytest.approx(-1.0, abs=1e-6)
        assert batch.value[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["hinge", "exponential", "sigmoid-gamma3"])
    def test_nu_curve_hands_the_batched_search_no_lone_row(self, monkeypatch, name):
        # h_alpha is 0 at alpha by definition, so no posterior is searched
        # alone there (a lone row costs the batched search about 10x the float one).
        rows_seen = []
        batched = oracle._golden_section_rows

        def spy(f, a, b, tol=1e-10):
            rows_seen.append(len(a))
            return batched(f, a, b, tol)

        monkeypatch.setattr(oracle, "_golden_section_rows", spy)
        nu_curve(SEARCHED[name], CostParam(0.3), 51)
        assert rows_seen and min(rows_seen) > 1

    def test_array_shape_is_kept_and_domain_checked(self):
        loss = SEARCHED["hinge"]
        grid = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        result = brute_force_min(loss, grid)
        assert result.arg.shape == result.value.shape == (2, 3)
        with pytest.raises(DomainError):
            brute_force_min(loss, np.array([0.5, 1.5]))
        with pytest.raises(DomainError):
            brute_force_min(loss, np.array([np.nan]))


def scalar_numeric_verdict(loss, cost, grid_size, tolerance):
    """check_calibrated_numeric as a loop of float gap evaluations."""
    alpha = cost.alpha
    radius = 1.0 / (2.0 * grid_size)
    etas = [e for e in np.linspace(0.0, 1.0, grid_size) if abs(e - alpha) > radius]
    values = [(float(e), h_alpha(loss, cost, float(e))) for e in etas]
    bad = [(e, v) for e, v in values if v <= tolerance]
    step = 1.0 / (grid_size - 1)
    refined = [
        (float(ee), h_alpha(loss, cost, float(ee)))
        for e, _ in bad
        for ee in np.linspace(max(e - step, 0.0), min(e + step, 1.0), 21)
        if abs(ee - alpha) > radius / 10.0
    ]
    witnesses = sorted((ev for ev in refined if ev[1] <= tolerance), key=lambda ev: ev[1])
    if witnesses:
        return "not_calibrated", tuple(witnesses[:5])
    return "calibrated", (min(values, key=lambda ev: ev[1]),)


class TestBatchedVerdict:
    @pytest.mark.parametrize(
        "family,gamma,alpha,weighted",
        [
            ("hinge", 0.25, 0.1, True),
            ("hinge", 4.0, 0.7, False),
            ("squared", 0.5, 0.5, False),
            ("squared", 2.0, 0.3, True),
            ("exponential", 1.0, 0.9, False),
            ("exponential", 4.0, 0.2, True),
        ],
    )
    @pytest.mark.parametrize("tag", ["tagged", "untagged"])
    def test_convex_acceptance_configurations(self, family, gamma, alpha, weighted, tag):
        loss = uneven(family, gamma=gamma, alpha_weight=alpha if weighted else None)
        if tag == "untagged":
            loss = untagged(loss)
        self.assert_same_report(loss, CostParam(alpha), 201)

    @pytest.mark.parametrize("offset", [-0.02, 0.0, 0.02])
    def test_sigmoid_around_its_calibrating_alpha(self, offset):
        cost = CostParam(ALPHA_SIGMOID_GAMMA2 + offset)
        self.assert_same_report(uneven("sigmoid", gamma=2.0), cost, 1001)

    @staticmethod
    def assert_same_report(loss, cost, grid_size):
        report = check_calibrated_numeric(loss, cost, grid_size, 1e-9)
        verdict, witnesses = scalar_numeric_verdict(loss, cost, grid_size, 1e-9)
        assert report.verdict == verdict
        assert len(report.witnesses) == len(witnesses)
        for (eta, value), (ref_eta, ref_value) in zip(report.witnesses, witnesses):
            assert eta == ref_eta
            assert abs(value - ref_value) <= 1e-12


class TestFiniteDiffCheck:
    def test_hinge_slope(self):
        loss = uneven("hinge", gamma=1.0, beta=1.0)
        assert finite_diff_check(loss.pos, -1.0) == pytest.approx(-1.0, abs=1e-6)

    def test_squared_slope_at_zero(self):
        loss = uneven("squared", gamma=1.0, beta=1.0)
        assert finite_diff_check(loss.pos, 0.0) == pytest.approx(-2.0, abs=1e-6)

    def test_sigmoid_slope_at_zero(self):
        loss = uneven("sigmoid", gamma=2.0)
        assert finite_diff_check(loss.pos, 0.0) == pytest.approx(-0.25, abs=1e-6)

    @pytest.mark.parametrize("family", ["squared", "exponential", "sigmoid"])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_matches_declared_derivative_for_smooth_partials(self, family, gamma):
        loss = uneven(family, gamma=gamma)
        for partial in (loss.pos, loss.neg):
            assert finite_diff_check(partial, 0.0) == pytest.approx(
                partial.deriv_at_zero, abs=1e-5
            )


class TestFiniteDistribution:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(DomainError):
            FiniteDistribution(((0.5, 0.2), (0.4, 0.8)))

    def test_masses_must_be_positive(self):
        with pytest.raises(DomainError):
            FiniteDistribution(((0.0, 0.2), (1.0, 0.8)))

    def test_eta_range(self):
        with pytest.raises(DomainError):
            FiniteDistribution(((1.0, 1.5),))

    def test_needs_an_atom(self):
        with pytest.raises(DomainError):
            FiniteDistribution(())


class TestEmpiricalRegrets:
    def test_single_atom_wrong_side(self):
        dist = FiniteDistribution(((1.0, 0.8),))
        scores = DecisionAssignment((-1.0,))
        loss = uneven("hinge", gamma=1.0, beta=1.0)
        c_reg, s_reg = empirical_regrets(dist, scores, loss, CostParam(0.3))
        assert c_reg == pytest.approx(0.5, abs=1e-12)
        assert s_reg == pytest.approx(1.2, abs=1e-9)

    def test_optimal_assignment_has_no_regret(self):
        dist = FiniteDistribution(((0.5, 0.2), (0.5, 0.9)))
        scores = DecisionAssignment((-1.0, 1.0))
        loss = uneven("hinge", gamma=1.0, beta=1.0)
        c_reg, s_reg = empirical_regrets(dist, scores, loss, CostParam(0.5))
        assert c_reg == 0.0
        assert s_reg == pytest.approx(0.0, abs=1e-9)

    def test_two_atom_cost_regret(self):
        dist = FiniteDistribution(((0.5, 0.2), (0.5, 0.9)))
        scores = DecisionAssignment((1.0, 1.0))
        loss = uneven("hinge", gamma=1.0, beta=1.0)
        c_reg, _ = empirical_regrets(dist, scores, loss, CostParam(0.5))
        assert c_reg == pytest.approx(0.15, abs=1e-12)

    def test_length_mismatch_rejected(self):
        dist = FiniteDistribution(((1.0, 0.5),))
        loss = uneven("hinge", gamma=1.0, beta=1.0)
        with pytest.raises(DomainError):
            empirical_regrets(dist, DecisionAssignment((1.0, -1.0)), loss, CostParam(0.5))

    def test_infinite_scores_use_declared_limits(self):
        dist = FiniteDistribution(((0.5, 0.1), (0.5, 0.9)))
        scores = DecisionAssignment((-math.inf, math.inf))
        loss = uneven("sigmoid", gamma=2.0)
        c_reg, s_reg = empirical_regrets(
            dist, scores, loss, CostParam(ALPHA_SIGMOID_GAMMA2)
        )
        assert c_reg == 0.0
        assert s_reg >= 0.0


class TestFuzzBound:
    def test_deterministic_given_seed(self):
        assert fuzz_bound(7, "hinge", 5) == fuzz_bound(7, "hinge", 5)

    def test_records_are_consistent(self):
        for record in fuzz_bound(3, "squared", 25):
            assert record.family == "squared"
            assert 0.0 < record.alpha < 1.0
            assert record.gamma > 0.0
            assert record.cost_regret >= 0.0
            assert record.surrogate_regret >= 0.0
            assert record.passed == (
                record.psi_value <= record.surrogate_regret + 1e-8
            )

    @pytest.mark.parametrize("family", ["hinge", "squared", "exponential", "sigmoid"])
    def test_no_bound_violations_on_small_runs(self, family):
        assert all(r.passed for r in fuzz_bound(1, family, 50))

    def test_sigmoid_trials_pin_the_calibrating_alpha(self):
        for record in fuzz_bound(2, "sigmoid", 5):
            assert record.alpha == ALPHA_SIGMOID_GAMMA2
            assert record.gamma == 2.0

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            fuzz_bound(1, "logistic", 5)

    def test_needs_positive_trials(self):
        with pytest.raises(DomainError):
            fuzz_bound(1, "hinge", 0)

    def test_rejects_negative_seed(self):
        with pytest.raises(DomainError, match="seed"):
            fuzz_bound(-1, "hinge", 1)
