"""Brute-force search, finite differences, empirical regrets, and fuzzing."""

import csv
import functools
import gc
import math
import sys
import warnings
import weakref
from dataclasses import asdict, dataclass, field, fields, replace

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
    UnsupportedLimitError,
    brute_force_min,
    check_calibrated_numeric,
    closed_forms,
    conditional_risk,
    constrained_optimal_risk,
    empirical_regrets,
    fuzz_bound,
    h_alpha,
    nu_curve,
    optimal_conditional_risk,
)
from costcal import calibration, oracle
from costcal.cli import main
from costcal.families import UnevenMarginSpec

from conftest import (
    HALF_LINE,
    INFINITE_ON_NEGATIVES,
    NAN_FAR,
    SEARCH_GRID,
    UNDECLARED_LIMIT,
    counted,
    evaluations,
    finite_diff_check,
    uneven,
    untagged,
)

CONSTRAINTS = ("none", "nonpositive_scores", "nonnegative_scores")
#: The references' own reading of each constraint, apart from the oracle's
#: layout: its admissible scores of the grid, and its admissible infinite
#: scores in the order they compete.
REFERENCE_CONSTRAINTS = {
    "none": (slice(None), (-math.inf, math.inf)),
    "nonnegative_scores": (SEARCH_GRID >= 0.0, (math.inf,)),
    "nonpositive_scores": (SEARCH_GRID <= 0.0, (-math.inf,)),
}
#: Untagged family members, so every optimum comes from the search.
SEARCHED = {
    "hinge": untagged(uneven("hinge", gamma=2.0)),
    "squared-weighted": untagged(uneven("squared", gamma=0.5, alpha_weight=0.3)),
    "exponential": untagged(uneven("exponential", gamma=3.0, beta=1.0)),
    "sigmoid": untagged(uneven("sigmoid", gamma=2.0)),
    "sigmoid-gamma3": untagged(uneven("sigmoid", gamma=3.0)),
}

#: The searched members whose partials give a float score the bits it gets
#: inside an array, so their float and row searches agree bit for bit.
EXACT = {"hinge", "squared-weighted", "exponential"}


def assert_batch_matches_scalar(loss, etas, constraint, exact=False):
    """Each row of the batched search against the float search: bit for bit
    where ``exact``, else within 1e-12."""
    batch = brute_force_min(loss, np.array(etas, dtype=float), constraint)
    assert batch.value.shape == (len(etas),)
    for eta, value in zip(etas, batch.value.tolist()):
        expected = brute_force_min(loss, float(eta), constraint).value
        if exact:
            assert value.hex() == expected.hex(), (eta, value, expected)
        else:
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


class TestScoreWindow:
    """A hinge whose C* minimizer, -1/gamma = -1000, lies past the search's
    score window [-50, 50]: exactly 0.1 * (1 + 1/gamma) = 100.1 at eta 0.1."""

    ETA, BETA, GAMMA = 0.1, 500.0, 1e-3
    EXACT = min(ETA * (1.0 + 1.0 / GAMMA), (1.0 - ETA) * BETA * (1.0 + GAMMA))

    def test_tagged_hinge_minimized_beyond_the_window(self, tmp_path):
        # Its closed form serves the float, the array and the CLI request.
        loss = uneven("hinge", gamma=self.GAMMA, beta=self.BETA)
        as_float = optimal_conditional_risk(loss, self.ETA)
        (as_array,) = optimal_conditional_risk(loss, np.array([self.ETA]))
        out = tmp_path / "c_star.csv"
        argv = "curve --family hinge --gamma 0.001 --beta 500 --alpha 0.3333333333333333"
        assert main([*argv.split(), "--quantities", "C_star", "--grid", "11", "--output", str(out)]) == 0
        with open(out, newline="") as fh:
            (row,) = [r for r in csv.DictReader(fh) if float(r["x"]) == self.ETA]
        found = [as_float, as_array, float(row["value"])]
        assert found == pytest.approx([self.EXACT] * 3, rel=1e-15)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3: the oracle searches scores in [-50, 50] only, and this "
        "hinge's C* minimizer is at -1/gamma = -1000",
    )
    def test_untagged_hinge_minimized_beyond_the_window(self):
        # The untagged copy is searched: 432.6, not 100.1.
        loss = untagged(uneven("hinge", gamma=self.GAMMA, beta=self.BETA))
        as_float = optimal_conditional_risk(loss, self.ETA)
        (as_array,) = optimal_conditional_risk(loss, np.array([self.ETA]))
        assert [as_float, as_array] == pytest.approx([self.EXACT] * 2, rel=1e-9)


#: The golden section's ratio, 1 / phi, and the bracket width it stops at.
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_TOL = 1e-10


def golden_section(f, a, b):
    """Minimize a unimodal f on [a, b], in the arithmetic of a and b."""
    h = b - a
    c = b - INV_PHI * h
    d = a + INV_PHI * h
    yc, yd = f(c), f(d)
    while h > GOLDEN_TOL:
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = b - INV_PHI * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + INV_PHI * h
            yd = f(d)
    x = c if yc < yd else d
    return x, min(yc, yd)


def risk_at_score(loss, eta):
    """``conditional_risk`` itself, at a score."""
    return lambda t: conditional_risk(loss, eta, t)


def mixed_partials(loss, eta):
    """The float search's objective at a finite score: the partials' ``fn``
    called on the score as given, a partial of weight 0 skipped."""
    pos, neg = loss.pos.fn, loss.neg.fn
    if eta == 0.0:
        return lambda t: float(neg(t))
    if eta == 1.0:
        return lambda t: float(pos(t))
    return lambda t: eta * float(pos(t)) + (1.0 - eta) * float(neg(t))


@np.errstate(over="ignore")
def loop_search(loss, eta, constraint, objective=risk_at_score):
    """The float search a step at a time, with its bracket ends taken from
    ``SEARCH_GRID`` as numpy scalars, so every step of the golden section is
    numpy scalar arithmetic.  The golden section minimizes ``objective(loss,
    eta)``, by default ``conditional_risk`` itself.  The reference for
    ``brute_force_min``'s Python-float search."""
    columns, limits = REFERENCE_CONSTRAINTS[constraint]
    ts = SEARCH_GRID[columns]
    pos_vals, neg_vals = loss.pos.fn(ts), loss.neg.fn(ts)
    if eta == 0.0:
        risks = neg_vals
    elif eta == 1.0:
        risks = pos_vals
    else:
        risks = eta * pos_vals + (1.0 - eta) * neg_vals
    i = int(np.argmin(risks))
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    best_t, best_v = golden_section(objective(loss, eta), lo, hi)
    if risks[i] < best_v:
        best_t, best_v = float(ts[i]), float(risks[i])
    for t in limits:
        try:
            v = conditional_risk(loss, eta, t)
        except UnsupportedLimitError:
            continue
        if v <= best_v:
            best_t, best_v = t, v
    return best_t, best_v


def bits(*values):
    return tuple(float(v).hex() for v in values)


def reference_losses(family):
    """The family untagged: calibrated (beta = 1/gamma), weighted, and beta = 2."""
    return [
        untagged(uneven(family, gamma, beta, alpha_weight))
        for gamma in (0.25, 1.0, 4.0, 1e300)
        for beta, alpha_weight in ((None, None), (None, 0.3), (2.0, None))
    ]


REFERENCE_ETAS = [0.0, 1.0, 1e-12, 1.0 - 1e-12, 0.3, ALPHA_SIGMOID_GAMMA2]
REFERENCE_ETAS += np.linspace(0.0, 1.0, 21).tolist()


class TestFloatSearchReference:
    """The float search calls the partials itself in its golden section;
    results and partial evaluations are bit-equal to ``loop_search``."""

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    @pytest.mark.parametrize("family", ["hinge", "squared", "exponential", "sigmoid"])
    def test_families(self, family, constraint):
        for loss in reference_losses(family):
            for eta in REFERENCE_ETAS:
                result = brute_force_min(loss, eta, constraint)
                assert bits(*result) == bits(*loop_search(loss, eta, constraint)), eta

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    @pytest.mark.parametrize("loss", [UNDECLARED_LIMIT, INFINITE_ON_NEGATIVES])
    def test_hand_built_losses(self, loss, constraint):
        for eta in REFERENCE_ETAS:
            result = brute_force_min(loss, eta, constraint)
            assert bits(*result) == bits(*loop_search(loss, eta, constraint)), eta

    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    def test_same_partial_evaluations(self, eta):
        loss, scores = counted(SEARCHED["sigmoid-gamma3"])
        brute_force_min(loss, eta)
        searched = [bits(*np.ravel(t)) for t in scores]
        scores.clear()
        loop_search(loss, eta, "none")
        assert searched == [bits(*np.ravel(t)) for t in scores]


ROW_LOSSES = {
    **SEARCHED, "undeclared-limit": UNDECLARED_LIMIT, "inf-on-negatives": INFINITE_ON_NEGATIVES
}
#: The edges, a point each side of them, and two cost asymmetries.
EDGE_ETAS = [0.0, 1e-12, 0.3, ALPHA_SIGMOID_GAMMA2, 1.0 - 1e-12, 1.0]


def assert_float_search_matches_numpy_scalars(loss, eta, constraint):
    """``brute_force_min`` on a float, and on ``eta`` as ``np.float64``,
    against ``loop_search`` on numpy scalars with the partials called
    directly: Python floats out, bit-equal to the reference."""
    expected = bits(*loop_search(loss, eta, constraint, mixed_partials))
    for posterior in (float(eta), np.float64(eta)):
        result = brute_force_min(loss, posterior, constraint)
        assert type(result.arg) is float and type(result.value) is float
        assert bits(*result) == expected, (eta, constraint)


class TestPythonFloatSearch:
    """The float search converts its posterior, bracket ends and grid point
    to Python floats once; every row keeps numpy's arithmetic."""

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    @pytest.mark.parametrize("name", sorted(ROW_LOSSES))
    def test_edges_match_the_numpy_scalar_search(self, name, constraint):
        for eta in EDGE_ETAS:
            assert_float_search_matches_numpy_scalars(ROW_LOSSES[name], eta, constraint)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.sampled_from(sorted(ROW_LOSSES)),
        st.sampled_from(CONSTRAINTS),
    )
    def test_drawn_posteriors_match_the_numpy_scalar_search(self, eta, name, constraint):
        assert_float_search_matches_numpy_scalars(ROW_LOSSES[name], eta, constraint)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0, np.float64(0.7)])
    @pytest.mark.parametrize("name", sorted(SEARCHED))
    def test_golden_section_hands_the_partials_python_floats(self, name, eta):
        loss, scores = counted(SEARCHED[name])
        for constraint in CONSTRAINTS:
            brute_force_min(loss, eta, constraint)
        # Each partial's grid table is one array; every other call is one score.
        arrays = [t for t in scores if isinstance(t, np.ndarray)]
        singles = [t for t in scores if not isinstance(t, np.ndarray)]
        assert [t.size for t in arrays] == [len(SEARCH_GRID)] * 2
        assert singles and all(type(t) is float for t in singles)


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
        assert_batch_matches_scalar(SEARCHED[name], etas[:n], constraint, name in EXACT)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
        st.sampled_from(sorted(SEARCHED)),
        st.sampled_from(CONSTRAINTS),
    )
    def test_drawn_posteriors(self, etas, name, constraint):
        assert_batch_matches_scalar(SEARCHED[name], etas, constraint, name in EXACT)

    def test_undeclared_limit_counts_only_under_weight(self):
        # L1 declares no limit at +inf, so that candidate is out wherever L1
        # has weight; at eta = 0 the limit 0 of L-1 alone wins there.
        loss = UNDECLARED_LIMIT
        for constraint in CONSTRAINTS:
            assert_batch_matches_scalar(loss, [0.0, 1.0], constraint)
        batch = brute_force_min(loss, np.array([0.0, 1.0]), "none")
        assert batch.arg[0] == math.inf and batch.value[0] == 0.0
        assert batch.arg[1] == pytest.approx(50.0) and batch.value[1] > 0.0

    def test_infinite_partial_under_zero_weight_contributes_nothing(self):
        # L1 is +inf on every negative score; at eta = 0 it has weight 0,
        # so the optimum is L-1's minimum at t = -1 (0 * inf = 0).
        loss = INFINITE_ON_NEGATIVES
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_batch_matches_scalar(loss, [0.0, 0.5, 1.0], "none")
            batch = brute_force_min(loss, np.array([0.0]), "none")
        assert batch.arg[0] == pytest.approx(-1.0, abs=1e-6)
        assert batch.value[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["hinge", "exponential", "sigmoid-gamma3"])
    def test_nu_curve_searches_as_h_alpha_off_alpha(self, name):
        # h_alpha is 0 at alpha by definition, so nu_curve's one request
        # searches no row there, alone or not (a lone row costs the batched
        # search about 10x the float one): its partials see what h_alpha's
        # on its other posteriors see.
        cost = CostParam(0.3)
        loss, calls = counted(SEARCHED[name])
        eps = nu_curve(loss, cost, 51).eps
        etas = np.unique(np.concatenate([np.maximum(0.3 - eps, 0.0), np.minimum(0.3 + eps, 1.0)]))
        assert 0.3 in etas
        off, off_calls = counted(SEARCHED[name])
        h_alpha(off, cost, etas[etas != 0.3])
        assert evaluations(calls) == evaluations(off_calls)
        assert evaluations(calls)[0][2] == 2 * (len(etas) - 1)  # C^- and C* in one search

    def test_array_shape_is_kept_and_domain_checked(self):
        loss = SEARCHED["hinge"]
        grid = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        result = brute_force_min(loss, grid)
        assert result.arg.shape == result.value.shape == (2, 3)
        with pytest.raises(DomainError):
            brute_force_min(loss, np.array([0.5, 1.5]))
        with pytest.raises(DomainError):
            brute_force_min(loss, np.array([np.nan]))


def assert_requests_match_constraint_searches(loss, etas, alpha):
    """Array C^- and H, each one search of rows of mixed constraints, against
    the array search of each constraint alone, bit for bit: C^- is searched
    on nonnegative scores below alpha and nonpositive ones above it, and is
    C* at alpha, where the gap is 0."""
    cost, etas = CostParam(alpha), np.array(etas, dtype=float)
    c_star = brute_force_min(loss, etas, "none").value
    c_minus = c_star.copy()
    for constraint, rows in (("nonnegative_scores", etas < alpha), ("nonpositive_scores", etas > alpha)):
        if rows.any():
            c_minus[rows] = brute_force_min(loss, etas[rows], constraint).value
    assert bits(*constrained_optimal_risk(loss, cost, etas)) == bits(*c_minus)
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN gap raises
        gap = np.where(etas == alpha, 0.0, c_minus - c_star)
    if np.isnan(gap).any():
        with pytest.raises(DomainError, match="gap is NaN"):
            h_alpha(loss, cost, etas)
    else:
        assert bits(*h_alpha(loss, cost, etas)) == bits(*np.where(0.0 > gap, 0.0, gap))


ROW_ETAS = [0.0, 1.0, 0.3, 1e-12, 1.0 - 1e-12]
#: Cost asymmetries at which no searched member's C^- takes the derivative
#: test's shortcut, so C^- is searched.
ROW_ALPHAS = [0.2, 0.7]


class TestRowSearch:
    """Array requests that search rows of mixed constraints in one search,
    against the search for each constraint alone."""

    @pytest.mark.parametrize("alpha", ROW_ALPHAS)
    @pytest.mark.parametrize("name", sorted(ROW_LOSSES))
    def test_mixed_constraints_at_the_edges(self, name, alpha):
        assert_requests_match_constraint_searches(ROW_LOSSES[name], ROW_ETAS + [alpha], alpha)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.one_of(st.sampled_from(ROW_ETAS + ROW_ALPHAS), st.floats(0.0, 1.0)), min_size=1, max_size=40),
        st.sampled_from(sorted(ROW_LOSSES)),
        st.sampled_from(ROW_ALPHAS),
    )
    def test_drawn_posteriors(self, etas, name, alpha):
        assert_requests_match_constraint_searches(ROW_LOSSES[name], etas, alpha)

    def test_no_posteriors(self):
        loss, cost, none = SEARCHED["hinge"], CostParam(0.3), np.array([])
        for constraint in CONSTRAINTS:
            result = brute_force_min(loss, none, constraint)
            assert result.arg.shape == result.value.shape == (0,)
        assert h_alpha(loss, cost, none).shape == (0,)
        assert constrained_optimal_risk(loss, cost, none).shape == (0,)

    @pytest.mark.parametrize("request_fn, rows", [(h_alpha, 12), (constrained_optimal_risk, 7)])
    def test_one_row_search_with_alpha_among_the_posteriors(self, request_fn, rows):
        # After the two grid tables, one golden section on every row: H's C^-
        # and C* off alpha (12 rows), or C^-'s 6 rows and C* at alpha.  Its
        # first step evaluates every row, and no later step more.
        loss, alpha = SEARCHED["sigmoid-gamma3"], 0.3
        etas = np.array([0.0, 1e-12, 0.1, alpha, 0.5, 0.9, 1.0])
        counted_loss, calls = counted(loss)
        request_fn(counted_loss, CostParam(alpha), etas)
        sizes, floats = evaluations(calls)
        assert floats == 0 and sizes[:3] == [801, 801, rows]
        assert sizes[2:] == sorted(sizes[2:], reverse=True)
        assert_requests_match_constraint_searches(loss, etas, alpha)


class TestCStarCeiling:
    """The ceiling on the searched C*: each row at least the C* the row
    search returns, bit for bit, or None where a mix could be NaN.

    Private by need: no public call returns the ceiling, and a search that
    grows its window (ROADMAP item 3) must keep it a ceiling."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.one_of(st.sampled_from(EDGE_ETAS), st.floats(0.0, 1.0)), min_size=1, max_size=40),
        st.sampled_from(sorted(ROW_LOSSES)),
    )
    def test_each_row_at_least_the_searched_c_star(self, etas, name):
        loss, etas = ROW_LOSSES[name], np.array(etas)
        ceiling = oracle._c_star_ceiling(loss, etas)
        assert ceiling.shape == etas.shape
        assert (ceiling >= brute_force_min(loss, etas).value).all()

    def test_the_grid_minimum_at_its_columns_is_its_value(self):
        # At eta = 1/2 the hinge's least risk on the grid is at the score 0,
        # one of the ceiling's columns, so the ceiling is that risk.
        loss = SEARCHED["hinge"]
        risk = 0.5 * loss.pos.value_at_zero + 0.5 * loss.neg.value_at_zero
        assert oracle._c_star_ceiling(loss, np.array([0.5])).tolist() == [risk]

    @pytest.mark.parametrize("last", [0.0, 1.0])
    @pytest.mark.parametrize("shape", [(), (1,), (256,), (257,), (1000,), (40, 25)])
    @pytest.mark.parametrize("name", ["hinge", "sigmoid", "inf-on-negatives"])
    def test_blocks_give_the_one_matrix_ceiling(self, name, shape, last):
        # Rows of weight 0 and 1 lead the first block and end the last one
        # (a lone row ends it at n = 257); n = 1 is ``last`` alone.
        loss = ROW_LOSSES[name]
        etas = np.random.default_rng(7).uniform(0.0, 1.0, shape)
        flat = etas.reshape(-1)
        flat[[0, 1, -2, -1][-flat.size :]] = [0.0, 1.0, 1.0 - last, last][-flat.size :]
        with np.errstate(over="ignore", invalid="ignore"):
            pos, neg = (table[::16] for table in oracle._grid_tables(loss))
            expected = oracle._mix(oracle._weights(etas[..., None]), pos, neg).min(axis=-1)
        ceiling = oracle._c_star_ceiling(loss, etas)
        assert ceiling.shape == etas.shape
        assert ceiling.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("loss", [HALF_LINE, NAN_FAR])
    def test_none_where_a_grid_table_holds_a_nan(self, loss):
        assert oracle._c_star_ceiling(loss, np.array([0.3, 0.7])) is None


#: Weights with 0 and 1 among them, and partial values with inf and NaN.
MIX_WEIGHTS = np.array([0.0, 0.3, 1.0, 0.5, 1.0, 0.0, 1e-300])
MIX_PARTIALS = np.array([0.0, 1.5, math.inf, math.nan, -0.0, 2.0, math.inf])
#: ``_mix``'s callers' shapes: a column of weights over a grid table's
#: columns (the grid pass and the ceiling), one weight and one score per
#: row (the golden section), and one value per partial (the limits); and
#: one row of each, and one weight over a row of columns (the ceiling at a
#: 0-d posterior), where every axis of the weights has length 1.
MIX_CASES = {
    "columns": (MIX_WEIGHTS[:, None], MIX_PARTIALS, MIX_PARTIALS[::-1]),
    "rows": (MIX_WEIGHTS, MIX_PARTIALS, np.roll(MIX_PARTIALS, 2)),
    "rows-without-edges": (MIX_WEIGHTS[[1, 3, 6]], MIX_PARTIALS[:3], MIX_PARTIALS[3:6]),
    "one-row": (MIX_WEIGHTS[:1], MIX_PARTIALS[:1], MIX_PARTIALS[2:3]),
    "one-row-of-columns": (MIX_WEIGHTS[:1, None], MIX_PARTIALS, MIX_PARTIALS[::-1]),
    "one-weight-over-columns": (MIX_WEIGHTS[2:3], MIX_PARTIALS, MIX_PARTIALS[::-1]),
    "limits-inf": (MIX_WEIGHTS, math.inf, 0.0),
    "limits-nan": (MIX_WEIGHTS, 1.0, math.nan),
}


def mix(w, pos, neg):
    """The definition: w * pos + (1 - w) * neg, broadcast, where a partial of
    weight 0 contributes 0, so at w = 0 the risk is neg and at w = 1 pos."""
    w, pos, neg = np.broadcast_arrays(w, pos, neg)
    with np.errstate(invalid="ignore"):
        return np.where(w == 0.0, neg, np.where(w == 1.0, pos, w * pos + (1.0 - w) * neg))


class TestMix:
    """``_mix`` on each of its callers' shapes, into a new array or an
    ``out=`` buffer, equals its definition (``mix``) bit for bit: a partial
    of weight 0 contributes nothing, even an ``inf`` or NaN one.

    Private by need: no public input reaches the ``out=`` buffers' shapes
    one at a time, or a NaN partial under weight 0."""

    @pytest.mark.parametrize("into_out", [False, True], ids=["new", "out"])
    @pytest.mark.parametrize("case", sorted(MIX_CASES))
    def test_equals_the_definition(self, case, into_out):
        w, pos, neg = MIX_CASES[case]
        expected = mix(w, pos, neg)
        out = np.full((2, *expected.shape), 7.0) if into_out else None
        with np.errstate(invalid="ignore"):
            risks = oracle._mix(oracle._weights(w), pos, neg, out=out)
        assert risks.shape == expected.shape
        assert risks.tobytes() == expected.tobytes()
        assert not into_out or np.shares_memory(risks, out)


@dataclass
class ScaledExp:
    """e^-t times c: a callable that equality makes unhashable.  It keeps
    each array call's scores and a weak reference to the values it gave."""

    c: float
    arrays: list = field(default_factory=list, compare=False)

    def __call__(self, t):
        values = self.c * np.exp(-t)
        if isinstance(t, np.ndarray):
            self.arrays.append((t, weakref.ref(values)))
        return values


def scaled_exp_loss() -> Loss:
    """e^-t and 2 e^-t as partials whose ``fn`` is unhashable."""
    partial = PartialLoss(ScaledExp(1.0), is_convex=True, limit_neg_inf=math.inf, limit_pos_inf=0.0)
    return Loss(pos=partial, neg=replace(partial, fn=ScaledExp(2.0)))


class TestGridTable:
    def test_each_partial_evaluated_once_on_the_grid(self):
        loss, scores = counted(SEARCHED["squared-weighted"])
        cost, etas = CostParam(0.3), np.array([0.1, 0.3, 0.8])
        for constraint in CONSTRAINTS:
            brute_force_min(loss, 0.6, constraint)
            brute_force_min(loss, etas, constraint)
        h_alpha(loss, cost, etas)
        constrained_optimal_risk(loss, cost, etas)
        assert [np.size(t) for t in scores if np.size(t) > len(etas)] == [len(SEARCH_GRID)] * 2

    def test_half_line_partials_do_not_warn(self):
        # NaN off the nonnegative scores: the table holds it, and no search
        # under the nonnegative constraint reads it.
        loss = replace(HALF_LINE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tuple(brute_force_min(loss, 0.5, "nonnegative_scores")) == (0.0, 0.5)
            batch = brute_force_min(loss, np.array([0.5]), "nonnegative_scores")
        assert (batch.arg.tolist(), batch.value.tolist()) == ([0.0], [0.5])

    def test_kept_on_the_loss_with_an_unhashable_fn(self):
        # Each partial is called on the grid once, and a float search and a
        # search of two rows both read it; no search writes to what it gave.
        loss = scaled_exp_loss()
        brute_force_min(loss, 0.3)
        brute_force_min(loss, np.array([0.2, 0.7]))
        for fn in (loss.pos.fn, loss.neg.fn):
            ((scores, table),) = [(t, values) for t, values in fn.arrays if t.size > 2]
            assert bits(*scores) == bits(*SEARCH_GRID)
            assert bits(*table()) == bits(*(fn.c * np.exp(-SEARCH_GRID)))


#: Posteriors a request order draws from: the edges, -0.0, a point each
#: side of them, alpha, and numpy scalars.
LAST_SEARCH_ETAS = [
    0.0, -0.0, 1e-12, 0.3, 1.0 - 1e-12, 1.0,
    np.float64(0.0), np.float64(-0.0), np.float64(0.3), np.float64(0.7),
]


def cold_search(loss, eta, constraint):
    """``brute_force_min`` on a fresh copy of ``loss``, which remembers no
    search."""
    return bits(*brute_force_min(replace(loss), eta, constraint))


class TestLastSearch:
    """Each loss remembers its last float search per constraint; a repeated
    request returns it, bit-equal to a cold search, and evaluates no
    partial."""

    @pytest.mark.parametrize("name", sorted(ROW_LOSSES))
    def test_every_request_matches_a_cold_search(self, name):
        loss = replace(ROW_LOSSES[name])
        for _ in range(2):
            for eta in LAST_SEARCH_ETAS:
                for constraint in CONSTRAINTS:
                    result = brute_force_min(loss, eta, constraint)
                    assert type(result.arg) is float and type(result.value) is float
                    assert bits(*result) == cold_search(loss, eta, constraint), (eta, constraint)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(ROW_LOSSES)),
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from(LAST_SEARCH_ETAS), st.floats(0.0, 1.0)),
                st.sampled_from(CONSTRAINTS),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_drawn_request_orders_match_cold_searches(self, name, requests):
        loss = replace(ROW_LOSSES[name])
        for eta, constraint in requests:
            assert bits(*brute_force_min(loss, eta, constraint)) == cold_search(
                loss, eta, constraint
            ), (eta, constraint)

    @pytest.mark.parametrize("eta", [0.2, 0.3, 0.0, -0.0])
    def test_c_star_c_minus_and_gap_search_each_once(self, eta):
        # C^- at alpha is C*; the gap there is 0 and searches nothing.
        loss, calls = counted(SEARCHED["sigmoid-gamma3"])
        cost = CostParam(0.3)
        c_star = optimal_conditional_risk(loss, eta)
        sizes, floats = evaluations(calls)
        assert sizes == [801, 801] and floats > 0  # the grid tables and one search
        calls.clear()
        c_minus = constrained_optimal_risk(loss, cost, eta)
        sizes, floats = evaluations(calls)
        assert sizes == [] and (floats > 0) == (eta != 0.3)
        calls.clear()
        gap = h_alpha(loss, cost, eta)
        assert gap == (0.0 if eta == 0.3 else max(c_minus - c_star, 0.0))
        # Asked again, in any order, nothing more is evaluated.
        h_alpha(loss, cost, eta)
        constrained_optimal_risk(loss, cost, eta)
        optimal_conditional_risk(loss, np.float64(eta))
        assert calls == []

    def test_one_slot_per_constraint(self):
        loss, calls = counted(SEARCHED["hinge"])
        for eta in (0.2, 0.7, 0.2):
            for constraint in CONSTRAINTS:
                calls.clear()
                brute_force_min(loss, eta, constraint)
                assert evaluations(calls)[1] > 0, (eta, constraint)
        # Each constraint's slot holds the last posterior only.
        calls.clear()
        for constraint in CONSTRAINTS:
            brute_force_min(loss, 0.2, constraint)
        assert calls == []

    def test_array_searches_are_not_remembered(self):
        loss, calls = counted(SEARCHED["hinge"])
        brute_force_min(loss, np.array([0.2, 0.7]))
        calls.clear()
        brute_force_min(loss, 0.2)
        sizes, floats = evaluations(calls)
        assert sizes == [] and floats > 0
        calls.clear()
        brute_force_min(loss, np.array([0.2]))  # a row search on one row
        sizes, floats = evaluations(calls)
        assert floats == 0 and sizes and set(sizes) == {1}

    @pytest.mark.parametrize("eta", [math.nan, np.float64(math.nan), -1e-300, 1.5])
    def test_bad_posterior_raises_before_any_evaluation(self, eta):
        loss, calls = counted(SEARCHED["hinge"])
        with pytest.raises(DomainError):
            brute_force_min(loss, eta)
        assert calls == []
        result = brute_force_min(loss, 0.3)
        with pytest.raises(DomainError):
            brute_force_min(loss, eta)
        calls.clear()
        assert brute_force_min(loss, 0.3) is result and calls == []

    def test_unhashable_fn_and_freed_with_its_loss(self):
        loss = scaled_exp_loss()
        fns = loss.pos.fn, loss.neg.fn
        result = brute_force_min(loss, 0.3)
        assert brute_force_min(loss, 0.3) is result
        refs = [weakref.ref(loss)] + [table for fn in fns for _, table in fn.arrays]
        assert len(refs) == 3 and all(ref() is not None for ref in refs)
        del loss, result
        gc.collect()
        assert all(ref() is None for ref in refs)


class TestSearchStateIsNoField:
    """The search state is in no field of the loss."""

    def test_a_searched_loss_compares_hashes_and_prints_as_a_fresh_copy(self):
        loss = replace(SEARCHED["hinge"])
        brute_force_min(loss, 0.3)
        brute_force_min(loss, np.array([0.2, 0.7]))
        fresh = replace(loss)
        assert loss == fresh and hash(loss) == hash(fresh) and repr(loss) == repr(fresh)

    def test_fields_and_asdict_are_unchanged(self):
        loss = replace(SEARCHED["sigmoid"])
        fresh = asdict(loss)
        brute_force_min(loss, 0.3)
        assert [f.name for f in fields(Loss)] == ["pos", "neg", "family"]
        assert asdict(loss) == fresh and set(fresh) == {"pos", "neg", "family"}

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_a_replaced_loss_remembers_nothing(self, constraint):
        loss, calls = counted(SEARCHED["exponential"])
        searched = bits(*brute_force_min(loss, 0.3, constraint))
        calls.clear()
        copy = replace(loss)
        assert bits(*brute_force_min(copy, 0.3, constraint)) == searched
        # Its own grid tables and its own search.
        sizes, floats = evaluations(calls)
        assert sizes == [801, 801] and floats > 0


def family_calls(fn, request) -> list:
    """The types of the scores that a family partial's ``fn`` is called on
    while ``request()`` runs, seen by ``sys.setprofile``.  Every partial of
    one family shares ``fn``'s code, so this counts both of a pair."""
    code, seen = fn.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            seen.append(type(frame.f_locals["t"]))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        request()
    finally:
        sys.setprofile(previous)
    return seen


class ReadsFused:
    """A partial's ``fn`` that counts the lookups of its ``fused`` attribute,
    which a loss's float searches read to set themselves up."""

    def __init__(self, fn):
        self.fn, self.reads = fn, 0

    def __call__(self, t):
        return self.fn(t)

    def __getattr__(self, name):
        self.reads += name == "fused"
        raise AttributeError(name)


class TestFusedSearch:
    """The fused search is found from the partials' ``fn`` alone, once per
    loss and constraint."""

    # A wrapper made by functools.wraps copies the partial's attributes.
    @pytest.mark.parametrize("copies_attributes", [False, True])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_a_replaced_partial_is_searched_through_its_own_fn(
        self, constraint, eta, copies_attributes
    ):
        loss = replace(SEARCHED["exponential"])
        calls = []

        def shifted(t, fn=loss.pos.fn):
            calls.append(t)
            return fn(t - 0.5)

        if copies_attributes:
            shifted = functools.wraps(loss.pos.fn)(shifted)
            assert shifted.fused is loss.pos.fn.fused
        copy = replace(loss, pos=replace(loss.pos, fn=shifted))
        result = brute_force_min(copy, eta, constraint)
        # The grid table, then one call per golden-section step, except at
        # eta = 0, where the shifted partial has weight 0 and is not read.
        singles = [t for t in calls if not isinstance(t, np.ndarray)]
        assert len(calls) == 1 + len(singles) and (eta == 0.0) == (singles == [])
        assert bits(*result) == bits(*loop_search(copy, eta, constraint, mixed_partials))
        if eta == 0.3:  # inside, where the shift moves the optimum
            assert bits(*result) != bits(*brute_force_min(loss, eta, constraint))

    @pytest.mark.parametrize("name", ["hinge", "squared-weighted", "exponential", "sigmoid-gamma3", "swapped"])
    def test_a_family_pair_searched_untagged_is_fused(self, name):
        # Its partials are called on the grid alone: each golden-section
        # step is the family's fused search, whichever side each partial takes.
        if name == "swapped":
            squared = uneven("squared", 2.0, 0.7)
            loss = Loss(pos=squared.neg, neg=squared.pos)
        else:
            loss = replace(SEARCHED[name])

        def request():
            for eta in (0.3, 0.7, 1e-12):
                for constraint in CONSTRAINTS:
                    brute_force_min(loss, eta, constraint)

        assert family_calls(loss.pos.fn, request) == [np.ndarray, np.ndarray]

    def test_two_families_partials_are_called_each_step(self):
        hinge, squared = (uneven(f, 2.0, 0.7) for f in ("hinge", "squared"))
        loss = Loss(pos=hinge.pos, neg=squared.neg)
        seen = family_calls(hinge.pos.fn, lambda: brute_force_min(loss, 0.3))
        assert seen[0] is np.ndarray and len(seen) > 2 and set(seen[1:]) == {float}

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_the_pair_is_set_up_once_per_constraint(self, constraint):
        hinge = SEARCHED["hinge"]
        pos, neg = ReadsFused(hinge.pos.fn), ReadsFused(hinge.neg.fn)
        loss = Loss(pos=replace(hinge.pos, fn=pos), neg=replace(hinge.neg, fn=neg))
        for eta in (0.2, 0.7, 0.2, 1e-12):
            brute_force_min(loss, eta, constraint)
        assert (pos.reads, neg.reads) == (1, 1)


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

    @pytest.mark.parametrize(
        "atoms",
        [
            ((math.nan, 0.5),),
            ((0.5, 0.2), (math.nan, 0.8)),
            ((1.0, math.nan),),
            ((0.5, 0.2), (0.5, math.nan)),
        ],
    )
    def test_rejects_nan(self, atoms):
        with pytest.raises(DomainError):
            FiniteDistribution(atoms)

    @pytest.mark.parametrize(
        "atoms", [((1.0, None),), ((None, 0.3),), (("1", 0.3),), ((0.5, 0.2), (0.5, "0.8"))]
    )
    def test_rejects_an_atom_that_is_no_number(self, atoms):
        with pytest.raises(DomainError, match="(mass|eta) must be a number"):
            FiniteDistribution(atoms)


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

    @pytest.mark.parametrize("t", [None, "1.0"])
    def test_score_that_is_no_number_rejected(self, t):
        dist = FiniteDistribution(((0.5, 0.2), (0.5, 0.6)))
        loss = uneven("hinge", gamma=1.0, beta=1.0)
        with pytest.raises(DomainError, match="score must be a number"):
            empirical_regrets(dist, DecisionAssignment((1.0, t)), loss, CostParam(0.3))

    @pytest.mark.parametrize("eta", [0.1, 0.3, 0.9])
    def test_nan_score_rejected(self, eta):
        dist = FiniteDistribution(((0.5, eta), (0.5, 0.6)))
        loss = uneven("hinge", gamma=1.0, beta=1.0)
        with pytest.raises(DomainError, match="score must lie in .*, got nan"):
            empirical_regrets(dist, DecisionAssignment((math.nan, 1.0)), loss, CostParam(0.3))

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
    @pytest.mark.parametrize("grid_size", [2, 5.0, True, "201", None])
    def test_rejects_bad_grid_size_before_any_trial(self, monkeypatch, grid_size):
        def no_trials(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(calibration, "_random_trial_inputs", no_trials)
        with pytest.raises(DomainError, match="grid_size"):
            fuzz_bound(1, "hinge", 3, grid_size=grid_size)

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

    @pytest.mark.parametrize(
        "seed,n_trials,name",
        [
            (1.5, 1, "seed"),
            (1.0, 1, "seed"),
            ("1", 1, "seed"),
            (1, 2.5, "n_trials"),
            (1, None, "n_trials"),
        ],
    )
    def test_rejects_non_integers(self, seed, n_trials, name):
        with pytest.raises(DomainError, match=name):
            fuzz_bound(seed, "hinge", n_trials)

    def test_numpy_integers_accepted(self):
        assert fuzz_bound(np.int64(7), "hinge", np.int32(2)) == fuzz_bound(7, "hinge", 2)

    def test_a_large_numpy_seed_gives_python_int_trial_seeds(self):
        # 10**13 * 1_000_000 overflows int64; the trial seed is a Python int.
        records = fuzz_bound(np.int64(10**13), "hinge", 1)
        assert records == fuzz_bound(10**13, "hinge", 1)
        assert records[0].seed == 10**19 and type(records[0].seed) is int
