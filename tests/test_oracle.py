"""Brute-force search, finite differences, empirical regrets, and fuzzing."""

import functools
import gc
import math
import warnings
import weakref
from dataclasses import asdict, dataclass, fields, replace

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
from costcal import calibration, families, oracle
from costcal.families import UnevenMarginSpec

from conftest import (
    HALF_LINE,
    INFINITE_ON_NEGATIVES,
    NAN_FAR,
    UNDECLARED_LIMIT,
    counted,
    finite_diff_check,
    uneven,
    untagged,
)

CONSTRAINTS = ("none", "nonpositive_scores", "nonnegative_scores")
#: The references' own reading of each constraint, apart from the oracle's
#: layout: its code (the sign every admissible score keeps), its admissible
#: scores of the grid, and its admissible infinite scores in the order they
#: compete.
REFERENCE_CONSTRAINTS = {
    "none": (0, slice(None), (-math.inf, math.inf)),
    "nonnegative_scores": (1, oracle._GRID >= 0.0, (math.inf,)),
    "nonpositive_scores": (-1, oracle._GRID <= 0.0, (-math.inf,)),
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
    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3: the oracle searches scores in [-50, 50] only, and this "
        "hinge's C* minimizer is at -1/gamma = -1000",
    )
    def test_tagged_hinge_minimized_beyond_the_window(self):
        # No closed form serves beta = 500, gamma = 1e-3: C* is searched.
        eta, beta, gamma = 0.1, 500.0, 1e-3
        loss = uneven("hinge", gamma=gamma, beta=beta)
        exact = min(eta * (1.0 + 1.0 / gamma), (1.0 - eta) * beta * (1.0 + gamma))
        as_float = optimal_conditional_risk(loss, eta)
        (as_array,) = optimal_conditional_risk(loss, np.array([eta]))
        assert [as_float, as_array] == pytest.approx([exact, exact], rel=1e-9)


def golden_section(f, a, b):
    """Minimize a unimodal f on [a, b], in the arithmetic of a and b."""
    h = b - a
    c = b - oracle._INV_PHI * h
    d = a + oracle._INV_PHI * h
    yc, yd = f(c), f(d)
    while h > oracle._GOLDEN_TOL:
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = b - oracle._INV_PHI * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + oracle._INV_PHI * h
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
    ``_GRID`` as numpy scalars, so every step of the golden section is numpy
    scalar arithmetic.  The golden section minimizes ``objective(loss,
    eta)``, by default ``conditional_risk`` itself.  The reference for
    ``brute_force_min``'s Python-float search."""
    _, columns, limits = REFERENCE_CONSTRAINTS[constraint]
    ts = oracle._GRID[columns]
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
        assert [t.size for t in arrays] == [len(oracle._GRID)] * 2
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
    def test_nu_curve_hands_the_batched_search_no_lone_row(self, monkeypatch, name):
        # h_alpha is 0 at alpha by definition, so no posterior is searched
        # alone there (a lone row costs the batched search about 10x the float one).
        rows_seen = []
        batched = oracle._golden_section_rows

        def spy(pos, neg, a, b, w):
            rows_seen.append(len(a))
            return batched(pos, neg, a, b, w)

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


def assert_rows_match_reference(loss, etas, *codes):
    """Every row of one ``_search_rows`` call of mixed constraints is
    bit-equal to the array search for its constraint alone."""
    etas = np.array(etas, dtype=float)
    results = oracle._search_rows(loss, etas, *(np.array(c) for c in codes))
    assert len(results) == len(codes)
    for code, result in zip(codes, results):
        code = np.array(code)
        for constraint, (k, _, _) in REFERENCE_CONSTRAINTS.items():
            rows = code == k
            if rows.any():
                ref = brute_force_min(loss, etas[rows], constraint)
                got = zip(result.arg[rows].tolist(), result.value[rows].tolist())
                assert [bits(*r) for r in got] == [bits(*r) for r in zip(ref.arg, ref.value)]


ROW_ETAS = [0.0, 1.0, 0.3, 1e-12, 1.0 - 1e-12]


class TestRowSearch:
    """One search over rows of mixed constraints against the search for each
    constraint alone, and the requests that make one such search."""

    @pytest.mark.parametrize("name", sorted(ROW_LOSSES))
    def test_mixed_constraints_at_the_edges(self, name):
        etas = ROW_ETAS * 3
        # Each posterior under every constraint, in both columns.
        first = [k for k in (-1, 0, 1) for _ in ROW_ETAS]
        second = [(k + 2) % 3 - 1 for k in first]
        assert_rows_match_reference(ROW_LOSSES[name], etas, first, second)
        assert_rows_match_reference(ROW_LOSSES[name], etas, second)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 1.0), st.integers(-1, 1), st.integers(-1, 1)),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from(sorted(ROW_LOSSES)),
    )
    def test_drawn_posteriors_and_constraints(self, rows, name):
        etas, first, second = zip(*rows)
        assert_rows_match_reference(ROW_LOSSES[name], etas, first, second)

    def test_no_posteriors(self):
        loss, cost, none = SEARCHED["hinge"], CostParam(0.3), np.array([])
        for constraint in CONSTRAINTS:
            result = brute_force_min(loss, none, constraint)
            assert result.arg.shape == result.value.shape == (0,)
        assert h_alpha(loss, cost, none).shape == (0,)
        assert constrained_optimal_risk(loss, cost, none).shape == (0,)

    @pytest.mark.parametrize("request_fn", [h_alpha, constrained_optimal_risk])
    def test_one_golden_section_run_with_alpha_among_the_posteriors(self, monkeypatch, request_fn):
        loss, alpha = SEARCHED["sigmoid-gamma3"], 0.3
        etas = np.array([0.0, 1e-12, 0.1, alpha, 0.5, 0.9, 1.0])
        runs = []
        golden = oracle._golden_section_rows

        def spy(pos, neg, a, b, w):
            runs.append(len(a))
            return golden(pos, neg, a, b, w)

        monkeypatch.setattr(oracle, "_golden_section_rows", spy)
        values = request_fn(loss, CostParam(alpha), etas)
        assert len(runs) == 1 and runs[0] > 1
        # Against each constraint's search alone: C^- on each side, C* at alpha.
        below = brute_force_min(loss, etas[:3], "nonnegative_scores").value
        above = brute_force_min(loss, etas[4:], "nonpositive_scores").value
        c_star = brute_force_min(loss, etas, "none").value
        c_minus = np.concatenate([below, c_star[3:4], above])
        gap = c_minus - c_star
        expected = np.where(0.0 > gap, 0.0, gap) if request_fn is h_alpha else c_minus
        assert bits(*values) == bits(*expected)


class TestCStarCeiling:
    """The ceiling on the searched C*: each row at least the C* the row
    search returns, bit for bit, or None where a mix could be NaN."""

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
    of weight 0 contributes nothing, even an ``inf`` or NaN one."""

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
    """e^-t times c: a callable that equality makes unhashable."""

    c: float

    def __call__(self, t):
        return self.c * np.exp(-t)


#: e^-t as a partial whose ``fn`` is unhashable.
SCALED_EXP = PartialLoss(
    fn=ScaledExp(1.0), value_at_zero=1.0, is_convex=True, limit_neg_inf=math.inf, limit_pos_inf=0.0
)


class TestGridTable:
    def test_each_partial_evaluated_once_on_the_grid(self):
        loss, scores = counted(SEARCHED["squared-weighted"])
        cost, etas = CostParam(0.3), np.array([0.1, 0.3, 0.8])
        for constraint in CONSTRAINTS:
            brute_force_min(loss, 0.6, constraint)
            brute_force_min(loss, etas, constraint)
        h_alpha(loss, cost, etas)
        constrained_optimal_risk(loss, cost, etas)
        assert [np.size(t) for t in scores if np.size(t) > len(etas)] == [len(oracle._GRID)] * 2

    def test_half_line_partials_do_not_warn(self):
        # NaN off the nonnegative scores: the table holds it, and no search
        # under the nonnegative constraint reads it.
        loss = Loss(
            pos=PartialLoss(
                fn=np.sqrt, value_at_zero=0.0, is_convex=False, limit_pos_inf=math.inf
            ),
            neg=PartialLoss(
                fn=lambda t: 1.0 / (1.0 + np.sqrt(t)),
                value_at_zero=1.0,
                is_convex=False,
                limit_pos_inf=0.0,
            ),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tuple(brute_force_min(loss, 0.5, "nonnegative_scores")) == (0.0, 0.5)
            batch = brute_force_min(loss, np.array([0.5]), "nonnegative_scores")
        assert (batch.arg.tolist(), batch.value.tolist()) == ([0.0], [0.5])

    def test_kept_on_the_loss_with_an_unhashable_fn(self):
        loss = Loss(pos=SCALED_EXP, neg=replace(SCALED_EXP, fn=ScaledExp(2.0)))
        brute_force_min(loss, 0.3)
        tables = loss._search_state[0]
        brute_force_min(loss, np.array([0.2, 0.7]))
        assert loss._search_state[0] is tables
        for table, c in zip(tables, (1.0, 2.0)):
            assert not table.flags.writeable
            assert bits(*table) == bits(*(c * np.exp(-oracle._GRID)))


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


def float_search_runs(monkeypatch) -> list:
    """A spy on the float search's grid pass and golden section, which every
    cold float search runs once, whether its golden section is a family's
    fused search or ``_golden_section``: one entry per run, its posterior
    and whether it ran fused."""
    runs = []
    grid_and_golden = oracle._grid_and_golden

    def spy(eta, pos_vals, neg_vals, ts, risk, pair):
        runs.append((eta, risk is None))
        return grid_and_golden(eta, pos_vals, neg_vals, ts, risk, pair)

    monkeypatch.setattr(oracle, "_grid_and_golden", spy)
    return runs


class TestLastSearch:
    """Each loss remembers its last float search per constraint; a repeated
    request returns it, bit-equal to a cold search."""

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

    @pytest.mark.parametrize("eta, searches", [(0.2, 2), (0.3, 1), (0.0, 2), (-0.0, 2)])
    def test_c_star_c_minus_and_gap_search_each_once(self, monkeypatch, eta, searches):
        # C^- at alpha is C*; the gap there is 0 and searches nothing.
        loss, cost = replace(SEARCHED["sigmoid-gamma3"]), CostParam(0.3)
        runs = float_search_runs(monkeypatch)
        c_star = optimal_conditional_risk(loss, eta)
        c_minus = constrained_optimal_risk(loss, cost, eta)
        gap = h_alpha(loss, cost, eta)
        assert len(runs) == searches
        # An untagged family pair runs fused inside (0, 1), and alone at 0.
        assert all(fused == (eta != 0.0) for _, fused in runs)
        assert gap == (0.0 if eta == 0.3 else max(c_minus - c_star, 0.0))
        # Asked again, in any order, nothing more is searched.
        h_alpha(loss, cost, eta)
        constrained_optimal_risk(loss, cost, eta)
        optimal_conditional_risk(loss, np.float64(eta))
        assert len(runs) == searches

    def test_one_slot_per_constraint(self, monkeypatch):
        loss = replace(SEARCHED["hinge"])
        runs = float_search_runs(monkeypatch)
        for eta in (0.2, 0.7, 0.2):
            for constraint in CONSTRAINTS:
                brute_force_min(loss, eta, constraint)
        # Each constraint's slot holds the last posterior only.
        assert len(runs) == 9
        slots = loss._search_state[1]
        assert len(slots) == 3 and all(eta == 0.2 for eta, _ in slots)

    def test_array_searches_are_not_remembered(self, monkeypatch):
        loss = replace(SEARCHED["hinge"])
        brute_force_min(loss, np.array([0.2, 0.7]))
        assert loss._search_state[1] == [None, None, None]
        brute_force_min(loss, 0.2)
        runs = []
        rows = oracle._golden_section_rows

        def spy(pos, neg, a, b, w):
            runs.append(len(a))
            return rows(pos, neg, a, b, w)

        monkeypatch.setattr(oracle, "_golden_section_rows", spy)
        brute_force_min(loss, np.array([0.2]))
        assert runs == [1]

    @pytest.mark.parametrize("eta", [math.nan, np.float64(math.nan), -1e-300, 1.5])
    def test_bad_posterior_raises_before_any_lookup(self, eta):
        loss = replace(SEARCHED["hinge"])
        with pytest.raises(DomainError):
            brute_force_min(loss, eta)
        assert "_search_state" not in vars(loss)
        result = brute_force_min(loss, 0.3)
        with pytest.raises(DomainError):
            brute_force_min(loss, eta)
        assert loss._search_state[1] == [(0.3, result), None, None]

    def test_unhashable_fn_and_freed_with_its_loss(self):
        loss = Loss(pos=SCALED_EXP, neg=replace(SCALED_EXP, fn=ScaledExp(2.0)))
        result = brute_force_min(loss, 0.3)
        assert loss._search_state[1][0] == (0.3, result)
        refs = [weakref.ref(x) for x in (loss, *loss._search_state[0])]
        del loss, result
        gc.collect()
        assert all(ref() is None for ref in refs)


class TestSearchStateIsNoField:
    """The search state sits in the loss's ``__dict__`` and in no field."""

    def test_a_searched_loss_compares_hashes_and_prints_as_a_fresh_copy(self):
        loss = replace(SEARCHED["hinge"])
        brute_force_min(loss, 0.3)
        brute_force_min(loss, np.array([0.2, 0.7]))
        fresh = replace(loss)
        assert "_search_state" in vars(loss) and "_search_state" not in vars(fresh)
        assert loss == fresh and hash(loss) == hash(fresh) and repr(loss) == repr(fresh)

    def test_fields_and_asdict_are_unchanged(self):
        loss = replace(SEARCHED["sigmoid"])
        fresh = asdict(loss)
        brute_force_min(loss, 0.3)
        assert [f.name for f in fields(Loss)] == ["pos", "neg", "family"]
        assert asdict(loss) == fresh and set(fresh) == {"pos", "neg", "family"}

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_a_replaced_loss_remembers_nothing(self, monkeypatch, constraint):
        loss = replace(SEARCHED["exponential"])
        searched = bits(*brute_force_min(loss, 0.3, constraint))
        runs = float_search_runs(monkeypatch)
        copy = replace(loss)
        assert bits(*brute_force_min(copy, 0.3, constraint)) == searched
        assert len(runs) == 1
        assert copy._search_state[0][0] is not loss._search_state[0][0]
        assert copy._search_state[2] is not loss._search_state[2]


class TestFusedSearch:
    """The fused search is found from the partials' ``fn`` alone, once per
    loss and constraint, and kept in the loss's float plan."""

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
        code = oracle._SEARCH[constraint]
        result = brute_force_min(copy, eta, constraint)
        assert copy._search_state[2][code][-1] is None
        # The grid table, then one call per golden-section step, except at
        # eta = 0, where the shifted partial has weight 0 and is not read.
        singles = [t for t in calls if not isinstance(t, np.ndarray)]
        assert len(calls) == 1 + len(singles) and (eta == 0.0) == (singles == [])
        assert bits(*result) == bits(*loop_search(copy, eta, constraint, mixed_partials))
        if eta == 0.3:  # inside, where the shift moves the optimum
            assert bits(*result) != bits(*brute_force_min(loss, eta, constraint))

    def test_a_family_pair_searched_untagged_is_fused(self):
        loss = replace(SEARCHED["sigmoid-gamma3"])
        assert loss.family is None
        brute_force_min(loss, 0.3)
        search, *params = loss._search_state[2][0][-1]
        assert search is families._sigmoid_search
        assert params == [*loss.pos.fn.fused[2:], *loss.neg.fn.fused[2:]]

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_the_pair_is_set_up_once_per_constraint(self, monkeypatch, constraint):
        loss, fused = replace(SEARCHED["hinge"]), oracle._fused
        calls = []
        monkeypatch.setattr(oracle, "_fused", lambda fn: calls.append(fn) or fused(fn))
        monkeypatch.setattr(oracle, "_float_risk", None)  # never called on a family pair
        for eta in (0.2, 0.7, 0.2, 1e-12):
            brute_force_min(loss, eta, constraint)
        assert calls == [loss.pos.fn, loss.neg.fn]


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
