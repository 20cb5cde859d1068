"""One NaN rule: a search that reads a NaN conditional risk, at its grid
argmin or at its refined point, raises ``DomainError`` naming the
posterior, and every public request passes that on without a warning."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costcal import (
    CalibrationReport,
    CostcalError,
    CostParam,
    DomainError,
    Loss,
    PartialLoss,
    SampledCurve,
    brute_force_min,
    calibration_fn,
    check_calibrated_numeric,
    constrained_optimal_risk,
    h_alpha,
    nu_curve,
    optimal_conditional_risk,
    regret_bound,
    uniform_calibration_fn,
)

from costcal.oracle import SearchResult

from conftest import HALF_LINE, NAN_FAR, edge_nan_loss, uneven, untagged

COST = CostParam(0.3)
NAN_LOSSES = {"half-line": HALF_LINE, "nan-far": NAN_FAR}
QUANTITIES = {
    "C_star": optimal_conditional_risk,
    "C_minus": lambda loss, eta: constrained_optimal_risk(loss, COST, eta),
    "H": lambda loss, eta: h_alpha(loss, COST, eta),
}
#: Every public request that reads a search, each at a posterior where both
#: losses' searches read a NaN risk: C^- at 0.7 keeps to the nonpositive
#: scores, where the half-line loss is undefined.
REQUESTS = {
    **{f"{name}-float": lambda loss, q=q: q(loss, 0.7) for name, q in QUANTITIES.items()},
    **{
        f"{name}-array": lambda loss, q=q: q(loss, np.array([0.1, 0.7]))
        for name, q in QUANTITIES.items()
    },
    "nu_curve": lambda loss: nu_curve(loss, COST, 21),
    "uniform_calibration_fn": lambda loss: uniform_calibration_fn(loss, COST, 0.2, 21),
    "calibration_fn": lambda loss: calibration_fn(loss, COST, 0.1, 0.7),
    "check_calibrated_numeric": lambda loss: check_calibrated_numeric(loss, COST, 21),
    "regret_bound": lambda loss: regret_bound(loss, COST, 0.01, 21),
    "brute_force_min-float": lambda loss: brute_force_min(loss, 0.7, "none"),
    "brute_force_min-array": lambda loss: brute_force_min(loss, np.array([0.7]), "none"),
}


@pytest.mark.parametrize("loss", NAN_LOSSES.values(), ids=NAN_LOSSES)
@pytest.mark.parametrize("request_", REQUESTS.values(), ids=REQUESTS)
def test_a_nan_risk_is_a_domain_error_without_a_warning(request_, loss):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="conditional risk is NaN at eta="):
            request_(loss)


@pytest.mark.parametrize("loss", NAN_LOSSES.values(), ids=NAN_LOSSES)
@pytest.mark.parametrize("quantity", QUANTITIES.values(), ids=QUANTITIES)
@pytest.mark.parametrize(
    "etas", [[0.1, 0.7], [0.7, 0.1], [0.0, 0.3, 1.0], [[1.0, 0.2], [0.3, 0.0]]]
)
def test_float_and_array_name_the_same_posterior(quantity, loss, etas):
    # The array names the first posterior, in its order, whose float request
    # raises; C^- rows come before C* rows in the search, but not in the name.
    with pytest.raises(DomainError) as array_error:
        quantity(loss, np.array(etas))
    first = None
    for eta in np.ravel(etas).tolist():
        try:
            quantity(loss, eta)
        except DomainError as error:
            first = error
            break
    assert first is not None and str(array_error.value) == str(first)


@pytest.mark.parametrize("eta", [0.0, 1.0])
def test_a_nan_partial_of_weight_zero_is_not_read(eta):
    # At eta = 0 L1 has weight 0, and at eta = 1 L-1: its NaN is no NaN risk.
    clean = untagged(uneven("squared", gamma=2.0))
    name = "pos" if eta == 0.0 else "neg"
    nan = replace(getattr(clean, name), fn=lambda t: np.full(np.shape(t), np.nan))
    loss = replace(clean, **{name: nan})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for constraint in ("none", "nonpositive_scores", "nonnegative_scores"):
            assert brute_force_min(loss, eta, constraint) == brute_force_min(clean, eta, constraint)
            got, expected = (
                brute_force_min(x, np.array([eta]), constraint) for x in (loss, clean)
            )
            assert bits(got) == bits(expected)


def bits(result):
    """A request's result as comparable bytes, so that equal means bit-equal
    (NaN and -0.0 included)."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, float):
        return np.float64(result).tobytes()
    if isinstance(result, SearchResult):
        return tuple(bits(x) for x in result)
    if isinstance(result, SampledCurve):
        return result.domain_max, bits(result.eps), bits(result.values), result.sides.tolist()
    assert isinstance(result, CalibrationReport)
    return repr(result)


def outcome(request_, loss):
    """``bits`` of the request's result, or its error's type and message."""
    try:
        return bits(request_(loss))
    except CostcalError as error:
        return type(error), str(error)


#: Untagged family losses, so every optimum comes from the search.
CLEAN = {
    "hinge": untagged(uneven("hinge", gamma=2.0)),
    "squared-weighted": untagged(uneven("squared", gamma=0.5, alpha_weight=0.3)),
    "exponential": untagged(uneven("exponential", gamma=3.0, beta=1.0)),
    "sigmoid": untagged(uneven("sigmoid", gamma=2.0)),
}
PROPERTY_ETAS = [0.0, 1e-12, 0.2, 0.3, 0.6, 1.0 - 1e-12, 1.0]
PROPERTY_REQUESTS = {
    **{
        f"{name}-{eta}": lambda loss, q=q, eta=eta: q(loss, eta)
        for name, q in QUANTITIES.items()
        for eta in PROPERTY_ETAS
    },
    **{
        f"{name}-array": lambda loss, q=q: q(loss, np.array(PROPERTY_ETAS))
        for name, q in QUANTITIES.items()
    },
    **{
        f"brute_force_min-{constraint}": lambda loss, c=constraint: brute_force_min(
            loss, np.array(PROPERTY_ETAS), c
        )
        for constraint in ("none", "nonpositive_scores", "nonnegative_scores")
    },
    "nu_curve": lambda loss: nu_curve(loss, COST, 21),
    "uniform_calibration_fn": lambda loss: uniform_calibration_fn(loss, COST, 0.1, 21),
    "calibration_fn": lambda loss: calibration_fn(loss, COST, 0.1, 0.6),
    "check_calibrated_numeric": lambda loss: check_calibrated_numeric(loss, COST, 21),
    "regret_bound": lambda loss: regret_bound(loss, COST, 0.01, 21),
}
#: Each clean loss's outcome per request, computed on first use.
CLEAN_OUTCOMES: dict = {}


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(CLEAN)),
    name=st.sampled_from(["pos", "neg"]),
    below=st.booleans(),
    cut=st.floats(-60.0, 60.0),
)
def test_a_partial_nan_on_a_half_line_raises_or_changes_nothing(family, name, below, cut):
    clean = CLEAN[family]
    fn = getattr(clean, name).fn

    def nan_fn(t):
        return np.where(t < cut if below else t > cut, np.nan, fn(t))

    loss = replace(clean, **{name: replace(getattr(clean, name), fn=nan_fn)})
    if family not in CLEAN_OUTCOMES:
        CLEAN_OUTCOMES[family] = {key: outcome(r, clean) for key, r in PROPERTY_REQUESTS.items()}
    expected = CLEAN_OUTCOMES[family]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for key, request_ in PROPERTY_REQUESTS.items():
            got = outcome(request_, loss)
            if got != expected[key]:
                assert got[0] is DomainError and "conditional risk is NaN" in got[1], key


def test_a_nan_risk_is_not_remembered():
    # The float search raises before it remembers anything, so asking again
    # raises again.
    for _ in range(2):
        with pytest.raises(DomainError, match=r"NaN at eta=0\.7$"):
            brute_force_min(HALF_LINE, 0.7, "nonpositive_scores")
    assert brute_force_min(HALF_LINE, 0.7, "nonnegative_scores").arg == 0.0


def test_a_nan_at_the_refined_point_alone_raises():
    # The grid row is clean: only the golden section, bracketed at the grid's
    # right edge, reads the NaN.
    loss = edge_nan_loss(0.3, "right")
    for eta in (0.5, np.array([0.5])):
        with pytest.raises(DomainError, match=r"NaN at eta=0\.5$"):
            brute_force_min(loss, eta)
    assert math.isfinite(brute_force_min(loss, 0.5, "nonpositive_scores").value)


#: Each partial is +inf at 0 and on the half-line where the other is finite,
#: with limit 0 at its own infinity: the conditional risk is +inf at every
#: finite score, so inside (0, 1) C^- = C* = +inf and the gap inf - inf is NaN.
INFINITE_RISK = Loss(
    pos=PartialLoss(lambda t: np.where(t > 0.0, np.exp(-t), np.inf), math.inf, False, limit_pos_inf=0.0),
    neg=PartialLoss(lambda t: np.where(t < 0.0, np.exp(t), np.inf), math.inf, False, limit_neg_inf=0.0),
)


@pytest.mark.parametrize("strict", [False, True], ids=["warnings-recorded", "warnings-as-errors"])
@pytest.mark.parametrize("grid", [11, 1001])
def test_a_nan_gap_is_a_domain_error(grid, strict):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error" if strict else "always")
        assert optimal_conditional_risk(INFINITE_RISK, 0.5) == math.inf
        assert h_alpha(INFINITE_RISK, COST, 0.0) == math.inf
        with pytest.raises(DomainError, match=r"gap is NaN .* at eta=0\.5$"):
            h_alpha(INFINITE_RISK, COST, 0.5)
        with pytest.raises(DomainError, match=r"gap is NaN .* at eta=0\.1$"):
            h_alpha(INFINITE_RISK, COST, np.array([0.0, 0.1, 0.5]))
        first = "0.1" if grid == 11 else "0.001"
        with pytest.raises(DomainError, match=rf"gap is NaN .* at eta={first}$"):
            check_calibrated_numeric(INFINITE_RISK, COST, grid)
        with pytest.raises(DomainError, match=r"gap is NaN .* at eta=0\.001$"):
            regret_bound(INFINITE_RISK, COST, 0.01, grid)
    assert caught == []
