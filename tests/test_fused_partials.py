"""The convex family partials give a float score the bits that score gets
inside an array.  A family pair's float search, whose golden section is
the family's fused search, gives the bits of the search on the same
partials composed.  The partials' own bits, against the margin functions
they replaced, are the golden sweep's (``tests/golden.py``, group
``partials/<family>``)."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costcal import FAMILIES, Loss, UnevenMarginSpec, brute_force_min, make_uneven_loss

from conftest import SEARCH_GRID


def specs(family, gamma):
    """The family at gamma, calibrated (beta = 1/gamma) and at beta = 0.7,
    unweighted and weighted."""
    return [
        UnevenMarginSpec(family, beta, gamma, alpha_weight)
        for beta in (1.0 / gamma, 0.7)
        for alpha_weight in (None, 0.3)
    ]


#: The families whose float and array partials agree bit for bit; the
#: sigmoid's float score takes libm's ``exp``, its array numpy's.
CONVEX = ["exponential", "hinge", "squared"]
DRAWN_SCORES = np.random.default_rng(5).uniform(-60.0, 60.0, 4000)


def assert_float_gets_array_bits(spec, scores):
    loss = make_uneven_loss(spec)
    for fn in (loss.pos.fn, loss.neg.fn):
        with np.errstate(over="ignore"):
            array = fn(scores)
        floats = np.array([fn(t) for t in scores.tolist()])
        assert floats.tobytes() == array.tobytes(), spec


@pytest.mark.parametrize("gamma", [1e-3, 0.25, 4.0, 1e3])
@pytest.mark.parametrize("family", CONVEX)
def test_float_scores_get_their_array_bits(family, gamma):
    for spec in specs(family, gamma):
        assert_float_gets_array_bits(spec, np.concatenate([SEARCH_GRID, DRAWN_SCORES]))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(CONVEX),
    st.sampled_from([1e-3, 0.25, 4.0, 1e3]),
    st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=20),
)
def test_drawn_float_scores_get_their_array_bits(family, gamma, scores):
    for spec in specs(family, gamma):
        assert_float_gets_array_bits(spec, np.array(scores))


#: Posteriors of the fused search tests: the least subnormal, a point inside
#: each edge, and two inner posteriors.  At 0 and 1 the one partial of
#: nonzero weight is the risk, and no fused search runs.
FUSED_ETAS = [5e-324, 1e-12, 0.3, 0.5, 1.0 - 1e-12]
CONSTRAINTS = ("none", "nonnegative_scores", "nonpositive_scores")


def composed(loss: Loss) -> Loss:
    """The same partials behind wrappers, which carry no fused search: the
    float search calls each partial once a step, converts its result by
    ``float``, and mixes them as eta * pos + (1 - eta) * neg."""
    return Loss(
        pos=replace(loss.pos, fn=lambda t, fn=loss.pos.fn: fn(t)),
        neg=replace(loss.neg, fn=lambda t, fn=loss.neg.fn: fn(t)),
    )


def assert_fused_search_matches_composed(loss, eta, constraint):
    """``brute_force_min`` on two partials of one family, whose golden
    section is the family's fused search, against the same partials
    composed, bit for bit (named by ``float.hex``): Python floats, and no
    numpy warning or floating-point error."""
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
        warnings.simplefilter("error")
        got = brute_force_min(loss, eta, constraint)
        want = brute_force_min(composed(loss), eta, constraint)
    assert all(type(v) is float for v in got), (loss.family, eta, constraint)
    assert list(map(float.hex, got)) == list(map(float.hex, want)), (loss.family, eta, constraint)


@pytest.mark.parametrize("gamma", [1e-3, 0.25, 1.0, 4.0, 1e3])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fused_search_has_the_composed_partials_bits(family, gamma):
    for spec in specs(family, gamma):
        loss = make_uneven_loss(spec)
        for eta in FUSED_ETAS:
            for constraint in CONSTRAINTS:
                assert_fused_search_matches_composed(loss, eta, constraint)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(FAMILIES)),
    st.floats(1e-3, 1e3),
    st.booleans(),
    st.one_of(st.none(), st.floats(1e-6, 1.0 - 1e-6)),
    st.one_of(
        st.sampled_from(FUSED_ETAS), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    ),
    st.sampled_from(CONSTRAINTS),
)
def test_drawn_fused_searches_have_the_composed_partials_bits(
    family, gamma, calibrated, alpha_weight, eta, constraint
):
    spec = UnevenMarginSpec(family, 1.0 / gamma if calibrated else 0.7, gamma, alpha_weight)
    assert_fused_search_matches_composed(make_uneven_loss(spec), eta, constraint)


def test_partials_of_two_families_and_swapped_partials_search_as_composed():
    # Two families' partials have no fused search; one family's, whichever
    # side each takes, keep its own.
    hinge, squared = (make_uneven_loss(UnevenMarginSpec(f, 0.7, 2.0)) for f in ("hinge", "squared"))
    for loss in (Loss(pos=hinge.pos, neg=squared.neg), Loss(pos=squared.neg, neg=squared.pos)):
        for eta in FUSED_ETAS:
            for constraint in CONSTRAINTS:
                assert_fused_search_matches_composed(loss, eta, constraint)
