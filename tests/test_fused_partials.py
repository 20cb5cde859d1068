"""The convex family partials give a float score the bits that score gets
inside an array.  Each family's fused search gives the bits of a golden
section on its two partials composed.  The partials' own bits, against
the margin functions they replaced, are the golden sweep's
(``tests/golden.py``, group ``partials/<family>``)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costcal import FAMILIES, Loss, UnevenMarginSpec, families, make_uneven_loss, oracle
from costcal.oracle import _GRID


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
        assert_float_gets_array_bits(spec, np.concatenate([_GRID, DRAWN_SCORES]))


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
#: nonzero weight is the risk, and ``_golden_section`` searches it.
FUSED_ETAS = [5e-324, 1e-12, 0.3, 0.5, 1.0 - 1e-12]


def assert_fused_search_matches_composed(loss, eta, code):
    """The family's fused search, as the loss's float plan keeps it, against
    ``_golden_section`` on the partials composed, bit for bit (named by
    ``float.hex``), on the bracket the float search refines at ``eta``
    under the constraint ``code``; it returns Python floats, with no numpy
    warning.  The composed risk is the one any pair that is not one
    family's gets: each partial's float call converted by ``float``, then
    eta * pos + (1 - eta) * neg."""
    pos_vals, neg_vals, _, _, (search, c1, s1, c2, s2) = oracle._float_plan(loss, code)
    ts = oracle._GRID_FLOATS[code]
    with np.errstate(over="ignore"):
        i = int((eta * pos_vals + (1.0 - eta) * neg_vals).argmin())
    a, b = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
        warnings.simplefilter("error")
        got = search(eta, c1, s1, c2, s2, a, b)
    pos, neg, w = loss.pos.fn, loss.neg.fn, 1.0 - eta
    with np.errstate(all="ignore"):
        want = oracle._golden_section(lambda t: eta * float(pos(t)) + w * float(neg(t)), a, b)
    assert all(type(v) is float for v in got), (loss.family, eta, code)
    assert list(map(float.hex, got)) == list(map(float.hex, want)), (loss.family, eta, code)


@pytest.mark.parametrize("gamma", [1e-3, 0.25, 1.0, 4.0, 1e3])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fused_search_has_the_composed_partials_bits(family, gamma):
    for spec in specs(family, gamma):
        loss = make_uneven_loss(spec)
        for eta in FUSED_ETAS:
            for code in (0, 1, -1):
                assert_fused_search_matches_composed(loss, eta, code)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(FAMILIES)),
    st.floats(1e-3, 1e3),
    st.booleans(),
    st.one_of(st.none(), st.floats(1e-6, 1.0 - 1e-6)),
    st.one_of(
        st.sampled_from(FUSED_ETAS), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    ),
    st.sampled_from([0, 1, -1]),
)
def test_drawn_fused_searches_have_the_composed_partials_bits(
    family, gamma, calibrated, alpha_weight, eta, code
):
    spec = UnevenMarginSpec(family, 1.0 / gamma if calibrated else 0.7, gamma, alpha_weight)
    assert_fused_search_matches_composed(make_uneven_loss(spec), eta, code)


def test_partials_of_two_families_are_composed():
    hinge, squared = (make_uneven_loss(UnevenMarginSpec(f, 0.7, 2.0)) for f in ("hinge", "squared"))
    assert oracle._float_plan(Loss(pos=hinge.pos, neg=squared.neg), 0)[-1] is None
    # One family's partials, whichever side each takes, keep its search.
    swapped = oracle._float_plan(Loss(pos=squared.neg, neg=squared.pos), 0)[-1]
    assert swapped == (families._squared_search, 0.7, -2.0, 1.0, 1.0)
