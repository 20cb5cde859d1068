"""Shared loss factories for the test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from costcal import Knot, Loss, PartialLoss, SampledCurve, UnevenMarginSpec, make_uneven_loss


def uneven(
    family: str,
    gamma: float,
    beta: float | None = None,
    alpha_weight: float | None = None,
) -> Loss:
    """Family loss; beta defaults to the calibrated configuration 1/gamma."""
    spec = UnevenMarginSpec(
        family=family,
        beta=beta if beta is not None else 1.0 / gamma,
        gamma=gamma,
        alpha_weight=alpha_weight,
    )
    return make_uneven_loss(spec)


def untagged(loss: Loss) -> Loss:
    """Same partials without the family tag, forcing the numeric paths."""
    return Loss(pos=loss.pos, neg=loss.neg, family=None)


def cost_sensitive_loss(alpha: float) -> Loss:
    """The target cost-sensitive 0-1 loss itself, with sign(0) = -1.

    Penalty (1 - alpha) for a nonpositive score on a positive label and
    alpha for a positive score on a negative label.  Discontinuous at 0.
    """
    pos = PartialLoss(
        fn=lambda t: (1.0 - alpha) * (t <= 0),
        value_at_zero=1.0 - alpha,
        is_convex=False,
        is_continuous_at_zero=False,
        limit_neg_inf=1.0 - alpha,
        limit_pos_inf=0.0,
    )
    neg = PartialLoss(
        fn=lambda t: alpha * (t > 0),
        value_at_zero=0.0,
        is_convex=False,
        is_continuous_at_zero=False,
        limit_neg_inf=0.0,
        limit_pos_inf=alpha,
    )
    return Loss(pos=pos, neg=neg)


@st.composite
def knot_curves(draw) -> SampledCurve:
    """Knot lists shaped like ``nu_curve``'s: sorted eps starting at 0, eps
    repeated (drawn from a coarse grid as well as freely), and a
    left/right pair at b_min whose values may jump either way."""
    big = draw(st.floats(0.5, 1.0))
    small = draw(st.floats(0.0, 1.0)) * big
    grid = st.integers(0, 8).map(lambda i: big * i / 8)
    eps = draw(st.lists(st.one_of(grid, st.floats(0.0, big)), min_size=1, max_size=40))
    values = st.one_of(st.just(0.0), st.floats(0.0, 5.0))
    knots = [Knot(e, draw(values), "both") for e in [0.0] + eps]
    knots += [Knot(small, draw(values), "left"), Knot(small, draw(values), "right")]
    knots.sort(key=lambda k: (k.eps, k.side != "left"))
    return SampledCurve(domain_max=big, knots=tuple(knots))
