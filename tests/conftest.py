"""Shared loss factories for the test suite."""

from __future__ import annotations

from dataclasses import replace

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


def counted(loss: Loss) -> tuple[Loss, list]:
    """The same loss (family tag kept) whose partials append the scores of
    each call to the returned list."""
    calls: list = []

    def wrap(fn):
        def fn_counted(t):
            calls.append(t)
            return fn(t)

        return fn_counted

    pos, neg = replace(loss.pos, fn=wrap(loss.pos.fn)), replace(loss.neg, fn=wrap(loss.neg.fn))
    return replace(loss, pos=pos, neg=neg), calls


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


@st.composite
def collinear_curves(draw) -> SampledCurve:
    """Knot lists shaped like a hinge ``nu``: straight pieces, and points
    repeated.  On a dyadic grid with small integer slopes every difference
    and product is exact, so three points on one piece have a cross of
    exactly 0; with a slope of 1/3 or 1/10 rounding leaves crosses of
    either sign, as on a sampled hinge."""
    n = draw(st.integers(2, 60))
    step = 2.0 ** draw(st.integers(-7, 0))
    breaks = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4)))
    slopes = draw(st.lists(st.integers(0, 6), min_size=len(breaks) + 1, max_size=len(breaks) + 1))
    divisor = draw(st.sampled_from([1.0, 3.0, 10.0]))
    eps, values, value = [0.0], [0.0], 0.0
    for i in range(1, n):
        slope = slopes[sum(b <= i - 1 for b in breaks)]
        value += slope * step / divisor
        eps.append(i * step)
        values.append(value)
    knots = [Knot(e, v, "both") for e, v in zip(eps, values)]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=8)):
        knots.append(knots[i])
    knots.sort(key=lambda k: k.eps)
    return SampledCurve(domain_max=eps[-1], knots=tuple(knots))
