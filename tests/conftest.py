"""Shared loss factories for the test suite."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from costcal import Knot, Loss, PartialLoss, SampledCurve, UnevenMarginSpec, make_uneven_loss
from costcal.oracle import _GRID

# Tier-1 draws the same examples on every run, and reads and writes no
# example database, so a pass or a failure repeats.  CI also runs the
# hypothesis tests with ``--hypothesis-profile=randomized``, which draws
# fresh examples each time.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("randomized", derandomize=False)
settings.load_profile("deterministic")


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


def finite_diff_check(partial: PartialLoss, t: float, h: float = 1e-6) -> float:
    """Central difference (p(t+h) - p(t-h)) / (2h) of a partial's ``fn``,
    for h > 0 with t - h and t + h finite."""
    return (float(partial.fn(t + h)) - float(partial.fn(t - h))) / (2.0 * h)


def curve_of(domain_max: float, knots) -> SampledCurve:
    """The ``SampledCurve`` whose knots are the ``(eps, value, side)`` rows
    ``knots``, built from their columns."""
    knots = list(knots)
    eps, values, sides = ([k[i] for k in knots] for i in range(3))
    return SampledCurve(domain_max, eps, values, sides)


def reference_mu(curve: SampledCurve) -> tuple[Knot, ...]:
    """``mu_curve``'s knots by a running minimum from the right end: the
    suffix infimum of the curve's values."""
    knots, low = [], math.inf
    for k in reversed(curve.knots):
        low = min(low, k.value)
        knots.append(Knot(k.eps, low, k.side))
    return tuple(reversed(knots))


def curve_bits(curve: SampledCurve) -> tuple:
    """A curve's domain and columns, bit for bit: curves compare by identity."""
    return curve.domain_max, curve.eps.tobytes(), curve.values.tobytes(), tuple(curve.sides)


def untagged(loss: Loss) -> Loss:
    """Same partials without the family tag, forcing the numeric paths."""
    return Loss(pos=loss.pos, neg=loss.neg, family=None)


#: The search grid by its own definition, apart from the oracle's: 400
#: log-spaced scores each side, from 1e-6 to 50, and the score 0.
_HALF_GRID = np.logspace(-6.0, math.log10(50.0), 400)
SEARCH_GRID = np.concatenate([-_HALF_GRID[::-1], [0.0], _HALF_GRID])


def counted(loss: Loss) -> tuple[Loss, list]:
    """The same loss (family tag kept) whose partials append the scores of
    each call to the returned list.  A request's cost is what its partials
    see (``evaluations``): the wrappers carry no family's fused search, so
    every float search calls them once a step."""
    calls: list = []

    def wrap(fn):
        def fn_counted(t):
            calls.append(t)
            return fn(t)

        return fn_counted

    pos, neg = replace(loss.pos, fn=wrap(loss.pos.fn)), replace(loss.neg, fn=wrap(loss.neg.fn))
    return replace(loss, pos=pos, neg=neg), calls


def evaluations(calls: list) -> tuple[list, int]:
    """What ``counted`` recorded: the size of each array evaluation, in
    order, and the number of float evaluations."""
    sizes = [t.size for t in calls if isinstance(t, np.ndarray)]
    return sizes, len(calls) - len(sizes)


#: Partials defined on the nonnegative scores only, NaN on the negative ones.
HALF_LINE = Loss(
    pos=PartialLoss(fn=np.sqrt, is_convex=False, limit_pos_inf=math.inf),
    neg=PartialLoss(
        fn=lambda t: 1.0 / (1.0 + np.sqrt(t)), is_convex=False, limit_pos_inf=0.0
    ),
)


_DECREASING = dict(fn=lambda t: np.exp(-t), is_convex=True)
#: L1 declares no limit at +inf.
UNDECLARED_LIMIT = Loss(
    pos=PartialLoss(**_DECREASING, limit_neg_inf=math.inf),
    neg=PartialLoss(**_DECREASING, limit_neg_inf=math.inf, limit_pos_inf=0.0),
)
#: L1 is +inf on every negative score.
INFINITE_ON_NEGATIVES = Loss(
    pos=PartialLoss(
        fn=lambda t: np.where(t < 0.0, np.inf, np.exp(-t)),
        is_convex=True,
        limit_neg_inf=math.inf,
        limit_pos_inf=0.0,
    ),
    neg=PartialLoss(
        fn=lambda t: (1.0 + t) ** 2,
        is_convex=True,
        limit_neg_inf=math.inf,
        limit_pos_inf=math.inf,
    ),
)


def _nan_far(fn):
    return lambda t: np.where(np.abs(t) > 30.0, np.nan, fn(t))


#: Squared hinge partials, NaN past |t| = 30.
NAN_FAR = Loss(
    pos=PartialLoss(_nan_far(lambda t: np.maximum(1.0 - t, 0.0) ** 2), is_convex=False,
                    limit_neg_inf=math.inf, limit_pos_inf=0.0),
    neg=PartialLoss(_nan_far(lambda t: np.maximum(1.0 + t, 0.0) ** 2), is_convex=False,
                    limit_neg_inf=0.0, limit_pos_inf=math.inf),
)


def edge_nan_loss(threshold: float, edge: str) -> Loss:
    """Linear partials whose conditional risk slopes up at posteriors below
    ``threshold`` and down above it, so a search's grid argmin sits at the
    grid's left edge below it and at its right edge above.  One partial is
    NaN strictly between the two outermost scores of the grid at ``edge``,
    which only a golden section bracketed there reads: L1 on the right,
    read at every posterior above ``threshold``, or L-1 on the left, read
    at every posterior below it.  The scores are the oracle's own grid's
    (``_GRID``): no public call gives them, and the NaN must follow them."""
    a, b = (_GRID[-2], _GRID[-1]) if edge == "right" else (_GRID[0], _GRID[1])

    def nan_inside(fn):
        return lambda t: np.where((a < t) & (t < b), np.nan, fn(t))

    def pos(t):
        return (1.0 - threshold) * np.maximum(50.0 - t, 0.0)

    def neg(t):
        return threshold * np.maximum(50.0 + t, 0.0)

    if edge == "right":
        pos = nan_inside(pos)
    else:
        neg = nan_inside(neg)
    return Loss(
        pos=PartialLoss(pos, is_convex=False),
        neg=PartialLoss(neg, is_convex=False),
    )


def cost_sensitive_loss(alpha: float) -> Loss:
    """The target cost-sensitive 0-1 loss itself, with sign(0) = -1.

    Penalty (1 - alpha) for a nonpositive score on a positive label and
    alpha for a positive score on a negative label.  Discontinuous at 0.
    """
    pos = PartialLoss(
        fn=lambda t: (1.0 - alpha) * (t <= 0),
        is_convex=False,
        is_continuous_at_zero=False,
        limit_neg_inf=1.0 - alpha,
        limit_pos_inf=0.0,
    )
    neg = PartialLoss(
        fn=lambda t: alpha * (t > 0),
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
    return curve_of(big, knots)


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
    return curve_of(eps[-1], knots)


@st.composite
def long_curves(draw) -> SampledCurve:
    """Curves of up to 1,500 knots made of pieces, as a family nu is: a
    convex, a concave or a rounded straight piece, each after a jump either
    way, on a dyadic grid with a point repeated.  Long enough for the hull's
    long Python stepping over a concave piece or after a jump, where each
    point pops the one before it, and for a point that pops a long stretch
    where a jump down follows a long convex piece."""
    shapes = st.sampled_from(["convex", "concave", "straight"])
    pieces = draw(
        st.lists(st.tuples(shapes, st.integers(2, 300), st.floats(-2.0, 2.0)), min_size=1, max_size=5)
    )
    eps, values = [0.0], [0.0]
    for shape, count, jump in pieces:
        t = np.arange(1, count + 1) / count
        rise = {"convex": t * t, "concave": np.sqrt(t), "straight": t / 3.0}[shape]
        eps += (eps[-1] + np.arange(1, count + 1) / 256.0).tolist()
        values += (values[-1] + jump + rise).tolist()
    knots = list(zip(eps, values, ["both"] * len(eps)))
    knots.insert(draw(st.integers(0, len(knots) - 1)), knots[draw(st.integers(0, len(knots) - 1))])
    knots.sort(key=lambda k: k[0])
    return curve_of(eps[-1], knots)
