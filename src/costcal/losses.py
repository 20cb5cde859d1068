"""Core loss types and conditional-risk computations.

A binary-classification loss is a pair of nonnegative partial losses
(one per label) evaluated at a real-valued score.  This module computes
the conditional risk, its unconstrained and sign-constrained optima, the
calibration gap between them, and the posterior reparametrization that
links the cost-sensitive and cost-insensitive pictures.

Scores are plain floats; ``math.inf`` and ``-math.inf`` are admitted and
are resolved through the partial losses' declared limits.  The optimal
risks and the gap also take an ndarray of posteriors and return an array
of the same shape (see ``optimal_conditional_risk``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import DomainError, UnsupportedLimitError

if TYPE_CHECKING:
    from .families import UnevenMarginSpec

__all__ = [
    "PartialLoss",
    "Loss",
    "CostParam",
    "ThetaWeight",
    "sign",
    "conditional_risk",
    "optimal_conditional_risk",
    "constrained_optimal_risk",
    "h_alpha",
    "h_cc",
    "cost_regret",
    "theta_alpha",
]

#: Relative tolerance of the derivative test's alpha-weighted combination.
DERIVATIVE_TOL = 1e-12


def sign(x: float) -> float:
    """Sign with the conventions sign(0) = -1 and sign(+-inf) = +-1."""
    return 1.0 if x > 0 else -1.0


@dataclass(frozen=True)
class PartialLoss:
    """One label's loss as a function of the score.

    ``fn`` must accept an ndarray of finite scores and return the losses
    elementwise (numpy ufuncs do); the oracle evaluates it on whole grids.
    ``limit_neg_inf`` / ``limit_pos_inf`` declare the (extended real)
    limits of ``fn`` at -inf / +inf; ``None`` means undeclared, and
    evaluating at an infinite score then raises ``UnsupportedLimitError``.
    """

    fn: Callable[[float], float]
    value_at_zero: float
    is_convex: bool
    deriv_at_zero: float | None = None
    is_continuous_at_zero: bool = True
    limit_neg_inf: float | None = None
    limit_pos_inf: float | None = None

    def __call__(self, t: float) -> float:
        if t == math.inf:
            if self.limit_pos_inf is None:
                raise UnsupportedLimitError("no declared limit at +inf")
            return self.limit_pos_inf
        if t == -math.inf:
            if self.limit_neg_inf is None:
                raise UnsupportedLimitError("no declared limit at -inf")
            return self.limit_neg_inf
        # A numpy scalar would take numpy's rules, which warn past the float range.
        return float(self.fn(float(t)))


@dataclass(frozen=True)
class Loss:
    """A loss, as its two partial losses.

    ``family`` carries the construction tag for losses built by
    :mod:`costcal.families`; hand-built losses leave it ``None`` and are
    always served by the numeric code paths.

    The oracle keeps its search state on the loss, in ``_search_state``: a
    cached property, which writes the instance ``__dict__`` and no field.
    So ``==``, ``hash``, ``repr``, ``asdict`` and ``replace`` ignore it, a
    replaced loss remembers nothing, and the state is freed with the loss.
    """

    pos: PartialLoss
    neg: PartialLoss
    family: "UnevenMarginSpec | None" = None

    @cached_property
    def _search_state(self) -> list:
        """``[tables, slots]``: the partials' grid values, None until the
        first search makes them, and the last float search per constraint
        code, ``(posterior, SearchResult)`` or None, indexed by the code."""
        return [None, [None, None, None]]


@dataclass(frozen=True)
class CostParam:
    """Cost asymmetry alpha in (0, 1).

    alpha weighs false positives; 1 - alpha weighs false negatives.  The
    Bayes rule thresholds the posterior at alpha.
    """

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")

    @property
    def b_max(self) -> float:
        return max(self.alpha, 1.0 - self.alpha)

    @property
    def b_min(self) -> float:
        return min(self.alpha, 1.0 - self.alpha)


class ThetaWeight(NamedTuple):
    theta: float
    w: float


def _check_eta(eta) -> None:
    if isinstance(eta, np.ndarray):
        if not np.all((eta >= 0.0) & (eta <= 1.0)):
            raise DomainError("eta must lie in [0, 1]")
    elif not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta must lie in [0, 1], got {eta}")


def _check_score(t: float) -> None:
    if math.isnan(t):
        raise DomainError("score must not be NaN")


def conditional_risk(loss: Loss, eta: float, t: float) -> float:
    """eta * L1(t) + (1 - eta) * L-1(t), with 0 * inf taken as 0.

    Infinite scores use the declared limits of the partial losses; a
    value of +inf propagates.  A NaN score raises ``DomainError``.
    """
    _check_eta(eta)
    _check_score(t)
    total = 0.0
    for weight, partial in ((eta, loss.pos), (1.0 - eta, loss.neg)):
        if weight == 0.0:
            continue
        total += weight * partial(t)
    return total


def optimal_conditional_risk(loss: Loss, eta):
    """Infimum of the conditional risk over all scores, limits included.

    Family-tagged losses in a supported configuration dispatch to their
    closed form; everything else runs the brute-force search.  ``eta`` is
    a float or an ndarray of posteriors; an array runs the closed form in
    numpy, or one batched search for all of them (see ``_optima``).
    """
    _check_eta(eta)
    return _optima(loss, None, eta)


def derivative_test(loss: Loss, cost: CostParam) -> tuple[float, float, float, bool] | None:
    """The derivative test for alpha-calibration of convex partial losses.

    Returns (L1'(0), L-1'(0), combo, calibrated) with combo =
    alpha*L1'(0) + (1-alpha)*L-1'(0): calibrated iff L1'(0) < 0,
    L-1'(0) > 0 and |combo| <= DERIVATIVE_TOL * max(|L1'(0)|, |L-1'(0)|,
    1e-300).  A calibrated convex loss attains its sign-constrained
    infimum at the score 0.  None when a partial is not convex or lacks
    its derivative at 0.
    """
    pos, neg = loss.pos, loss.neg
    d1, d2 = pos.deriv_at_zero, neg.deriv_at_zero
    if not (pos.is_convex and neg.is_convex) or d1 is None or d2 is None:
        return None
    combo = cost.alpha * d1 + (1.0 - cost.alpha) * d2
    scale = max(abs(d1), abs(d2), 1e-300)
    return d1, d2, combo, d1 < 0.0 and d2 > 0.0 and abs(combo) <= DERIVATIVE_TOL * scale


def constrained_optimal_risk(loss: Loss, cost: CostParam, eta):
    """Infimum of the conditional risk over scores t with t*(eta-alpha) <= 0.

    At eta == alpha the constraint is vacuous.  For convex calibrated
    losses the value is the conditional risk at 0 (tests cross-check this
    shortcut against the constrained search); otherwise the constrained
    brute-force search runs, including the admissible infinite limit.
    An ndarray ``eta`` is served as in ``optimal_conditional_risk``: what
    no closed form serves, on both sides of alpha and at alpha itself,
    comes from one batched search.
    """
    _check_eta(eta)
    return _optima(loss, cost, eta)


def h_alpha(loss: Loss, cost: CostParam, eta):
    """Calibration gap: constrained minus unconstrained optimal risk.

    At eta == alpha the constraint is vacuous, so the gap is 0 there by
    definition and nothing is evaluated for it.  Negative gaps (rounding
    in the searches) are clamped to 0.  Takes a float or an ndarray of
    posteriors; on an array, whichever of C^- and C* no closed form
    serves comes from one search, which runs both together when neither
    is closed.
    """
    _check_eta(eta)
    if not isinstance(eta, np.ndarray) and eta == cost.alpha:
        return 0.0
    return _optima(loss, cost, eta, gap=True)


def _closed(loss: Loss, cost: CostParam | None, eta):
    """From a closed form: C^-(eta) off alpha for a cost, by the derivative
    test's shortcut first, or C*(eta) for ``cost`` None.  None when the
    search must serve the value."""
    if cost is None:
        return None if loss.family is None else loss.family.c_star(eta)
    test = derivative_test(loss, cost)
    if test is not None and test[3]:
        return eta * loss.pos.value_at_zero + (1.0 - eta) * loss.neg.value_at_zero
    return None if loss.family is None else loss.family.c_minus(cost, eta)


def _optima(loss: Loss, cost: CostParam | None, eta, gap: bool = False, floor: bool = False):
    """The one place that chooses closed form or search.

    Returns C*(eta) for ``cost`` None, and C^-(eta) for a cost, which is
    C* at alpha.  With ``gap``, returns ``h_alpha``: C^- - C* clamped at
    0, and 0 at alpha.

    With ``gap`` and ``floor``, on an array and a cost, returns a floor on
    each posterior's ``h_alpha``, or None.  There is one only where C^- is
    closed and C* is searched (a closed C* makes the gap itself cheaper
    than a floor): the gap's own arithmetic with the oracle's ceiling on
    the searched C* (``_c_star_ceiling``) in its place, or None where the
    oracle has no ceiling.  IEEE subtraction and the clamp are monotone,
    so each floor is at most the gap ``h_alpha`` returns, bit for bit,
    and a NaN gap's floor is NaN or 0.

    A float runs one float search for each quantity no closed form
    serves.  An array runs the closed forms on the whole of it; whatever
    they leave comes from one ``_search_rows`` call.  Its constraint code
    per row is the sign every admissible score keeps: sign(alpha - eta)
    for C^-, so 0 (no constraint, C*) at alpha, and 0 for C*.
    """
    if not isinstance(eta, np.ndarray):
        if cost is not None and eta == cost.alpha:
            cost = None
        value = _closed(loss, cost, eta)
        if value is None:
            from .oracle import _search_float

            # The array branch's code, sign(alpha - eta), or 0 for C*.
            code = 0 if cost is None else (-1 if eta > cost.alpha else 1)
            value = _search_float(loss, eta, code).value
        return max(value - _optima(loss, None, eta), 0.0) if gap else value

    def search(rows, *kinds):
        """One ``_search_rows`` call on ``eta[rows]``, a column of values per
        kind: sign(alpha - eta) codes for a cost, 0 for None."""
        from .oracle import _search_rows

        e = eta[rows]
        codes = (np.zeros(e.shape) if k is None else np.sign(k.alpha - e) for k in kinds)
        return [result.value for result in _search_rows(loss, e, *codes)]

    if cost is None:
        c_star = _closed(loss, None, eta)
        return search(..., None)[0] if c_star is None else c_star
    if floor and loss.family is not None and loss.family.has_closed_forms:
        return None  # _closed serves C*
    at = eta == cost.alpha
    c_minus = _closed(loss, cost, eta)
    if gap:
        if not floor:
            c_star = _closed(loss, None, eta)
        elif c_minus is None:
            return None
        else:
            from .oracle import _c_star_ceiling

            c_star = _c_star_ceiling(loss, eta)
            if c_star is None:
                return None
        if c_minus is None or c_star is None:
            # No row is searched at alpha: the gap is 0 there whatever the optima.
            off = ~at
            found = search(off, *(k for k, v in ((cost, c_minus), (None, c_star)) if v is None))
            c_minus = found.pop(0) if c_minus is None else c_minus[off]
            c_star = found.pop(0) if c_star is None else c_star[off]
            h = np.zeros(eta.shape)
            h[off] = c_minus - c_star
        else:
            h = c_minus - c_star
        return np.where((0.0 > h) | at, 0.0, h)
    # C^- off alpha and C* at alpha: one search serves the rows of either
    # that no closed form serves, its code 0 at alpha.
    c_star = _closed(loss, None, eta) if at.any() else 0.0
    value = np.where(at, 0.0 if c_star is None else c_star, 0.0 if c_minus is None else c_minus)
    if c_minus is None or c_star is None:
        rows = (~at if c_minus is None else False) | (at if c_star is None else False)
        if rows.any():
            value[rows] = search(rows, cost)[0]
    return value


def h_cc(loss: Loss, eta):
    """Cost-insensitive calibration gap; identical to the alpha = 1/2 gap."""
    return h_alpha(loss, CostParam(0.5), eta)


def cost_regret(cost: CostParam, eta: float, t: float) -> float:
    """Pointwise cost-sensitive regret of deciding with score t at posterior eta.

    Equals |eta - alpha| exactly when the sign of t disagrees with the
    sign of eta - alpha, else 0.  A NaN score raises ``DomainError``.
    """
    _check_eta(eta)
    _check_score(t)
    if sign(t) != sign(eta - cost.alpha):
        return abs(eta - cost.alpha)
    return 0.0


def _scaled_partial(partial: PartialLoss, c: float) -> PartialLoss:
    """The partial loss c * partial, its metadata scaled with it."""
    def scaled(t: float, fn=partial.fn, c=c) -> float:
        return c * fn(t)

    def scale_limit(v: float | None) -> float | None:
        return None if v is None else c * v

    return PartialLoss(
        fn=scaled,
        value_at_zero=c * partial.value_at_zero,
        is_convex=partial.is_convex,
        deriv_at_zero=None if partial.deriv_at_zero is None else c * partial.deriv_at_zero,
        is_continuous_at_zero=partial.is_continuous_at_zero,
        limit_neg_inf=scale_limit(partial.limit_neg_inf),
        limit_pos_inf=scale_limit(partial.limit_pos_inf),
    )


def theta_alpha(cost: CostParam, eta: float) -> ThetaWeight:
    """Posterior reparametrization theta and positive weight w.

    theta maps the cost-sensitive posterior onto the cost-insensitive
    scale: sign(2*theta - 1) = sign(eta - alpha), and theta(alpha) = 1/2.
    """
    _check_eta(eta)
    a = cost.alpha
    w = (1.0 - a) * eta + a * (1.0 - eta)
    return ThetaWeight(theta=(1.0 - a) * eta / w, w=w)
