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
    """

    pos: PartialLoss
    neg: PartialLoss
    family: "UnevenMarginSpec | None" = None


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


def conditional_risk(loss: Loss, eta: float, t: float) -> float:
    """eta * L1(t) + (1 - eta) * L-1(t), with 0 * inf taken as 0.

    Infinite scores use the declared limits of the partial losses; a
    value of +inf propagates.
    """
    _check_eta(eta)
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
    numpy, or one batched search for all of them.
    """
    _check_eta(eta)
    closed = _closed_c_star(loss, eta)
    if closed is not None:
        return closed
    from .oracle import brute_force_min

    return brute_force_min(loss, eta, "none").value


def _closed_c_star(loss: Loss, eta):
    """The closed-form C*(eta), or None when the search must serve it."""
    return None if loss.family is None else loss.family.c_star(eta)


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
    if isinstance(eta, np.ndarray):
        return _constrained_rows(loss, cost, eta)
    if eta == cost.alpha:
        return optimal_conditional_risk(loss, eta)
    return _off_threshold_risk(loss, cost, eta)


def _closed_c_minus(loss: Loss, cost: CostParam, eta):
    """C^-(eta) off alpha from the convex shortcut or a closed form, or
    None when the search must serve it."""
    test = derivative_test(loss, cost)
    if test is not None and test[3]:
        return eta * loss.pos.value_at_zero + (1.0 - eta) * loss.neg.value_at_zero
    return None if loss.family is None else loss.family.c_minus(cost, eta)


def _off_threshold_risk(loss: Loss, cost: CostParam, eta: float) -> float:
    """``constrained_optimal_risk`` at a float posterior other than alpha."""
    closed = _closed_c_minus(loss, cost, eta)
    if closed is not None:
        return closed
    from .oracle import brute_force_min

    constraint = "nonpositive_scores" if eta > cost.alpha else "nonnegative_scores"
    return brute_force_min(loss, eta, constraint).value


def _sign_codes(cost: CostParam, eta: np.ndarray) -> np.ndarray:
    """Per posterior, the row search's code of the constraint t*(eta-alpha)
    <= 0: nonpositive scores above alpha, nonnegative below, none at alpha."""
    from .oracle import _NONE, _NONNEGATIVE, _NONPOSITIVE

    below = np.where(eta < cost.alpha, _NONNEGATIVE, _NONE)
    return np.where(eta > cost.alpha, _NONPOSITIVE, below)


def _constrained_rows(loss: Loss, cost: CostParam, eta: np.ndarray) -> np.ndarray:
    """``constrained_optimal_risk`` on an ndarray: C^- off alpha and C* at
    alpha, each closed where a closed form serves; the rest, on both sides
    and at alpha alike, comes from one search."""
    at = eta == cost.alpha
    out = np.empty(eta.shape)
    searched = np.zeros(eta.shape, dtype=bool)
    for rows, closed in (
        (~at, lambda e: _closed_c_minus(loss, cost, e)),
        (at, lambda e: _closed_c_star(loss, e)),
    ):
        if rows.any():
            value = closed(eta[rows])
            if value is None:
                searched |= rows
            else:
                out[rows] = value
    if searched.any():
        from .oracle import _search_rows

        e = eta[searched]
        out[searched] = _search_rows(loss, e, _sign_codes(cost, e))[0].value
    return out


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
    if isinstance(eta, np.ndarray):
        return _gap_rows(loss, cost, eta)
    if eta == cost.alpha:
        return 0.0
    return max(_off_threshold_risk(loss, cost, eta) - optimal_conditional_risk(loss, eta), 0.0)


def _gap_rows(loss: Loss, cost: CostParam, eta: np.ndarray) -> np.ndarray:
    """``h_alpha`` on an ndarray."""
    at = eta == cost.alpha
    c_minus, c_star = _closed_c_minus(loss, cost, eta), _closed_c_star(loss, eta)
    if c_minus is None or c_star is None:
        from .oracle import _NONE, _search_rows

        # No row is searched at alpha: the gap is 0 there whatever the optima.
        e = eta[~at]

        def spread(result):
            values = np.zeros(eta.shape)
            values[~at] = result.value
            return values

        free = np.full(e.shape, _NONE)
        if c_star is not None:
            c_minus = spread(_search_rows(loss, e, _sign_codes(cost, e))[0])
        elif c_minus is not None:
            c_star = spread(_search_rows(loss, e, free)[0])
        else:
            c_minus, c_star = map(spread, _search_rows(loss, e, _sign_codes(cost, e), free))
    gap = c_minus - c_star
    return np.where((0.0 > gap) | at, 0.0, gap)


def h_cc(loss: Loss, eta):
    """Cost-insensitive calibration gap; identical to the alpha = 1/2 gap."""
    return h_alpha(loss, CostParam(0.5), eta)


def cost_regret(cost: CostParam, eta: float, t: float) -> float:
    """Pointwise cost-sensitive regret of deciding with score t at posterior eta.

    Equals |eta - alpha| exactly when the sign of t disagrees with the
    sign of eta - alpha, else 0.
    """
    _check_eta(eta)
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
