"""Core loss types and conditional-risk computations.

A binary-classification loss is a pair of nonnegative partial losses
(one per label) evaluated at a real-valued score.  This module computes
the conditional risk, its unconstrained and sign-constrained optima, the
calibration gap between them, and the reweighting transform that links
the cost-sensitive and cost-insensitive pictures.

Scores are plain floats; ``math.inf`` and ``-math.inf`` are admitted and
are resolved through the partial losses' declared limits.  The optimal
risks and the gap also take an ndarray of posteriors and return an array
of the same shape (see ``optimal_conditional_risk``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    "alpha_transform",
    "theta_alpha",
]

#: Absolute tolerance for closed-form vs numeric agreement (grid resolution).
NUMERIC_TOL = 1e-6
#: Tolerance for analytic identities evaluated in floating point.
ANALYTIC_TOL = 1e-10


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
        return float(self.fn(t))


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


def _split(eta: np.ndarray, mask: np.ndarray, inside, outside) -> np.ndarray:
    """``inside`` on the posteriors where mask holds, ``outside`` elsewhere."""
    out = np.empty(eta.shape)
    for part, fn in ((mask, inside), (~mask, outside)):
        if part.any():
            out[part] = fn(eta[part])
    return out


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
    from .families import closed_c_star

    closed = closed_c_star(loss)
    if closed is not None:
        return closed(eta)
    from .oracle import brute_force_min

    return brute_force_min(loss, eta, "none").value


def _convex_calibrated(loss: Loss, cost: CostParam) -> bool:
    """Whether the constrained optimum is the conditional risk at 0.

    When both partials are convex and the derivative conditions for
    alpha-calibration hold at 0, the sign-constrained infimum is attained
    at the score 0.
    """
    pos, neg = loss.pos, loss.neg
    if not (pos.is_convex and neg.is_convex):
        return False
    d1, d2 = pos.deriv_at_zero, neg.deriv_at_zero
    if d1 is None or d2 is None:
        return False
    scale = max(abs(d1), abs(d2))
    if scale == 0.0:
        return False
    combo = cost.alpha * d1 + (1.0 - cost.alpha) * d2
    return d1 < 0.0 and d2 > 0.0 and abs(combo) <= 1e-12 * scale


def constrained_optimal_risk(loss: Loss, cost: CostParam, eta):
    """Infimum of the conditional risk over scores t with t*(eta-alpha) <= 0.

    At eta == alpha the constraint is vacuous.  For convex calibrated
    losses the value is the conditional risk at 0 (tests cross-check this
    shortcut against the constrained search); otherwise the constrained
    brute-force search runs, including the admissible infinite limit.
    An ndarray ``eta`` is served as in ``optimal_conditional_risk``; its
    search runs once per side of alpha.
    """
    _check_eta(eta)
    if isinstance(eta, np.ndarray):
        return _split(
            eta,
            eta == cost.alpha,
            lambda e: optimal_conditional_risk(loss, e),
            lambda e: _off_threshold_risk(loss, cost, e),
        )
    if eta == cost.alpha:
        return optimal_conditional_risk(loss, eta)
    return _off_threshold_risk(loss, cost, eta)


def _off_threshold_risk(loss: Loss, cost: CostParam, eta):
    """``constrained_optimal_risk`` at posteriors other than alpha."""
    if _convex_calibrated(loss, cost):
        return eta * loss.pos.value_at_zero + (1.0 - eta) * loss.neg.value_at_zero

    from .families import closed_sigmoid_c_minus

    closed = closed_sigmoid_c_minus(loss, cost)
    if closed is not None:
        return closed(eta)

    from .oracle import brute_force_min

    if isinstance(eta, np.ndarray):
        return _split(
            eta,
            eta > cost.alpha,
            lambda e: brute_force_min(loss, e, "nonpositive_scores").value,
            lambda e: brute_force_min(loss, e, "nonnegative_scores").value,
        )
    constraint = "nonpositive_scores" if eta > cost.alpha else "nonnegative_scores"
    return brute_force_min(loss, eta, constraint).value


def h_alpha(loss: Loss, cost: CostParam, eta):
    """Calibration gap: constrained minus unconstrained optimal risk.

    Negative gaps (rounding in the searches) are clamped to 0.  Takes a
    float or an ndarray of posteriors.
    """
    gap = constrained_optimal_risk(loss, cost, eta) - optimal_conditional_risk(loss, eta)
    if isinstance(eta, np.ndarray):
        return np.where(0.0 > gap, 0.0, gap)
    return max(gap, 0.0)


def h_cc(loss: Loss, eta: float) -> float:
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


def alpha_transform(loss: Loss, cost: CostParam) -> Loss:
    """Outer reweighting of the partial losses by (1 - alpha, alpha).

    A family tag survives only when the input loss is an unweighted
    family member; the result is then the alpha-weighted member.
    """
    a = cost.alpha
    family = None
    if loss.family is not None and loss.family.alpha_weight is None:
        family = replace(loss.family, alpha_weight=a)
    return Loss(
        pos=_scaled_partial(loss.pos, 1.0 - a),
        neg=_scaled_partial(loss.neg, a),
        family=family,
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
