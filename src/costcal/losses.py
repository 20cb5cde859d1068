"""Loss types and pointwise risk computations.

A binary-classification loss is a pair of nonnegative partial losses
(one per label) evaluated at a real-valued score.  This module holds the
types and the functions of one posterior and one score: the conditional
risk, the pointwise cost regret, the derivative test at the origin, and
the posterior reparametrization that links the cost-sensitive and
cost-insensitive pictures.  The optima of the conditional risk, and the
calibration gap between them, are :mod:`costcal.oracle`'s.

Scores are plain floats; ``math.inf`` and ``-math.inf`` are admitted and
are resolved through the partial losses' declared limits.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import DomainError, UnsupportedLimitError, _check_real

if TYPE_CHECKING:
    from .families import UnevenMarginSpec

__all__ = [
    "PartialLoss",
    "Loss",
    "CostParam",
    "ThetaWeight",
    "conditional_risk",
    "cost_regret",
    "theta_alpha",
]

#: Relative tolerance of the derivative test's alpha-weighted combination.
DERIVATIVE_TOL = 1e-12

#: The golden section's ratio, and the bracket width at which it stops.
#: Every golden section reads them here, the families' fused searches and
#: the oracle's float and row loops, so each stops at the same bracket.
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_TOL = 1e-10


def sign(x: float) -> float:
    """Sign with the conventions sign(0) = -1 and sign(+-inf) = +-1."""
    return 1.0 if x > 0 else -1.0


@dataclass(frozen=True)
class PartialLoss:
    """One label's loss as a function of the score.

    ``fn`` must accept an ndarray of finite scores and return the losses
    elementwise (numpy ufuncs do); the oracle evaluates it on whole grids.
    Every other field is keyword-only, and declares what ``fn`` cannot
    tell: ``is_convex`` and ``is_continuous_at_zero`` are bools;
    ``deriv_at_zero`` is the derivative at 0, and ``limit_neg_inf`` /
    ``limit_pos_inf`` the (extended real) limits of ``fn`` at -inf / +inf,
    each a number or ``None`` for undeclared (evaluating at an infinite
    score then raises ``UnsupportedLimitError``).  A field of another type,
    a NaN, or an ``fn`` that is not callable raises ``DomainError``.
    """

    fn: Callable[[float], float]
    _: KW_ONLY
    is_convex: bool
    deriv_at_zero: float | None = None
    is_continuous_at_zero: bool = True
    limit_neg_inf: float | None = None
    limit_pos_inf: float | None = None

    def __post_init__(self) -> None:
        if not callable(self.fn):
            raise DomainError(f"fn must be callable, got {self.fn!r}")
        for name in ("is_convex", "is_continuous_at_zero"):
            if not isinstance(flag := getattr(self, name), (bool, np.bool_)):
                raise DomainError(f"{name} must be a bool, got {flag!r}")
        for name in ("deriv_at_zero", "limit_neg_inf", "limit_pos_inf"):
            if (value := getattr(self, name)) is not None:
                _check_real(name, value)

    @cached_property
    def value_at_zero(self) -> float:
        """``fn`` at the score 0, evaluated on first read."""
        return self(0.0)

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
        """``[tables, slots, plans]``: the partials' grid values, None until
        the first search makes them; the last float search per constraint
        code, ``(posterior, SearchResult)`` or None; and per code, None until
        its first float search, what a float search reads of the loss: the
        tables' columns, their limits and, for two partials of one family,
        the family's fused search with the partials' c and s, so a later
        search sets none of it up.  The last two are indexed by the code."""
        return [None, [None, None, None], [None, None, None]]


@dataclass(frozen=True)
class CostParam:
    """Cost asymmetry alpha in (0, 1).

    alpha weighs false positives; 1 - alpha weighs false negatives.  The
    Bayes rule thresholds the posterior at alpha.
    """

    alpha: float

    def __post_init__(self) -> None:
        # A float passes on one comparison; anything else is the check's.
        if not (isinstance(self.alpha, float) and 0.0 < self.alpha < 1.0):
            _check_real("alpha", self.alpha, 0.0, 1.0, "()")

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
        if eta.dtype.kind not in "biuf":  # str, object, complex: no order to compare
            raise DomainError(f"eta must be an array of real numbers, got dtype {eta.dtype}")
        if not np.all((eta >= 0.0) & (eta <= 1.0)):
            raise DomainError("eta must lie in [0, 1]")
    elif not (isinstance(eta, float) and 0.0 <= eta <= 1.0):
        _check_real("eta", eta, 0.0, 1.0)


def _check_eta_and_score(eta: float, t: float) -> None:
    """A posterior in [0, 1], a float (an array has no one risk), and a
    score that is not NaN, the float unequal to itself."""
    if not (isinstance(eta, float) and isinstance(t, float) and 0.0 <= eta <= 1.0 and t == t):
        _check_real("eta", eta, 0.0, 1.0)
        _check_real("score", t)


def conditional_risk(loss: Loss, eta: float, t: float) -> float:
    """eta * L1(t) + (1 - eta) * L-1(t), with 0 * inf taken as 0.

    Infinite scores use the declared limits of the partial losses; a
    value of +inf propagates.  A NaN score raises ``DomainError``.
    """
    _check_eta_and_score(eta, t)
    total = 0.0
    for weight, partial in ((eta, loss.pos), (1.0 - eta, loss.neg)):
        if weight == 0.0:
            continue
        total += weight * partial(t)
    return total


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
    return _derivative_verdict(d1, d2, cost.alpha)


def _derivative_verdict(d1: float, d2: float, alpha: float) -> tuple[float, float, float, bool]:
    """``derivative_test``'s result from the two derivatives at 0; a family
    spec reads it from its own, which are its partials' bit for bit.  An
    infinite derivative (one that overflowed) is never calibrated."""
    combo = alpha * d1 + (1.0 - alpha) * d2
    scale = max(abs(d1), abs(d2), 1e-300)
    return d1, d2, combo, d1 < 0.0 < d2 and abs(combo) <= DERIVATIVE_TOL * scale < math.inf


def cost_regret(cost: CostParam, eta: float, t: float) -> float:
    """Pointwise cost-sensitive regret of deciding with score t at posterior eta.

    Equals |eta - alpha| exactly when the sign of t disagrees with the
    sign of eta - alpha, else 0.  A NaN score raises ``DomainError``.
    """
    _check_eta_and_score(eta, t)
    if sign(t) != sign(eta - cost.alpha):
        return abs(eta - cost.alpha)
    return 0.0


def theta_alpha(cost: CostParam, eta: float) -> ThetaWeight:
    """Posterior reparametrization theta and positive weight w.

    theta maps the cost-sensitive posterior onto the cost-insensitive
    scale: sign(2*theta - 1) = sign(eta - alpha), and theta(alpha) = 1/2.
    """
    _check_eta(eta)
    a = cost.alpha
    w = (1.0 - a) * eta + a * (1.0 - eta)
    return ThetaWeight(theta=(1.0 - a) * eta / w, w=w)
