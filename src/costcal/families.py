"""The four uneven-margin loss families and their closed forms.

An uneven margin loss scales and rescales the negative-class margin:
L(y, t) = 1{y=1} phi(t) + 1{y=-1} beta * phi(-gamma * t), optionally with
an outer (1 - a, a) weighting of the two partials.  Closed forms for the
minimizer, the optimal conditional risk, and the cost-insensitive
calibration gap are available in the calibrated configuration
beta = 1/gamma (convex families) and gamma = 2 (sigmoid).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy import ndarray  # by name: looking up np.ndarray cost a fifth of a partial's float call

from .errors import DomainError, UnsupportedFamilyError, _check_real
from .losses import _GOLDEN_TOL, _INV_PHI, CostParam, Loss, PartialLoss, _check_eta, theta_alpha

__all__ = [
    "FAMILIES",
    "ALPHA_SIGMOID_GAMMA2",
    "UnevenMarginSpec",
    "make_uneven_loss",
    "alpha_transform",
    "closed_forms",
    "sigmoid_t_minus",
    "alpha_of_gamma",
    "sigmoid_c_minus",
]

FAMILIES = ("hinge", "squared", "exponential", "sigmoid")

#: The unique cost asymmetry at which the gamma = 2 uneven sigmoid loss is
#: calibrated: (3 + 4*sqrt(2)) / 23.
ALPHA_SIGMOID_GAMMA2 = (3.0 + 4.0 * math.sqrt(2.0)) / 23.0


@dataclass(frozen=True)
class UnevenMarginSpec:
    family: str
    beta: float
    gamma: float
    alpha_weight: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        _check_real("beta", self.beta, 0.0, ends="()")
        _check_real("gamma", self.gamma, 0.0, ends="()")
        if self.alpha_weight is not None:
            _check_real("alpha_weight", self.alpha_weight, 0.0, 1.0, "()")

    @property
    def _weights(self) -> tuple[float, float]:
        """The outer weights of the positive and the negative partial: (1,
        beta), or (1 - a, a * beta) for ``alpha_weight`` a."""
        if self.alpha_weight is None:
            return 1.0, self.beta
        return 1.0 - self.alpha_weight, self.alpha_weight * self.beta

    @cached_property
    def _values_at_zero(self) -> tuple[float, float]:
        """The positive and the negative partial's value at the score 0, as
        their ``fn`` gives it, read from the spec as the closed forms are."""
        at0 = _PHI[self.family][0]
        w_pos, w_neg = self._weights
        return w_pos * at0, w_neg * at0

    @property
    def has_closed_forms(self) -> bool:
        """Whether closed forms serve this spec: beta = 1/gamma for the
        convex families, beta = 1/2 and gamma = 2 for the sigmoid."""
        if self.family == "sigmoid":
            return self.gamma == 2.0 and math.isclose(self.beta, 0.5, rel_tol=1e-12)
        return math.isclose(self.beta * self.gamma, 1.0, rel_tol=1e-12)

    def c_star(self, eta):
        """The closed optimal conditional risk C*(eta), or None when no
        closed form serves this spec.  ``eta`` is a float or an ndarray;
        an ndarray is evaluated in numpy.

        Outer (1 - a, a) weighting reduces to the unweighted form through
        the posterior reparametrization: C*_{L_a}(eta) = w(eta) * C*(theta(eta)).
        """
        if not self.has_closed_forms:
            return None
        if self.alpha_weight is None:
            return _c_star(self.family, self.gamma, eta)
        theta, w = theta_alpha(CostParam(self.alpha_weight), eta)
        return w * _c_star(self.family, self.gamma, theta)

    def c_minus(self, cost: CostParam, eta):
        """The closed constrained optimum C^-(eta) of the calibrated sigmoid
        at its calibrating alpha, or None for any other spec or cost."""
        if (
            self.family != "sigmoid"
            or self.alpha_weight is not None
            or not self.has_closed_forms
            or abs(cost.alpha - ALPHA_SIGMOID_GAMMA2) > 1e-12
        ):
            return None
        return sigmoid_c_minus(cost, eta)


class ClosedForms(NamedTuple):
    t_star: float | None
    c_star: float
    h_cc: float


#: The largest score whose exponential is finite.
_LOG_MAX = math.log(sys.float_info.max)


def _partial(family: str, c: float, s: float | None):
    """The family's partial c * phi(t), or c * phi(s * t) for a given s, as
    one closure, for a float or an ndarray score.  ``c`` is positive.  A
    Python float score gets a Python float, and one whose loss overflows
    gives +inf, with no OverflowError and no numpy warning; a numpy scalar
    keeps numpy's rules.

    Each family's float arithmetic lives twice in this module: here, and
    in its fused search (``_FUSED``), a golden section whose risk repeats
    these operations in their order.  The closure carries ``fused``, a
    descriptor ``(code, search, c, s)``: the closure's own code, the
    family's fused search, and its c and s, 1.0 for None (1.0 * t is t,
    bit for bit).  By it the oracle finds the search from the partials
    themselves, once per loss, and keeps it with both partials' c and s;
    a wrapper around the closure has other code, and is searched through
    its own calls."""
    c = float(c)  # a numpy scalar or an int has the float's bits, not its rules
    s = None if s is None else float(s)
    if family == "hinge":
        # A float skips the ufunc: ``0.0 if d < 0.0 else d`` is max(d, 0.0),
        # so ``np.maximum``'s bits, for every d, NaN included.
        def fn(t, c=c, s=s):
            u = t if s is None else s * t
            if isinstance(u, ndarray):
                return c * np.maximum(0.0, 1.0 - u)
            d = 1.0 - u
            return c * (0.0 if d < 0.0 else d)
    elif family == "squared":
        # ``d * d`` for a float and an ndarray alike: it is what numpy's
        # array ``** 2`` computes, so a float score gets the bits it gets
        # inside an array (a float's ``** 2`` differs in the last bit for
        # about 1 score in 1600).  A float past the range gives +inf.
        def fn(t, c=c, s=s):
            d = 1.0 - (t if s is None else s * t)
            return c * (d * d)
    elif family == "exponential":
        # numpy's ``exp``: libm's moves last digits.  A Python float score
        # gets a Python float.
        def fn(t, c=c, s=s):
            u = t if s is None else s * t
            if type(u) is not float:
                return c * np.exp(-u)
            return math.inf if u < -_LOG_MAX else c * float(np.exp(-u))
    else:
        # The logistic 1 / (1 + e^u), warning on nothing.  A float or a numpy
        # scalar takes libm's ``exp``, faster for one score, and is 0 past its
        # overflow.  An ndarray clips scores at ``_LOG_MAX``, so ``np.exp``
        # never overflows and a clipped score gives about 5.6e-309.
        def fn(t, c=c, s=s):
            u = t if s is None else s * t
            if isinstance(u, ndarray):
                return c * (1.0 / (1.0 + np.exp(np.minimum(u, _LOG_MAX))))
            try:
                return c * (1.0 / (1.0 + math.exp(u)))
            except OverflowError:
                return 0.0
    fn.fused = fn.__code__, _FUSED[family], c, 1.0 if s is None else s
    return fn


# The fused searches: for a posterior 0 < eta < 1 and two partials' (c, s),
# ``oracle._golden_section`` on the risk t -> eta * (c1 * phi(s1 * t)) +
# (1 - eta) * (c2 * phi(s2 * t)) over the bracket [a, b], with that risk
# written out at each point it evaluates, so no step makes a call.  Each
# partial's float path is as in ``_partial``, so a risk has the bits of the
# two partials mixed, and none warns.  Returns (arg, value).


def _hinge_search(eta, c1, s1, c2, s2, a, b):
    w = 1.0 - eta
    h = b - a
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    u, v = 1.0 - s1 * c, 1.0 - s2 * c
    yc = eta * (c1 * (0.0 if u < 0.0 else u)) + w * (c2 * (0.0 if v < 0.0 else v))
    u, v = 1.0 - s1 * d, 1.0 - s2 * d
    yd = eta * (c1 * (0.0 if u < 0.0 else u)) + w * (c2 * (0.0 if v < 0.0 else v))
    while h > _GOLDEN_TOL:
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = b - _INV_PHI * h
            u, v = 1.0 - s1 * c, 1.0 - s2 * c
            yc = eta * (c1 * (0.0 if u < 0.0 else u)) + w * (c2 * (0.0 if v < 0.0 else v))
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INV_PHI * h
            u, v = 1.0 - s1 * d, 1.0 - s2 * d
            yd = eta * (c1 * (0.0 if u < 0.0 else u)) + w * (c2 * (0.0 if v < 0.0 else v))
    return (c if yc < yd else d), min(yc, yd)


def _squared_search(eta, c1, s1, c2, s2, a, b):
    w = 1.0 - eta
    h = b - a
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    u, v = 1.0 - s1 * c, 1.0 - s2 * c
    yc = eta * (c1 * (u * u)) + w * (c2 * (v * v))
    u, v = 1.0 - s1 * d, 1.0 - s2 * d
    yd = eta * (c1 * (u * u)) + w * (c2 * (v * v))
    while h > _GOLDEN_TOL:
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = b - _INV_PHI * h
            u, v = 1.0 - s1 * c, 1.0 - s2 * c
            yc = eta * (c1 * (u * u)) + w * (c2 * (v * v))
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INV_PHI * h
            u, v = 1.0 - s1 * d, 1.0 - s2 * d
            yd = eta * (c1 * (u * u)) + w * (c2 * (v * v))
    return (c if yc < yd else d), min(yc, yd)


def _exponential_search(eta, c1, s1, c2, s2, a, b, exp=np.exp, inf=math.inf, low=-_LOG_MAX):
    w = 1.0 - eta
    h = b - a
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    u, v = s1 * c, s2 * c
    p = inf if u < low else c1 * float(exp(-u))
    yc = eta * p + w * (inf if v < low else c2 * float(exp(-v)))
    u, v = s1 * d, s2 * d
    p = inf if u < low else c1 * float(exp(-u))
    yd = eta * p + w * (inf if v < low else c2 * float(exp(-v)))
    while h > _GOLDEN_TOL:
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = b - _INV_PHI * h
            u, v = s1 * c, s2 * c
            p = inf if u < low else c1 * float(exp(-u))
            yc = eta * p + w * (inf if v < low else c2 * float(exp(-v)))
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INV_PHI * h
            u, v = s1 * d, s2 * d
            p = inf if u < low else c1 * float(exp(-u))
            yd = eta * p + w * (inf if v < low else c2 * float(exp(-v)))
    return (c if yc < yd else d), min(yc, yd)


def _sigmoid_search(eta, c1, s1, c2, s2, a, b, exp=math.exp):
    w = 1.0 - eta
    h = b - a
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    try:
        p = c1 * (1.0 / (1.0 + exp(s1 * c)))
    except OverflowError:
        p = 0.0
    try:
        n = c2 * (1.0 / (1.0 + exp(s2 * c)))
    except OverflowError:
        n = 0.0
    yc = eta * p + w * n
    try:
        p = c1 * (1.0 / (1.0 + exp(s1 * d)))
    except OverflowError:
        p = 0.0
    try:
        n = c2 * (1.0 / (1.0 + exp(s2 * d)))
    except OverflowError:
        n = 0.0
    yd = eta * p + w * n
    while h > _GOLDEN_TOL:
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = b - _INV_PHI * h
            try:
                p = c1 * (1.0 / (1.0 + exp(s1 * c)))
            except OverflowError:
                p = 0.0
            try:
                n = c2 * (1.0 / (1.0 + exp(s2 * c)))
            except OverflowError:
                n = 0.0
            yc = eta * p + w * n
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INV_PHI * h
            try:
                p = c1 * (1.0 / (1.0 + exp(s1 * d)))
            except OverflowError:
                p = 0.0
            try:
                n = c2 * (1.0 / (1.0 + exp(s2 * d)))
            except OverflowError:
                n = 0.0
            yd = eta * p + w * n
    return (c if yc < yd else d), min(yc, yd)


_FUSED = {
    "hinge": _hinge_search,
    "squared": _squared_search,
    "exponential": _exponential_search,
    "sigmoid": _sigmoid_search,
}

_LOGISTIC = _partial("sigmoid", 1.0, None)  # 1.0 * phi has phi's bits

# Per family: phi's value and derivative at 0, convexity, limits at -/+inf.
_PHI = {
    "hinge": (1.0, -1.0, True, math.inf, 0.0),
    "squared": (1.0, -2.0, True, math.inf, math.inf),
    "exponential": (1.0, -1.0, True, math.inf, 0.0),
    "sigmoid": (0.5, -0.25, False, 1.0, 0.0),
}


def make_uneven_loss(spec: UnevenMarginSpec) -> Loss:
    """Build the Loss for a family spec, metadata populated from phi."""
    _, d0, convex, lim_neg, lim_pos = _PHI[spec.family]
    w_pos, w_neg = spec._weights
    if w_neg == 0.0:
        # 0 * phi would be 0, or NaN where phi overflows, not the loss.
        raise DomainError(f"alpha_weight * beta underflows to 0: {spec.alpha_weight} * {spec.beta}")

    pos = PartialLoss(
        _partial(spec.family, w_pos, None),
        is_convex=convex,
        deriv_at_zero=w_pos * d0,
        limit_neg_inf=w_pos * lim_neg,
        limit_pos_inf=w_pos * lim_pos,
    )
    neg = PartialLoss(
        _partial(spec.family, w_neg, -spec.gamma),  # s * t is -gamma * t
        is_convex=convex,
        deriv_at_zero=-w_neg * spec.gamma * d0,
        limit_neg_inf=w_neg * lim_pos,
        limit_pos_inf=w_neg * lim_neg,
    )
    return Loss(pos=pos, neg=neg, family=spec)


def alpha_transform(loss: Loss, cost: CostParam) -> Loss:
    """Outer reweighting of the partial losses by (1 - alpha, alpha).

    An unweighted family member becomes exactly the alpha-weighted member
    that ``make_uneven_loss`` builds, so one tag always names one loss; any
    other loss has its partials scaled, and carries no tag.
    """
    a = cost.alpha
    if loss.family is not None and loss.family.alpha_weight is None:
        return make_uneven_loss(replace(loss.family, alpha_weight=a))
    return Loss(pos=_scaled_partial(loss.pos, 1.0 - a), neg=_scaled_partial(loss.neg, a))


def _scaled_partial(partial: PartialLoss, c: float) -> PartialLoss:
    """The partial loss c * partial, its metadata scaled with it."""
    def scaled(t: float, fn=partial.fn, c=c) -> float:
        return c * fn(t)

    def scale_limit(v: float | None) -> float | None:
        return None if v is None else c * v

    return PartialLoss(
        scaled,
        is_convex=partial.is_convex,
        deriv_at_zero=None if partial.deriv_at_zero is None else c * partial.deriv_at_zero,
        is_continuous_at_zero=partial.is_continuous_at_zero,
        limit_neg_inf=scale_limit(partial.limit_neg_inf),
        limit_pos_inf=scale_limit(partial.limit_pos_inf),
    )


#: Below this posterior C*(eta) of the gamma = 2 sigmoid rounds to eta (the
#: next term is -eta^2 / 2).  The array path needs the cut: its logistic
#: clips scores at ``_LOG_MAX``, so below about 5e-155, where -2 t* passes
#: it, the local minimum's second term would be about 5.6e-309, not 0.
_SIGMOID_TINY = 1e-150


def _sigmoid_local_min(eta, t=None):
    """The gamma = 2 sigmoid risk (beta = 1/2) at its negative local
    minimizer ``t``, solved here unless given, for a float or an ndarray
    of posteriors in (0, 1/2)."""
    if t is None:
        t = sigmoid_t_minus(eta)
    return eta * _LOGISTIC(t) + 0.5 * (1.0 - eta) * _LOGISTIC(-2.0 * t)


def sigmoid_t_minus(eta):
    """The negative local minimizer of the gamma = 2 sigmoid conditional risk.

    Exists for eta in (0, 1/2); ``eta`` is a float or an ndarray.  Solves
    the stationarity quartic in z = e^t via the substitution w = z + 1/z:
    z is the smaller root of z^2 - w z + 1.  With r = 2 / w in (0, 1),
    z = r / (1 + sqrt(1 - r^2)): the root takes no difference and nothing
    overflows at any posterior, as w^2 would at tiny ones.
    """
    if isinstance(eta, np.ndarray):
        if not np.all((0.0 < eta) & (eta < 0.5)):
            raise DomainError(f"eta must lie in (0, 0.5), got {eta}")
        xp = np
    else:
        _check_real("eta", eta, 0.0, 0.5, "()")
        xp = math
    num = (1.0 - eta) + xp.sqrt((1.0 - eta) ** 2 + 8.0 * eta * (1.0 - eta))
    r = 4.0 * eta / num
    return xp.log(r) - xp.log1p(xp.sqrt(1.0 - r * r))


def _squared_scale(gamma: float) -> float:
    """(1 + gamma)^2 / gamma, finite for every finite gamma: squaring first
    overflows for gamma above about 1.3e154."""
    return (1.0 + gamma) / gamma * (1.0 + gamma)


def _c_star(family: str, gamma: float, eta):
    """The unweighted closed C*(eta), for a float or an ndarray."""
    if isinstance(eta, np.ndarray):
        return _c_star_rows(family, gamma, eta)
    # A numpy scalar would bring numpy's overflow rules onto this float path.
    gamma, eta = float(gamma), float(eta)
    if family == "hinge":
        return (1.0 + gamma) / gamma * min(eta, 1.0 - eta)
    if family == "squared":
        return _squared_scale(gamma) * eta * (1.0 - eta) / (eta + gamma * (1.0 - eta))
    if family == "exponential":
        if eta == 0.0 or eta == 1.0:
            return 0.0
        ratio = eta / (1.0 - eta)
        try:
            low = eta * ratio ** (-1.0 / (1.0 + gamma))
        except OverflowError:
            # As in _c_star_rows: a subnormal ratio with gamma below about 0.05.
            low = eta ** (gamma / (1.0 + gamma)) * (1.0 - eta) ** (1.0 / (1.0 + gamma))
        return low + (1.0 - eta) / gamma * ratio ** (gamma / (1.0 + gamma))
    # sigmoid, gamma == 2
    return _sigmoid_optimum(eta)[1]


def _sigmoid_optimum(eta: float) -> tuple[float, float]:
    """(t*, C*(eta)) of the gamma = 2 sigmoid at a float posterior.  Below
    alpha the minimizer is the negative local one, solved once for both;
    below _SIGMOID_TINY, C* is eta, to which the local minimum rounds."""
    if eta >= ALPHA_SIGMOID_GAMMA2:
        return math.inf, (1.0 - eta) / 2.0
    if eta == 0.0:
        return -math.inf, eta
    t = sigmoid_t_minus(eta)
    return t, eta if eta < _SIGMOID_TINY else _sigmoid_local_min(eta, t)


def _c_star_rows(family: str, gamma: float, eta: np.ndarray) -> np.ndarray:
    """``_c_star`` on an ndarray of posteriors, with the float path's
    arithmetic; each branch sees only the posteriors it serves."""
    if family == "hinge":
        return (1.0 + gamma) / gamma * np.minimum(eta, 1.0 - eta)
    if family == "squared":
        return _squared_scale(gamma) * eta * (1.0 - eta) / (eta + gamma * (1.0 - eta))
    if family == "exponential":
        out = np.zeros(eta.shape)
        inner = (eta > 0.0) & (eta < 1.0)
        e = eta[inner]
        ratio = e / (1.0 - e)
        with np.errstate(over="ignore"):
            low = e * ratio ** (-1.0 / (1.0 + gamma))
        # The power overflows for a subnormal ratio and gamma below about 0.05,
        # where the term is e^(gamma / (1 + gamma)) * (1 - e)^(1 / (1 + gamma)).
        far = low == np.inf
        low[far] = e[far] ** (gamma / (1.0 + gamma)) * (1.0 - e[far]) ** (1.0 / (1.0 + gamma))
        out[inner] = low + (1.0 - e) / gamma * ratio ** (gamma / (1.0 + gamma))
        return out
    # sigmoid, gamma == 2; below _SIGMOID_TINY, C* rounds to eta.
    out = np.where(eta >= ALPHA_SIGMOID_GAMMA2, (1.0 - eta) / 2.0, eta)
    inner = (eta >= _SIGMOID_TINY) & (eta < ALPHA_SIGMOID_GAMMA2)
    out[inner] = _sigmoid_local_min(eta[inner])
    return out


def closed_forms(spec: UnevenMarginSpec, eta: float) -> ClosedForms:
    """Closed-form minimizer, optimal risk, and calibration gap.

    Available for the calibrated configuration beta = 1/gamma (convex
    families) and the gamma = 2 sigmoid, unweighted.  ``eta`` is one
    posterior: an array raises ``DomainError`` (``spec.c_star`` takes arrays).
    """
    _check_real("eta", eta, 0.0, 1.0)
    if spec.alpha_weight is not None or not spec.has_closed_forms:
        raise UnsupportedFamilyError(
            f"no closed forms for {spec.family} with beta={spec.beta}, "
            f"gamma={spec.gamma}, alpha_weight={spec.alpha_weight}"
        )
    family, gamma, eta = spec.family, float(spec.gamma), float(eta)
    if family == "sigmoid":
        t_star, c_star = _sigmoid_optimum(eta)
        # C^- at alpha = 1/2: below eta = 1/2 the admissible scores t >= 0
        # have their least risk at an endpoint; above it t = 0 is best.
        c_minus = min((1.0 + eta) / 4.0, (1.0 - eta) / 2.0) if eta < 0.5 else (1.0 + eta) / 4.0
        return ClosedForms(t_star, c_star, max(c_minus - c_star, 0.0))
    c_star = _c_star(family, gamma, eta)
    if family == "hinge":
        t_star = -1.0 / gamma if eta <= 0.5 else 1.0
        h = 2.0 * eta - 1.0 if eta >= 0.5 else (1.0 - 2.0 * eta) / gamma
        return ClosedForms(t_star, c_star, h)
    if family == "squared":
        t_star = (2.0 * eta - 1.0) / (eta + gamma * (1.0 - eta))
    elif 0.0 < eta < 1.0:  # exponential; its minimizer is infinite at eta = 0 and 1
        t_star = math.log(eta / (1.0 - eta)) / (1.0 + gamma)
    else:
        t_star = math.inf if eta else -math.inf
    # C^- at alpha = 1/2 is the risk at t = 0, eta + (1 - eta) / gamma.
    return ClosedForms(t_star, c_star, eta + (1.0 - eta) / gamma - c_star)


def sigmoid_c_minus(cost: CostParam, eta):
    """Constrained optimal risk of the gamma = 2 sigmoid at its calibrating alpha.

    Piecewise: (1 + eta)/4 for eta <= 1/3 or eta >= 1/2; (1 - eta)/2 for
    1/3 < eta < alpha; the local-minimum value in between.  Adjacent
    branches agree at the breakpoints.  ``eta`` is a float or an ndarray;
    a float is computed as a 0-d array and returned as a float.
    """
    if abs(cost.alpha - ALPHA_SIGMOID_GAMMA2) > 1e-12:
        raise DomainError("sigmoid_c_minus is specific to the calibrating alpha")
    _check_eta(eta)
    e = np.asarray(eta, dtype=float)
    out = np.where((1.0 / 3.0 < e) & (e < 0.5), (1.0 - e) / 2.0, (1.0 + e) / 4.0)
    local = (e >= ALPHA_SIGMOID_GAMMA2) & (e < 0.5)
    out[local] = _sigmoid_local_min(e[local])
    return out if isinstance(eta, np.ndarray) else float(out)


#: d alpha / d ln(gamma) at gamma = 1: (x - 1)/4, where x = W(1/e) solves
#: x + ln(x) = -1, the tangency equation's first-order term at gamma = 1.
_ALPHA_SLOPE_AT_1 = -0.18038386430973155
#: Within this distance of gamma = 1, alpha_of_gamma is linear in ln(gamma).
_LINEAR_NEAR_1 = 1e-6


def alpha_of_gamma(gamma: float) -> float:
    """The unique alpha at which the uneven sigmoid with margin ratio gamma
    is calibrated.

    For gamma > 1 this is the root, in (1/(1+gamma), 1), of a strictly
    increasing tangency equation, found by bisection until no float lies
    strictly inside the bracket; the upper end is returned, so adjacent
    gammas never give alphas out of order.  gamma < 1 follows from the
    reciprocal symmetry alpha(1/gamma) = 1 - alpha(gamma).  So alpha - 1/2
    is odd in ln(gamma).  Within 1e-6 of gamma = 1, where the tangency
    equation divides two vanishing terms and loses its digits, alpha is its
    linear term in ln(gamma), exact to O(ln(gamma)^3).  Past about
    [1e-12, 1e12] the root leaves the bracket, and DomainError is raised.
    """
    _check_real("gamma", gamma, 0.0, ends="()")
    gamma = float(gamma)  # a numpy scalar gets the float's answer, as a float
    if abs(gamma - 1.0) <= _LINEAR_NEAR_1:
        return 0.5 + _ALPHA_SLOPE_AT_1 * math.log1p(gamma - 1.0)
    # Below 1 the root is found at 1 / gamma, but an error names the caller's gamma.
    root = _tangency_root(gamma if gamma > 1.0 else 1.0 / gamma)
    if root is None:
        raise DomainError(
            f"the tangency root at gamma={gamma} lies outside the bisection bracket; "
            "alpha_of_gamma supports gamma within about [1e-12, 1e12]"
        )
    return root if gamma > 1.0 else 1.0 - root


def _tangency_root(gamma: float) -> float | None:
    """``alpha_of_gamma`` for gamma > 1 by bisection, or None when the root,
    about 2 / gamma, lies under the bracket's 1e-12 offset (gamma past about
    1e12, or infinite: 1 / gamma overflows for the least subnormals)."""
    if gamma == math.inf:
        return None
    # The tangency equation eta * (gamma^2 * base^(gamma - 1) + 1) = 1, in
    # logs so that no power overflows: eta lies below its root when
    # 2 ln(gamma) + (gamma - 1) ln(base) < ln((1 - eta) / eta), with ln(base)
    # a sum of two logs.  The terms in gamma alone are taken once.
    log_gamma2, log_tail = 2.0 * math.log(gamma), math.log(gamma / (gamma - 1.0))
    start = lo = 1.0 / (1.0 + gamma) + 1e-12
    hi = 1.0 - 1e-12
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        log_base = math.log((mid * gamma - 1.0 + mid) / (1.0 - mid)) + log_tail
        if log_gamma2 + (gamma - 1.0) * log_base < math.log((1.0 - mid) / mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return None if lo == start else hi
