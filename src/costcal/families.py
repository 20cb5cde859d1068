"""The four uneven-margin loss families and their closed forms.

An uneven margin loss scales and rescales the negative-class margin:
L(y, t) = 1{y=1} phi(t) + 1{y=-1} beta * phi(-gamma * t), optionally with
an outer (1 - a, a) weighting of the two partials.  ``UnevenMarginSpec``
is the one closed-form route, which ``closed_forms`` and ``sigmoid_c_minus``
view: its minimizer t*, optimal risk C* and constrained optimum C^- serve
every convex member and the gamma = 2 sigmoid at beta = 1/2.
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
from .losses import (
    _GOLDEN_TOL, _INV_PHI, CostParam, Loss, PartialLoss, _check_eta, _derivative_verdict, theta_alpha
)

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
        beta), or (1 - a, a * beta) for ``alpha_weight`` a, as Python floats
        (a numpy scalar's product would warn where it overflows)."""
        beta = float(self.beta)
        if self.alpha_weight is None:
            return 1.0, beta
        a = float(self.alpha_weight)
        return 1.0 - a, a * beta

    @property
    def _c_star_searched(self) -> bool:
        """Whether C* is searched: for a sigmoid but beta = 1/2, gamma = 2."""
        return self.family == "sigmoid" and not (
            self.gamma == 2.0 and math.isclose(self.beta, 0.5, rel_tol=1e-12)
        )

    @cached_property
    def _form(self) -> tuple:
        """What the closed forms read of the spec, as Python floats, once:
        (w1, w2, gamma, k, near, slopes): the outer weights, k = beta' gamma
        with beta' = w2 / w1 (beta where w1 = 1), whether ``_c_star``'s forms
        in k keep inside the float range, and ``slopes``, (w1, w2, d1, d2,
        g1, g2) for ``c_minus``: the outer weights, the partials' derivatives
        at 0 (their ``deriv_at_zero``, bit for bit), and the sign test's
        divisor and factor: eta * w1 / g1 is compared with (1 - eta) * w2 *
        g2, divided through by gamma < 1 so that no side underflows alone."""
        (w_pos, w_neg), gamma = self._weights, float(self.gamma)
        k = w_neg / w_pos * gamma  # near, (1 - eta) * k is normal at every eta < 1, k * gamma too
        near = 2.0 * sys.float_info.min / sys.float_info.epsilon <= k
        near = near and k * gamma >= sys.float_info.min and _squared_scale(gamma) * k < math.inf
        d0 = _PHI[self.family][0]
        g_pos, g_neg = (1.0, gamma) if gamma >= 1.0 else (gamma, 1.0)
        slopes = w_pos, w_neg, w_pos * d0, -w_neg * gamma * d0, g_pos, g_neg
        return w_pos, w_neg, gamma, k, near, slopes

    def c_star(self, eta):
        """The closed optimal conditional risk C*(eta), or None where it is
        searched, for a float or an ndarray (in numpy).  A weighted convex
        member is w1 times the unweighted one with beta' = w2 / w1.  The
        weighted sigmoid's beta' is no 1/2: its C* is w C*(theta) (``theta_alpha``),
        or from theta = alpha on w2 (1 - eta), where w (1 - theta) / 2 cancels."""
        if self._c_star_searched:
            return None
        if self.family != "sigmoid" or self.alpha_weight is None:
            return _c_star(self.family, self._form, eta)
        theta, w = theta_alpha(CostParam(self.alpha_weight), eta)
        c_star, at_inf = w * _c_star("sigmoid", None, theta), (1.0 - eta) * self._weights[1]
        if isinstance(eta, ndarray):
            return np.where(theta >= ALPHA_SIGMOID_GAMMA2, at_inf, c_star)
        return at_inf if theta >= ALPHA_SIGMOID_GAMMA2 else c_star

    def c_minus(self, cost: CostParam, eta):
        """The closed constrained optimum C^-(eta) off alpha, or None where
        the search serves it: a sigmoid but the unweighted gamma = 2 one.  A
        convex member's minimizer has the sign of eta * w1 - (1 - eta) * w2 *
        gamma (w1, w2 the outer weights), so C^- is the risk at the score 0
        where that sign is inadmissible, and C* elsewhere, a gap of exactly
        0.  Where the derivative test calls the member calibrated, every
        posterior off alpha takes the risk at 0."""
        if self.family == "sigmoid":
            searched = self._c_star_searched or self.alpha_weight is not None
            return None if searched else _sigmoid_c_minus(cost.alpha, eta)
        w_pos, w_neg, d1, d2, g_pos, g_neg = self._form[-1]
        at0 = eta * w_pos + (1.0 - eta) * w_neg  # phi(0) = 1
        alpha = cost.alpha
        if _derivative_verdict(d1, d2, alpha)[3]:
            return at0
        if isinstance(eta, ndarray):
            with np.errstate(over="ignore"):
                pos, neg = eta * w_pos / g_pos, (1.0 - eta) * w_neg * g_neg
            return np.where(np.where(eta > alpha, pos <= neg, pos >= neg), self.c_star(eta), at0)
        e = float(eta)  # a numpy scalar would warn where a product overflows
        pos, neg = e * w_pos / g_pos, (1.0 - e) * w_neg * g_neg
        return self.c_star(eta) if ((pos <= neg) if e > alpha else (pos >= neg)) else at0

    def t_star(self, eta: float) -> float | None:
        """The minimizer t*(eta) at a float posterior, infinite where a limit
        attains C*; None for a weighted spec or where C* is searched."""
        return None if (optimum := self._optimum(eta)) is None else optimum[0]

    def _optimum(self, eta: float) -> tuple[float, float] | None:
        """(t*, C*) at a float posterior, or None as for ``t_star``; the
        sigmoid's from one solve.  A convex t* has the sign of a - c, a =
        eta and c = (1 - eta) beta gamma; the squared loss's (a - c) / (a +
        c gamma) is divided through by the larger, so nothing overflows."""
        _check_real("eta", eta, 0.0, 1.0)
        if self._c_star_searched or self.alpha_weight is not None:
            return None
        if self.family == "sigmoid":
            return _sigmoid_optimum(float(eta))
        eta, (_, beta), gamma = float(eta), self._weights, float(self.gamma)
        a, c, c_star = eta, (1.0 - eta) * beta * gamma, _c_star(self.family, self._form, eta)
        r = min(a, c) / max(a, c, 5e-324)
        if self.family == "hinge":
            return (-1.0 / gamma if a <= c else 1.0), c_star
        if self.family == "squared":
            return ((1.0 - r) / (1.0 + r * gamma) if a > c else (r - 1.0) / (r + gamma)), c_star
        if not 0.0 < eta < 1.0:  # the exponential's minimizer is infinite at eta = 0 and 1
            return (math.inf if eta else -math.inf), c_star
        t = math.log(eta) - math.log1p(-eta) - math.log(beta) - math.log(gamma)
        return t / (1.0 + gamma), c_star


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

# Per family: phi's derivative at 0, convexity, limits at -/+inf.
_PHI = {
    "hinge": (-1.0, True, math.inf, 0.0),
    "squared": (-2.0, True, math.inf, math.inf),
    "exponential": (-1.0, True, math.inf, 0.0),
    "sigmoid": (-0.25, False, 1.0, 0.0),
}


def make_uneven_loss(spec: UnevenMarginSpec) -> Loss:
    """Build the Loss for a family spec, metadata populated from phi."""
    d0, convex, lim_neg, lim_pos = _PHI[spec.family]
    # Python floats: a numpy scalar's product warns where it overflows.
    (w_pos, w_neg), gamma = spec._weights, float(spec.gamma)
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
        _partial(spec.family, w_neg, -gamma),  # s * t is -gamma * t
        is_convex=convex,
        deriv_at_zero=-w_neg * gamma * d0,
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
    """(1 + gamma)^2 / gamma, finite for every gamma whose reciprocal is:
    squaring first overflows for gamma above about 1.3e154."""
    return (1.0 + gamma) / gamma * (1.0 + gamma)


def _c_star(family: str, form: tuple, eta):
    """The closed C*(eta), for a float or an ndarray: the unweighted gamma =
    2 sigmoid's, or a convex family's from ``UnevenMarginSpec._form``, (w1,
    w2, gamma, k, near, _) (Bartlett, Jordan and McAuliffe 2006).

    Where ``near``, w1 times the unweighted forms in m = (1 - eta) k: the
    hinge's least kink risk, and the risk at t* = (eta - m) / (eta + m
    gamma) (squared) or log(eta / m) / (1 + gamma) (exponential); k = 1.0
    gives what beta = 1/gamma gave, bit for bit.  Elsewhere, numpy's far
    forms in the masses, of terms finite or +inf: the hinge's least kink
    risk of a = w1 eta (1 + gamma) / gamma and b = w2 (1 - eta) (1 +
    gamma), the squared loss's a b / (a + b) (capped), and (1 + gamma)
    gamma^-q (w1 |eta|)^q (w2 (1 - eta))^p, p = 1 / (1 + gamma), q = 1 - p.
    """
    if family == "sigmoid":  # gamma = 2; below _SIGMOID_TINY, C* rounds to eta
        if not isinstance(eta, ndarray):
            return _sigmoid_optimum(float(eta))[1]
        out = np.where(eta >= ALPHA_SIGMOID_GAMMA2, (1.0 - eta) / 2.0, eta)
        inner = (eta >= _SIGMOID_TINY) & (eta < ALPHA_SIGMOID_GAMMA2)
        out[inner] = _sigmoid_local_min(eta[inner])
        return out
    w_pos, w_neg, gamma, k, near, _ = form
    rows = isinstance(eta, ndarray)
    if not near:
        e, r = np.asarray(eta, dtype=float), gamma / (1.0 + gamma)
        with np.errstate(over="ignore", invalid="ignore"):
            a, b = w_pos * e / r, (1.0 - e) * w_neg * (1.0 + gamma)
            if family == "hinge":
                c_star = np.minimum(a, b)
            elif family == "squared":
                a, b = (np.minimum(x, sys.float_info.max) for x in (a / r, b * (1.0 + gamma)))
                lo, hi = np.minimum(a, b), np.maximum(a, b)
                c_star = np.where(lo > 0.0, lo / (1.0 + lo / hi), 0.0)
            else:
                p, q = 1.0 / (1.0 + gamma), gamma / (1.0 + gamma)
                # |eta|: numpy takes a power 1/2 as a square root, which keeps -0.0.
                c_star = (1.0 + gamma) * gamma**-q * w_pos**q * np.abs(e) ** q * (1.0 - e) ** p * w_neg**p
        return c_star if rows else float(c_star)
    if not rows:
        eta = float(eta)  # a numpy scalar would bring numpy's overflow rules
    m = 1.0 - eta
    m *= k  # in place on an array: the one temporary 1 - eta had
    if family == "hinge":
        return w_pos * ((1.0 + gamma) / gamma * (np.minimum(eta, m) if rows else min(eta, m)))
    if family == "squared":
        return w_pos * (_squared_scale(gamma) * eta * m / (eta + m * gamma))
    # The exponential takes the far form where its ratio eta / m fell below
    # the normal range, and so lost digits (or all of them) its powers need.
    far = (family, (w_pos, w_neg, gamma, k, False, None))
    p, q = 1.0 / (1.0 + gamma), gamma / (1.0 + gamma)
    if not rows:  # the exponential's minimizer is infinite at eta 0 and 1, where C* is 0
        if not 0.0 < eta < 1.0:
            return 0.0
        ratio = eta / m
        if ratio < sys.float_info.min:
            return _c_star(*far, eta)
        return w_pos * (eta * ratio**-p + m / gamma * ratio**q)
    out = np.zeros(eta.shape)
    inner = (eta > 0.0) & (eta < 1.0)
    e, m = eta[inner], m[inner]
    ratio = e / m
    with np.errstate(over="ignore", divide="ignore"):  # where ratio is lost
        c_star = w_pos * (e * ratio**-p + m / gamma * ratio**q)
    lost = ratio < sys.float_info.min
    if lost.any():
        c_star[lost] = _c_star(*far, e[lost])
    out[inner] = c_star
    return out


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


_HALF = CostParam(0.5)


def closed_forms(spec: UnevenMarginSpec, eta: float) -> ClosedForms:
    """An unweighted spec's ``t_star``, ``c_star`` and gap at alpha = 1/2
    (its ``c_minus`` less ``c_star``, 0 at 1/2, so ``h_alpha``'s) at one
    posterior; ``UnsupportedFamilyError`` where a closed form is missing."""
    optimum = spec._optimum(eta)
    if optimum is None:
        raise UnsupportedFamilyError(
            f"no closed forms for {spec.family} with beta={spec.beta}, "
            f"gamma={spec.gamma}, alpha_weight={spec.alpha_weight}"
        )
    (t_star, c_star), eta = optimum, float(eta)
    h = 0.0 if eta == 0.5 else max(spec.c_minus(_HALF, eta) - c_star, 0.0)
    return ClosedForms(t_star, c_star, h)


def _sigmoid_c_minus(alpha: float, eta):
    """The gamma = 2 sigmoid's C^-(eta) (beta = 1/2), for a float or an
    ndarray.  Below alpha the scores t >= 0 have their least risk at an end:
    (1 + eta)/4 at 0 for eta <= 1/3, else (1 - eta)/2 at +inf.  From alpha
    on, t <= 0 has it at the local minimizer for eta < 1/2, else at 0.
    Below ``ALPHA_SIGMOID_GAMMA2`` that minimizer is t*, and C^- has C*'s
    bits, float or array; above it a float takes the array's bits, as
    ``sigmoid_c_minus`` returns them at its alpha."""
    if not isinstance(eta, ndarray):
        e = float(eta)
        if alpha <= e < 0.5:
            if e < ALPHA_SIGMOID_GAMMA2:
                return _sigmoid_optimum(e)[1]
            return float(_sigmoid_local_min(np.array([e]))[0])
        return (1.0 - e) / 2.0 if 1.0 / 3.0 < e < alpha else (1.0 + e) / 4.0
    out = np.where((eta < alpha) & (1.0 / 3.0 < eta), (1.0 - eta) / 2.0, (1.0 + eta) / 4.0)
    local = (eta >= alpha) & (eta < 0.5)
    out[local] = eta[local]
    local &= eta >= _SIGMOID_TINY
    if local.any():
        out[local] = _sigmoid_local_min(eta[local])
    return out


def sigmoid_c_minus(cost: CostParam, eta):
    """The gamma = 2 sigmoid's C^- at its calibrating alpha, the spec's
    (at alpha, the local minimum), for a float or an ndarray ``eta``."""
    if abs(cost.alpha - ALPHA_SIGMOID_GAMMA2) > 1e-12:
        raise DomainError("sigmoid_c_minus is specific to the calibrating alpha")
    _check_eta(eta)
    return _sigmoid_c_minus(cost.alpha, eta)


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
