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
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import expit

from .errors import DomainError, UnsupportedFamilyError
from .losses import CostParam, Loss, PartialLoss, _check_eta, theta_alpha

__all__ = [
    "FAMILIES",
    "ALPHA_SIGMOID_GAMMA2",
    "UnevenMarginSpec",
    "ClosedForms",
    "make_uneven_loss",
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
        if not (0.0 < self.beta < math.inf and 0.0 < self.gamma < math.inf):
            raise DomainError(
                f"beta and gamma must be positive and finite, got {self.beta}, {self.gamma}"
            )
        if self.alpha_weight is not None and not 0.0 < self.alpha_weight < 1.0:
            raise DomainError("alpha_weight must lie in (0, 1)")


class ClosedForms(NamedTuple):
    t_star: float | None
    c_star: float
    h_cc: float


# Per-family margin function phi, with value/derivative at 0 and limits.
def _phi_hinge(t):
    return np.maximum(0.0, 1.0 - t)


def _phi_squared(t):
    return (1.0 - t) ** 2


def _phi_exponential(t):
    return np.exp(-t)


def _phi_sigmoid(t):
    return expit(-t)


_PHI = {
    "hinge": (_phi_hinge, 1.0, -1.0, True, math.inf, 0.0),
    "squared": (_phi_squared, 1.0, -2.0, True, math.inf, math.inf),
    "exponential": (_phi_exponential, 1.0, -1.0, True, math.inf, 0.0),
    "sigmoid": (_phi_sigmoid, 0.5, -0.25, False, 1.0, 0.0),
}


def make_uneven_loss(spec: UnevenMarginSpec) -> Loss:
    """Build the Loss for a family spec, metadata populated from phi."""
    phi, at0, d0, convex, lim_neg, lim_pos = _PHI[spec.family]
    beta, gamma = spec.beta, spec.gamma
    if spec.alpha_weight is None:
        w_pos, w_neg = 1.0, beta
    else:
        w_pos, w_neg = 1.0 - spec.alpha_weight, spec.alpha_weight * beta

    def pos_fn(t, phi=phi, c=w_pos):
        return c * phi(t)

    def neg_fn(t, phi=phi, c=w_neg, g=gamma):
        return c * phi(-g * t)

    pos = PartialLoss(
        fn=pos_fn,
        value_at_zero=w_pos * at0,
        is_convex=convex,
        deriv_at_zero=w_pos * d0,
        limit_neg_inf=w_pos * lim_neg,
        limit_pos_inf=w_pos * lim_pos,
    )
    neg = PartialLoss(
        fn=neg_fn,
        value_at_zero=w_neg * at0,
        is_convex=convex,
        deriv_at_zero=-w_neg * gamma * d0,
        limit_neg_inf=w_neg * lim_pos,
        limit_pos_inf=w_neg * lim_neg,
    )
    return Loss(pos=pos, neg=neg, family=spec)


def _sigmoid_local_min(eta):
    """The gamma = 2 sigmoid risk (beta = 1/2) at its negative local
    minimizer, for a float or an ndarray of posteriors in (0, 1/2)."""
    t = sigmoid_t_minus(eta)
    return eta * expit(-t) + 0.5 * (1.0 - eta) * expit(2.0 * t)


def sigmoid_t_minus(eta):
    """The negative local minimizer of the gamma = 2 sigmoid conditional risk.

    Exists for eta in (0, 1/2); ``eta`` is a float or an ndarray.  Solves
    the stationarity quartic in z = e^t via the substitution w = z + 1/z.
    """
    if isinstance(eta, np.ndarray):
        xp, inside = np, np.all((0.0 < eta) & (eta < 0.5))
    else:
        xp, inside = math, 0.0 < eta < 0.5
    if not inside:
        raise DomainError(f"eta must lie in (0, 1/2), got {eta}")
    w = ((1.0 - eta) + xp.sqrt((1.0 - eta) ** 2 + 8.0 * eta * (1.0 - eta))) / (2.0 * eta)
    # The smaller root of z^2 - w z + 1, written without cancellation:
    # (w - sqrt(w^2 - 4)) / 2 loses every digit once w^2 swamps the 4.
    z = 2.0 / (w + xp.sqrt(w * w - 4.0))
    return xp.log(z)


def _sigmoid_c_star(eta: float) -> float:
    if eta == 0.0:
        return 0.0
    if eta < ALPHA_SIGMOID_GAMMA2:
        return _sigmoid_local_min(eta)
    return (1.0 - eta) / 2.0


def _sigmoid_h_cc(eta: float) -> float:
    # Constrained optimum at alpha = 1/2: for eta < 1/2 the admissible
    # scores are t >= 0 where the risk is minimized at an endpoint; for
    # eta >= 1/2 the risk is strictly decreasing, so t = 0 is optimal
    # among t <= 0.
    if eta < 0.5:
        c_minus = min((1.0 + eta) / 4.0, (1.0 - eta) / 2.0)
    else:
        c_minus = (1.0 + eta) / 4.0
    return max(c_minus - _sigmoid_c_star(eta), 0.0)


def _closed_unweighted(family: str, gamma: float, eta: float) -> ClosedForms:
    if family == "hinge":
        t_star = -1.0 / gamma if eta <= 0.5 else 1.0
        c_star = (1.0 + gamma) / gamma * min(eta, 1.0 - eta)
        h = 2.0 * eta - 1.0 if eta >= 0.5 else (1.0 - 2.0 * eta) / gamma
        return ClosedForms(t_star, c_star, h)
    if family == "squared":
        t_star = (2.0 * eta - 1.0) / (eta + gamma * (1.0 - eta))
        c_star = (1.0 + gamma) ** 2 / gamma * eta * (1.0 - eta) / (eta + gamma * (1.0 - eta))
        return ClosedForms(t_star, c_star, eta + (1.0 - eta) / gamma - c_star)
    if family == "exponential":
        if eta == 0.0:
            return ClosedForms(-math.inf, 0.0, 1.0 / gamma)
        if eta == 1.0:
            return ClosedForms(math.inf, 0.0, 1.0)
        ratio = eta / (1.0 - eta)
        t_star = math.log(ratio) / (1.0 + gamma)
        c_star = eta * ratio ** (-1.0 / (1.0 + gamma)) + (1.0 - eta) / gamma * ratio ** (
            gamma / (1.0 + gamma)
        )
        return ClosedForms(t_star, c_star, eta + (1.0 - eta) / gamma - c_star)
    # sigmoid, gamma == 2
    if eta == 0.0:
        t_star = -math.inf
    elif eta < ALPHA_SIGMOID_GAMMA2:
        t_star = sigmoid_t_minus(eta)
    else:
        t_star = math.inf
    return ClosedForms(t_star, _sigmoid_c_star(eta), _sigmoid_h_cc(eta))


def _c_star_rows(family: str, gamma: float, eta: np.ndarray) -> np.ndarray:
    """``_closed_unweighted(...).c_star`` on an ndarray of posteriors, with
    the same arithmetic; each branch sees only the posteriors it serves."""
    if family == "hinge":
        return (1.0 + gamma) / gamma * np.minimum(eta, 1.0 - eta)
    if family == "squared":
        return (1.0 + gamma) ** 2 / gamma * eta * (1.0 - eta) / (eta + gamma * (1.0 - eta))
    if family == "exponential":
        out = np.zeros(eta.shape)
        inner = (eta > 0.0) & (eta < 1.0)
        e = eta[inner]
        ratio = e / (1.0 - e)
        out[inner] = e * ratio ** (-1.0 / (1.0 + gamma)) + (1.0 - e) / gamma * ratio ** (
            gamma / (1.0 + gamma)
        )
        return out
    # sigmoid, gamma == 2
    out = np.where(eta >= ALPHA_SIGMOID_GAMMA2, (1.0 - eta) / 2.0, 0.0)
    inner = (eta > 0.0) & (eta < ALPHA_SIGMOID_GAMMA2)
    out[inner] = _sigmoid_local_min(eta[inner])
    return out


def _supports_closed(spec: UnevenMarginSpec) -> bool:
    if spec.family == "sigmoid":
        return spec.gamma == 2.0 and math.isclose(spec.beta, 0.5, rel_tol=1e-12)
    return math.isclose(spec.beta * spec.gamma, 1.0, rel_tol=1e-12)


def closed_forms(spec: UnevenMarginSpec, eta: float) -> ClosedForms:
    """Closed-form minimizer, optimal risk, and calibration gap.

    Available for the calibrated configuration beta = 1/gamma (convex
    families) and the gamma = 2 sigmoid, unweighted.
    """
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta must lie in [0, 1], got {eta}")
    if spec.alpha_weight is not None or not _supports_closed(spec):
        raise UnsupportedFamilyError(
            f"no closed forms for {spec.family} with beta={spec.beta}, "
            f"gamma={spec.gamma}, alpha_weight={spec.alpha_weight}"
        )
    return _closed_unweighted(spec.family, spec.gamma, eta)


def closed_c_star(loss: Loss) -> Callable | None:
    """The closed optimal conditional risk eta -> C*(eta) of a tagged loss,
    or None when the loss has none.  The function takes a float or an
    ndarray of posteriors; an ndarray is evaluated in numpy.

    Outer (1 - a, a) weighting reduces to the unweighted form through
    the posterior reparametrization: C*_{L_a}(eta) = w(eta) * C*(theta(eta)).
    """
    spec = loss.family
    if spec is None or not _supports_closed(spec):
        return None
    family, gamma = spec.family, spec.gamma

    def c_star(eta):
        if isinstance(eta, np.ndarray):
            return _c_star_rows(family, gamma, eta)
        return _closed_unweighted(family, gamma, eta).c_star

    if spec.alpha_weight is None:
        return c_star
    weight = CostParam(spec.alpha_weight)

    def weighted(eta):
        theta, w = theta_alpha(weight, eta)
        return w * c_star(theta)

    return weighted


def closed_sigmoid_c_minus(loss: Loss, cost: CostParam) -> Callable | None:
    """The closed constrained optimum eta -> C^-(eta) of the calibrated
    sigmoid, or None for any other loss or cost."""
    spec = loss.family
    if (
        spec is None
        or spec.family != "sigmoid"
        or spec.alpha_weight is not None
        or not _supports_closed(spec)
        or abs(cost.alpha - ALPHA_SIGMOID_GAMMA2) > 1e-12
    ):
        return None
    return lambda eta: sigmoid_c_minus(cost, eta)


def sigmoid_c_minus(cost: CostParam, eta):
    """Constrained optimal risk of the gamma = 2 sigmoid at its calibrating alpha.

    Piecewise: (1 + eta)/4 for eta <= 1/3 or eta >= 1/2; (1 - eta)/2 for
    1/3 < eta < alpha; the local-minimum value in between.  Adjacent
    branches agree at the breakpoints.  ``eta`` is a float or an ndarray.
    """
    if abs(cost.alpha - ALPHA_SIGMOID_GAMMA2) > 1e-12:
        raise DomainError("sigmoid_c_minus is specific to the calibrating alpha")
    _check_eta(eta)
    a = ALPHA_SIGMOID_GAMMA2
    if isinstance(eta, np.ndarray):
        out = np.where((1.0 / 3.0 < eta) & (eta < 0.5), (1.0 - eta) / 2.0, (1.0 + eta) / 4.0)
        local = (eta >= a) & (eta < 0.5)
        out[local] = _sigmoid_local_min(eta[local])
        return out
    if eta <= 1.0 / 3.0 or eta >= 0.5:
        return (1.0 + eta) / 4.0
    if eta < a:
        return (1.0 - eta) / 2.0
    return _sigmoid_local_min(eta)


def _alpha_gamma_lhs(eta: float, gamma: float) -> float:
    base = (eta * gamma - 1.0 + eta) / (1.0 - eta) * gamma / (gamma - 1.0)
    if base == math.inf:
        # Only for gamma beyond ~1e154; inf ** (gamma - 1) would not raise.
        raise OverflowError("base of the tangency equation overflows")
    return eta * (gamma * gamma * base ** (gamma - 1.0) + 1.0) - 1.0


#: d alpha / d ln(gamma) at gamma = 1: (x - 1)/4, where x = W(1/e) solves
#: x + ln(x) = -1, the tangency equation's first-order term at gamma = 1.
_ALPHA_SLOPE_AT_1 = -0.18038386430973155
#: Within this distance of gamma = 1, alpha_of_gamma is linear in ln(gamma).
_LINEAR_NEAR_1 = 1e-6


def alpha_of_gamma(gamma: float, tol: float = 1e-12) -> float:
    """The unique alpha at which the uneven sigmoid with margin ratio gamma
    is calibrated.

    For gamma > 1 this is the root, in (1/(1+gamma), 1), of a strictly
    increasing tangency equation, found by bisection to bracket width tol.
    gamma < 1 follows from the reciprocal symmetry alpha(1/gamma) =
    1 - alpha(gamma).  So alpha - 1/2 is odd in ln(gamma).  Within 1e-6 of
    gamma = 1, where the root lies closer to 1/2 than the bisection
    resolves, alpha is its linear term in ln(gamma), exact to O(ln(gamma)^3).
    """
    if not 0.0 < gamma < math.inf:
        raise DomainError(f"gamma must be positive and finite, got {gamma}")
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if abs(gamma - 1.0) <= _LINEAR_NEAR_1:
        return 0.5 + _ALPHA_SLOPE_AT_1 * math.log1p(gamma - 1.0)
    if gamma < 1.0:
        return 1.0 - alpha_of_gamma(1.0 / gamma, tol)
    lo = 1.0 / (1.0 + gamma) + 1e-12
    hi = 1.0 - 1e-12
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        try:
            below = _alpha_gamma_lhs(mid, gamma) < 0.0
        except OverflowError:
            raise DomainError(
                f"the tangency equation overflows at gamma={gamma}; "
                "alpha_of_gamma supports gamma within about [1/143, 143]"
            ) from None
        if below:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
