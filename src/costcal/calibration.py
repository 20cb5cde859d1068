"""Calibration verdicts and calibration functions.

A loss is calibrated at cost asymmetry alpha when the calibration gap is
strictly positive away from the threshold posterior.  For convex partial
losses this reduces to three derivative conditions at the origin;
otherwise a grid scan of the gap gives a numeric (non-proof) verdict.
The calibration functions translate a target cost-regret precision into
the surrogate precision that guarantees it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import SampledCurve, _knots, nu_curve
from .errors import DomainError, PreconditionError
from .losses import CostParam, Loss, h_alpha

__all__ = [
    "CalibrationReport",
    "check_calibrated",
    "check_calibrated_analytic",
    "check_calibrated_numeric",
    "calibration_fn",
    "uniform_calibration_fn",
    "mu_curve",
]

DEFAULT_GRID_SIZE = 1001
DEFAULT_TOLERANCE = 1e-9
_ANALYTIC_REL_TOL = 1e-12


@dataclass(frozen=True)
class CalibrationReport:
    verdict: str  # "calibrated" or "not_calibrated"
    method: str  # "analytic_convex" or "numeric_grid"
    alpha: float
    witnesses: tuple[tuple[float, float], ...]
    tolerance: float
    grid_size: int | None = None
    # Analytic method only: (L1'(0), L-1'(0), alpha*L1'(0) + (1-alpha)*L-1'(0)).
    derivative_checks: tuple[float, float, float] | None = None


def check_calibrated_analytic(loss: Loss, cost: CostParam) -> CalibrationReport:
    """Derivative-condition verdict for convex partial losses.

    Calibrated iff L1'(0) < 0, L-1'(0) > 0, and the alpha-weighted
    combination of the two vanishes (relative tolerance against the
    derivative scale).
    """
    pos, neg = loss.pos, loss.neg
    if not (pos.is_convex and neg.is_convex):
        raise PreconditionError(
            "analytic check needs convex partials; use check_calibrated_numeric"
        )
    d1, d2 = pos.deriv_at_zero, neg.deriv_at_zero
    if d1 is None or d2 is None:
        raise PreconditionError(
            "analytic check needs derivatives at 0; use check_calibrated_numeric"
        )
    combo = cost.alpha * d1 + (1.0 - cost.alpha) * d2
    scale = max(abs(d1), abs(d2), 1e-300)
    ok = d1 < 0.0 and d2 > 0.0 and abs(combo) <= _ANALYTIC_REL_TOL * scale
    return CalibrationReport(
        verdict="calibrated" if ok else "not_calibrated",
        method="analytic_convex",
        alpha=cost.alpha,
        witnesses=(),
        tolerance=_ANALYTIC_REL_TOL,
        derivative_checks=(d1, d2, combo),
    )


def check_calibrated(loss: Loss, cost: CostParam) -> CalibrationReport:
    """The analytic verdict where its preconditions hold, else the numeric one."""
    try:
        return check_calibrated_analytic(loss, cost)
    except PreconditionError:
        return check_calibrated_numeric(loss, cost)


def check_calibrated_numeric(
    loss: Loss,
    cost: CostParam,
    grid_size: int = DEFAULT_GRID_SIZE,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CalibrationReport:
    """Grid scan of the calibration gap (a numeric verdict, not a proof).

    The gap is evaluated on a uniform posterior grid outside a
    half-grid-step neighborhood of alpha.  Near-zero values trigger one
    local refinement pass at x10 density before a negative verdict, and
    the worst refined point is reported as the witness.
    """
    if grid_size < 3:
        raise DomainError(f"grid_size must be >= 3, got {grid_size}")
    alpha = cost.alpha
    radius = 1.0 / (2.0 * grid_size)
    grid = np.linspace(0.0, 1.0, grid_size)
    values = _gaps(loss, cost, grid[np.abs(grid - alpha) > radius])

    bad = [(e, v) for e, v in values if v <= tolerance]
    if not bad:
        best = min(values, key=lambda ev: ev[1])
        return CalibrationReport(
            verdict="calibrated",
            method="numeric_grid",
            alpha=alpha,
            witnesses=(best,),
            tolerance=tolerance,
            grid_size=grid_size,
        )

    step = 1.0 / (grid_size - 1)
    near = np.concatenate(
        [np.linspace(max(e - step, 0.0), min(e + step, 1.0), 21) for e, _ in bad]
    )
    refined = _gaps(loss, cost, near[np.abs(near - alpha) > radius / 10.0])
    witnesses = tuple(sorted((ev for ev in refined if ev[1] <= tolerance), key=lambda ev: ev[1]))
    if not witnesses:
        # The coarse near-zero values did not survive refinement.
        best = min(values, key=lambda ev: ev[1])
        return CalibrationReport(
            verdict="calibrated",
            method="numeric_grid",
            alpha=alpha,
            witnesses=(best,),
            tolerance=tolerance,
            grid_size=grid_size,
        )
    return CalibrationReport(
        verdict="not_calibrated",
        method="numeric_grid",
        alpha=alpha,
        witnesses=witnesses[:5],
        tolerance=tolerance,
        grid_size=grid_size,
    )


def _gaps(loss: Loss, cost: CostParam, etas: np.ndarray) -> list[tuple[float, float]]:
    """(eta, H(eta)) pairs from one batched gap evaluation."""
    return list(zip(etas.tolist(), h_alpha(loss, cost, etas).tolist()))


def _check_continuity(loss: Loss) -> None:
    if not (loss.pos.is_continuous_at_zero and loss.neg.is_continuous_at_zero):
        raise PreconditionError("calibration functions need partials continuous at 0")


def calibration_fn(loss: Loss, cost: CostParam, eps: float, eta: float) -> float:
    """Largest surrogate precision delta guaranteeing cost precision eps
    at posterior eta; infinite when eps exceeds |eta - alpha|."""
    _check_continuity(loss)
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta must lie in [0, 1], got {eta}")
    if eps > abs(eta - cost.alpha):
        return math.inf
    return h_alpha(loss, cost, eta)


def uniform_calibration_fn(
    loss: Loss, cost: CostParam, eps: float, grid_size: int | None = None
) -> float:
    """Uniform (posterior-independent) calibration function.

    Infinite above B = max(alpha, 1 - alpha); below, the suffix infimum
    of nu over [eps, B], sampled with eps as an exact knot.
    """
    _check_continuity(loss)
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    if eps > cost.b_max:
        return math.inf
    from .curves import DEFAULT_GRID

    nu = nu_curve(loss, cost, grid_size or DEFAULT_GRID, extra_knots=(eps,))
    mu = mu_curve(nu)
    return min(k.value for k in mu.knots if k.eps == eps)


def mu_curve(nu: SampledCurve) -> SampledCurve:
    """Suffix-infimum transform: mu(eps) = inf of nu over [eps, B].

    Nondecreasing by construction; knot locations and sides are kept.
    """
    if not nu.knots:
        raise DomainError("empty curve")
    eps, values, sides = zip(*nu.knots)
    suffix_min = np.minimum.accumulate(values[::-1])[::-1]
    knots = _knots(zip(eps, suffix_min.tolist(), sides))
    return SampledCurve(domain_max=nu.domain_max, knots=tuple(knots))
