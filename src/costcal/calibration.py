"""Calibration verdicts, calibration functions, and regret bounds.

A loss is calibrated at cost asymmetry alpha when the calibration gap is
strictly positive away from the threshold posterior.  For convex partial
losses this reduces to three derivative conditions at the origin;
otherwise a grid scan of the gap gives a numeric (non-proof) verdict.
The calibration functions translate a target cost-regret precision into
the surrogate precision that guarantees it; the regret bound, gated by
the verdict, inverts the envelope of the gap curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import DEFAULT_GRID, biconjugate, envelope_invert, nu_curve
from .errors import DomainError, PreconditionError, VacuousBoundError
from .losses import DERIVATIVE_TOL, CostParam, Loss, _check_eta, derivative_test, h_alpha

__all__ = [
    "CalibrationReport",
    "check_calibrated",
    "check_calibrated_analytic",
    "check_calibrated_numeric",
    "calibration_fn",
    "uniform_calibration_fn",
    "regret_bound",
]

DEFAULT_GRID_SIZE = 1001
DEFAULT_TOLERANCE = 1e-9


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
    """Derivative-condition verdict for convex partial losses
    (``losses.derivative_test``).

    Calibrated iff L1'(0) < 0, L-1'(0) > 0, and the alpha-weighted
    combination of the two vanishes (relative tolerance against the
    derivative scale).
    """
    test = derivative_test(loss, cost)
    if test is None:
        raise PreconditionError(
            "analytic check needs convex partials with derivatives at 0; "
            "use check_calibrated_numeric"
        )
    d1, d2, combo, ok = test
    return CalibrationReport(
        verdict="calibrated" if ok else "not_calibrated",
        method="analytic_convex",
        alpha=cost.alpha,
        witnesses=(),
        tolerance=DERIVATIVE_TOL,
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
    etas = grid[np.abs(grid - alpha) > radius]
    gaps = h_alpha(loss, cost, etas)

    witnesses = ()
    bad = etas[gaps <= tolerance]
    if bad.size:
        # One refinement pass; coarse near-zero values may not survive it.
        step = 1.0 / (grid_size - 1)
        near = np.linspace(np.maximum(bad - step, 0.0), np.minimum(bad + step, 1.0), 21, axis=1)
        near = near[np.abs(near - alpha) > radius / 10.0]
        refined = h_alpha(loss, cost, near)
        low = refined <= tolerance
        near, refined = near[low], refined[low]
        order = np.argsort(refined, kind="stable")
        witnesses = tuple(zip(near[order].tolist(), refined[order].tolist()))
    verdict = "not_calibrated" if witnesses else "calibrated"
    if not witnesses:
        # min()'s pick: the first least gap, where a NaN in first place stays.
        i = 0 if np.isnan(gaps[0]) else int(np.nanargmin(gaps))
        witnesses = ((etas[i].item(), gaps[i].item()),)
    return CalibrationReport(
        verdict=verdict,
        method="numeric_grid",
        alpha=alpha,
        witnesses=witnesses[:5],
        tolerance=tolerance,
        grid_size=grid_size,
    )


def _check_continuity(loss: Loss) -> None:
    if not (loss.pos.is_continuous_at_zero and loss.neg.is_continuous_at_zero):
        raise PreconditionError("calibration functions need partials continuous at 0")


def calibration_fn(loss: Loss, cost: CostParam, eps: float, eta: float) -> float:
    """Largest surrogate precision delta guaranteeing cost precision eps
    at posterior eta; infinite when eps exceeds |eta - alpha|."""
    _check_continuity(loss)
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    _check_eta(eta)
    if eps > abs(eta - cost.alpha):
        return math.inf
    return h_alpha(loss, cost, eta)


def uniform_calibration_fn(
    loss: Loss, cost: CostParam, eps: float, grid_size: int = DEFAULT_GRID
) -> float:
    """Uniform (posterior-independent) calibration function.

    Infinite above B = max(alpha, 1 - alpha); below, mu(eps): the
    infimum of nu over [eps, B], sampled with eps as an exact knot.
    """
    _check_continuity(loss)
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    if eps > cost.b_max:
        return math.inf
    nu = nu_curve(loss, cost, grid_size, extra_knots=(eps,))
    tail = nu.values[nu.eps >= eps]
    # min()'s pick: the first least value, where a NaN in first place stays.
    return tail[0 if np.isnan(tail[0]) else np.nanargmin(tail)].item()


def regret_bound(
    loss: Loss, cost: CostParam, surrogate_regret: float, grid_size: int = DEFAULT_GRID
) -> float:
    """Upper bound on the cost-sensitive regret given a surrogate regret.

    Raises VacuousBoundError when the loss is not calibrated at this
    cost parameter (the transfer function is then not invertible).
    """
    if not 0.0 <= surrogate_regret < math.inf:
        raise DomainError(
            f"surrogate_regret must be nonnegative and finite, got {surrogate_regret}"
        )
    if check_calibrated(loss, cost).verdict != "calibrated":
        raise VacuousBoundError(
            f"loss is not calibrated at alpha={cost.alpha}; the bound is vacuous"
        )
    env = biconjugate(nu_curve(loss, cost, grid_size))
    return envelope_invert(env, surrogate_regret)
