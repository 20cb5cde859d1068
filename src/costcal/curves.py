"""Sampled gap curves and their lower convex envelopes.

The curve nu(eps) records the smallest calibration gap among posteriors
at distance eps from the cost threshold; mu is its suffix infimum.  The
lower convex envelope of nu (the Fenchel-Legendre biconjugate, computed
here as a lower convex hull of sampled knots) is the transfer function
psi of the surrogate regret bound; inverting psi converts a surrogate
regret into a cost-regret bound (``calibration.regret_bound``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DomainError
from .losses import CostParam, Loss, h_alpha

__all__ = [
    "Knot",
    "SampledCurve",
    "ConvexEnvelope",
    "nu_curve",
    "mu_curve",
    "jump_at_bmin",
    "biconjugate",
    "envelope_eval",
    "envelope_invert",
    "psi_costinsensitive",
]

DEFAULT_GRID = 2001


class Knot(NamedTuple):
    eps: float
    value: float
    side: str  # "left", "right", or "both"


def _knots(rows: Iterable[tuple[float, float, str]]) -> list[Knot]:
    """Knots from (eps, value, side) rows.  tuple.__new__ skips Knot's
    Python-level constructor, about 40% of mu_curve on 2001 knots."""
    return list(map(tuple.__new__, repeat(Knot), rows))


@dataclass(frozen=True)
class SampledCurve:
    """A knot-listed function on [0, domain_max].

    A jump discontinuity is encoded as two knots at the same eps, the
    left-limit value first.
    """

    domain_max: float
    knots: tuple[Knot, ...]


@dataclass(frozen=True)
class ConvexEnvelope:
    """Piecewise-linear convex nondecreasing minorant, 0 at 0."""

    hull_knots: tuple[tuple[float, float], ...]

    @property
    def domain_max(self) -> float:
        return self.hull_knots[-1][0]

    @cached_property
    def _xy(self) -> np.ndarray:
        """The knots' xs and ys as the rows of one (2, n) array, built on
        first use and kept, outside the fields: equality and hashing still
        see only ``hull_knots``."""
        n = len(self.hull_knots)
        flat = np.fromiter(chain.from_iterable(self.hull_knots), float, 2 * n)
        return flat.reshape(n, 2).T.copy()


def nu_curve(
    loss: Loss,
    cost: CostParam,
    grid_size: int = DEFAULT_GRID,
    extra_knots: Iterable[float] = (),
) -> SampledCurve:
    """Sample nu on [0, B] with exact knots at 0, min(a, 1-a), and B.

    Both one-sided values are recorded at min(a, 1-a), where nu may
    jump.  ``extra_knots`` adds exact sample locations (clipped to the
    domain), which callers use to evaluate the envelope without
    interpolation error at specific points.
    """
    if grid_size < 3:
        raise DomainError(f"grid_size must be >= 3, got {grid_size}")
    alpha, big, small = cost.alpha, cost.b_max, cost.b_min
    eps_values = np.union1d(
        np.linspace(0.0, big, grid_size),
        np.array([0.0, small, big] + [min(max(float(e), 0.0), big) for e in extra_knots]),
    )
    # Gaps at both alpha - eps and alpha + eps (clipped to [0, 1]), in one call.
    lo = np.maximum(alpha - eps_values, 0.0)
    hi = np.minimum(alpha + eps_values, 1.0)
    etas, where = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    h_lo, h_hi = np.split(h_alpha(loss, cost, etas)[where], 2)
    # Past min(a, 1-a) only the side with room remains.
    far = h_hi if alpha <= 0.5 else h_lo
    values = np.where(eps_values <= small, np.where(h_lo < h_hi, h_lo, h_hi), far)

    eps_list = eps_values.tolist()
    knots = _knots(zip(eps_list, values.tolist(), repeat("both")))
    i = eps_list.index(small)
    right = float(far[i]) if small < big else knots[i].value
    knots[i : i + 1] = [knots[i]._replace(side="left"), Knot(small, right, "right")]
    return SampledCurve(domain_max=big, knots=tuple(knots))


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


def jump_at_bmin(curve: SampledCurve, tol: float = 1e-9) -> tuple[bool, float, float]:
    """Detect a jump at the curve's left/right-valued knot."""
    for first, second in zip(curve.knots, curve.knots[1:]):
        if first.side == "left" and second.side == "right" and first.eps == second.eps:
            return abs(second.value - first.value) > tol, first.value, second.value
    raise DomainError("curve has no left/right knot pair")


def biconjugate(curve: SampledCurve) -> ConvexEnvelope:
    """Lower convex hull of the sampled knots (monotone-chain sweep).

    With a (0, 0) knot and nonnegative values the hull is automatically
    convex, nondecreasing, and 0 at 0.
    """
    points = sorted((k.eps, k.value) for k in curve.knots)
    if len(points) < 2:
        raise DomainError("need at least 2 knots")
    hull: list[tuple[float, float]] = []
    for p in points:
        px, py = p
        # Pop while hull[-2] -> hull[-1] -> p does not turn left (cross <= 0).
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    # A trailing point directly above the previous x must not extend the hull.
    while len(hull) >= 2 and hull[-1][0] == hull[-2][0]:
        hull.pop()
    return ConvexEnvelope(hull_knots=tuple(hull))


def envelope_eval(env: ConvexEnvelope, eps: float) -> float:
    """Piecewise-linear interpolation on the hull knots."""
    if not -1e-12 <= eps <= env.domain_max + 1e-12:
        raise DomainError(f"eps={eps} outside [0, {env.domain_max}]")
    xs, ys = env._xy
    return float(np.interp(min(max(eps, xs[0]), xs[-1]), xs, ys))


def envelope_invert(env: ConvexEnvelope, y: float) -> float:
    """sup{eps : env(eps) <= y}, clamped to the domain maximum.

    On an initial flat-at-zero segment the right endpoint is returned,
    which keeps the regret bound conservative.
    """
    if not y >= 0.0:
        raise DomainError(f"y must be nonnegative, got {y}")
    xs, ys = env._xy
    if y >= ys[-1]:
        return float(xs[-1])
    i = int(np.searchsorted(ys, y, side="right")) - 1
    slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
    return float(xs[i] + (y - ys[i]) / slope)


def psi_costinsensitive(loss: Loss, eps: float, grid_size: int = DEFAULT_GRID) -> float:
    """Cost-insensitive transfer function, via the alpha = 1/2 envelope
    evaluated at eps / 2."""
    if not 0.0 <= eps <= 1.0:
        raise DomainError(f"eps must lie in [0, 1], got {eps}")
    cost = CostParam(0.5)
    env = biconjugate(nu_curve(loss, cost, grid_size, extra_knots=(eps / 2.0,)))
    return envelope_eval(env, eps / 2.0)
