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


def _knots(rows: Iterable[tuple[float, float, str]]) -> tuple[Knot, ...]:
    """Knots from (eps, value, side) rows.  tuple.__new__ skips Knot's
    Python-level constructor, about 40% of the cost on 2001 knots."""
    return tuple(map(tuple.__new__, repeat(Knot), rows))


class SampledCurve:
    """A knot-listed function on [0, domain_max].

    A jump discontinuity is encoded as two knots at the same eps, the
    left-limit value first.

    The knots are held as three read-only columns: ``eps`` and ``values``
    (float64 arrays) and ``sides`` (an object array of the side strings).
    The ``Knot`` tuples are built on first access of ``knots`` and kept.
    Equality and hashing compare ``(domain_max, knots)``.
    """

    def __init__(self, domain_max: float, knots: Iterable[Knot]) -> None:
        knots = tuple(knots)
        eps, values, sides = zip(*knots) if knots else ((), (), ())
        columns = np.array(eps, float), np.array(values, float), np.array(sides, object)
        self._set(domain_max, *columns)
        self.__dict__["knots"] = knots

    @classmethod
    def _from_columns(
        cls, domain_max: float, eps: np.ndarray, values: np.ndarray, sides: np.ndarray
    ) -> SampledCurve:
        curve = cls.__new__(cls)
        curve._set(domain_max, eps, values, sides)
        return curve

    def _set(self, domain_max, eps, values, sides) -> None:
        for column in (eps, values, sides):
            column.flags.writeable = False
        self.__dict__.update(domain_max=domain_max, eps=eps, values=values, sides=sides)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"SampledCurve is immutable; cannot set {name!r}")

    @cached_property
    def knots(self) -> tuple[Knot, ...]:
        return _knots(zip(self.eps.tolist(), self.values.tolist(), self.sides.tolist()))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.domain_max, self.knots) == (other.domain_max, other.knots)

    def __hash__(self) -> int:
        return hash((self.domain_max, self.knots))

    def __repr__(self) -> str:
        return f"SampledCurve(domain_max={self.domain_max!r}, knots={self.knots!r})"


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

    i = int(np.searchsorted(eps_values, small))
    right = far[i] if small < big else values[i]
    sides = np.empty(len(eps_values) + 1, object)
    sides.fill("both")  # one shared str; np.full would make a copy per knot
    sides[i : i + 2] = "left", "right"
    eps = np.insert(eps_values, i + 1, small)
    return SampledCurve._from_columns(big, eps, np.insert(values, i + 1, right), sides)


def mu_curve(nu: SampledCurve) -> SampledCurve:
    """Suffix-infimum transform: mu(eps) = inf of nu over [eps, B].

    Nondecreasing by construction; knot locations and sides are kept.
    """
    if not nu.values.size:
        raise DomainError("empty curve")
    suffix_min = np.minimum.accumulate(nu.values[::-1])[::-1]
    return SampledCurve._from_columns(nu.domain_max, nu.eps, suffix_min, nu.sides)


def jump_at_bmin(curve: SampledCurve, tol: float = 1e-9) -> tuple[bool, float, float]:
    """Detect a jump at the curve's left/right-valued knot."""
    eps, sides = curve.eps, curve.sides
    pairs = np.flatnonzero((sides[:-1] == "left") & (sides[1:] == "right") & (eps[:-1] == eps[1:]))
    if not pairs.size:
        raise DomainError("curve has no left/right knot pair")
    left, right = curve.values[pairs[0] : pairs[0] + 2].tolist()
    return abs(right - left) > tol, left, right


def biconjugate(curve: SampledCurve) -> ConvexEnvelope:
    """Lower convex hull of the sampled knots (monotone-chain sweep).

    With a (0, 0) knot and nonnegative values the hull is automatically
    convex, nondecreasing, and 0 at 0.

    The chain pops hull[-1] while hull[-2] -> hull[-1] -> p does not turn
    left (cross <= 0), then pushes p.  Every point is pushed, so after a
    step that pops nothing the top two entries are the two points just
    before the next one, and that point's first test is the cross of three
    consecutive points.  Those crosses are computed at once in numpy, with
    the chain's float operations in its order (so the same bits), and each
    run of points they let through is pushed as one slice.  The chain runs
    point by point from a consecutive cross <= 0 until a step pops nothing
    and the next consecutive cross is > 0, so the knots are exactly the
    sequential chain's.
    """
    if curve.eps.size < 2:
        raise DomainError("need at least 2 knots")
    order = np.lexsort((curve.values, curve.eps))
    xs, ys = curve.eps[order], curve.values[order]
    x0, y0, x1, y1, x2, y2 = xs[:-2], ys[:-2], xs[1:-1], ys[1:-1], xs[2:], ys[2:]
    # Python floats give inf and NaN here without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        pops = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) <= 0.0
    # Per point, whether its consecutive cross pops (points 0 and 1 have
    # none); the last entry stands for the end of the points.
    first_pops = [False, False, *pops.tolist(), True]
    points = list(zip(xs.tolist(), ys.tolist()))
    n = len(points)
    hull: list[tuple[float, float]] = []
    done = 0  # the points before this one have had their step
    while done < n:
        m = first_pops.index(True, done + 1)
        hull += points[done:m]
        for k in range(m, n):
            px, py = p = points[k]
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if not (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0.0:
                if not first_pops[k + 1]:
                    break  # step k pops nothing and opens a run: the next slice pushes p
                hull.append(p)
                continue
            hull.pop()
            while len(hull) >= 2:
                (ox, oy), (ax, ay) = hull[-2], hull[-1]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0.0:
                    hull.pop()
                else:
                    break
            hull.append(p)
        else:
            k = n
        done = k
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
