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
from itertools import repeat
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DomainError, _check_int, _check_real, _check_sequence
from .losses import CostParam, Loss
from .oracle import h_alpha

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


def _set_columns(obj, **dtypes) -> None:
    """Set the named fields of the frozen ``obj`` to read-only arrays of their
    dtypes (``np.asarray``; one of that dtype is frozen in place): 1-d, of one length."""
    columns = [np.asarray(getattr(obj, name), dtype) for name, dtype in dtypes.items()]
    shapes = [column.shape for column in columns]
    if len(set(shapes)) > 1 or len(shapes[0]) != 1:
        raise DomainError(f"{type(obj).__name__} needs 1-d columns of one length, got {shapes}")
    for column in columns:
        column.flags.writeable = False
    obj.__dict__.update(zip(dtypes, columns))


@dataclass(frozen=True, eq=False)
class SampledCurve:
    """A knot-listed function on [0, domain_max].

    The knots are three read-only columns: ``eps`` and ``values`` (float64)
    and ``sides`` (an object array of "left", "right" or "both").  A jump
    is encoded as two knots at the same eps, the left-limit value first.
    ``knots`` views them as ``Knot`` tuples, built on first access.
    An array of its column's dtype is adopted and frozen in place, not copied:
    pass a copy if you keep a writable view of it, or the curve changes under it.
    """

    domain_max: float
    eps: np.ndarray
    values: np.ndarray
    sides: np.ndarray

    def __post_init__(self) -> None:
        _set_columns(self, eps=float, values=float, sides=object)

    @cached_property
    def knots(self) -> tuple[Knot, ...]:
        # tuple.__new__ skips Knot's constructor, about 40% of 2001 knots' cost.
        rows = zip(self.eps.tolist(), self.values.tolist(), self.sides.tolist())
        return tuple(map(tuple.__new__, repeat(Knot), rows))


@dataclass(frozen=True, eq=False)
class ConvexEnvelope:
    """Piecewise-linear convex nondecreasing minorant, 0 at 0.

    The hull knots are two nonempty read-only float64 columns, ``xs`` and
    ``ys``.  ``hull_knots`` views them as ``(x, y)`` tuples, built on first
    access.  Columns are adopted and frozen as ``SampledCurve``'s are.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        _set_columns(self, xs=float, ys=float)
        if not self.xs.size:
            raise DomainError("an envelope needs at least one knot")

    @cached_property
    def hull_knots(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.xs.tolist(), self.ys.tolist()))

    @property
    def domain_max(self) -> float:
        return self.xs[-1].item()


#: The most entries a float64 array can have.  numpy raises ValueError or
#: IndexError, not MemoryError, on a longer one.
_MAX_LEN = np.iinfo(np.intp).max // 8


def _grid(stop: float, grid_size: int) -> np.ndarray:
    """``np.linspace(0, stop, grid_size)``; a grid too large to allocate
    raises ``DomainError`` naming ``grid_size``."""
    try:
        return np.linspace(0.0, stop, grid_size)
    except MemoryError as exc:
        raise DomainError(f"grid_size={grid_size} is too large to allocate: {exc}") from exc


def _run_starts(x: np.ndarray) -> np.ndarray:
    """The mask of the first entry of each run of equal entries of a
    nonempty ``x``, as ``np.unique`` builds it from its sorted array."""
    first = np.empty(len(x), bool)
    first[0] = True
    np.not_equal(x[1:], x[:-1], out=first[1:])
    return first


def _distinct_posteriors(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(np.concatenate([lo, hi]), return_inverse=True)`` for a
    nonincreasing ``lo`` and a nondecreasing ``hi`` with the same first
    value, without its sort: ``lo`` reversed, then ``hi``, is already
    sorted, so each run of equal posteriors in it is one distinct value."""
    n = len(lo)
    posteriors = np.concatenate([lo[::-1], hi])
    first = _run_starts(posteriors)
    where = np.cumsum(first) - 1
    return posteriors[first], np.concatenate([where[n - 1 :: -1], where[n:]])


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
    interpolation error at specific points; a NaN one, one that is no
    number, or ``extra_knots`` that is no sequence, raises ``DomainError``.
    """
    _check_int("grid_size", grid_size, 3, _MAX_LEN)
    _check_sequence("extra_knots", extra_knots)
    alpha, big, small = cost.alpha, cost.b_max, cost.b_min
    extras = []
    for e in extra_knots:
        _check_real("extra_knots", e)
        extras.append(min(max(float(e), 0.0), big))
    # np.union1d of the grid and the knots, built as it builds it (one
    # sort, then the first of each run), without its wrappers: the same
    # values, and the same one kept of 0.0 and -0.0.
    eps_values = np.concatenate([_grid(big, grid_size), [0.0, small, big, *extras]])
    eps_values.sort()
    eps_values = eps_values[_run_starts(eps_values)]
    n = len(eps_values)
    # Gaps at both alpha - eps and alpha + eps (clipped to [0, 1]), in one call.
    lo = np.maximum(alpha - eps_values, 0.0)
    hi = np.minimum(alpha + eps_values, 1.0)
    etas, where = _distinct_posteriors(lo, hi)
    gaps = h_alpha(loss, cost, etas)[where]
    h_lo, h_hi = gaps[:n], gaps[n:]
    # Past min(a, 1-a) only the side with room remains.
    far = h_hi if alpha <= 0.5 else h_lo
    values = np.where(eps_values <= small, np.where(h_lo < h_hi, h_lo, h_hi), far)

    # The knot at min(a, 1-a) (eps_values[i], which is small) is doubled:
    # the left limit, then the right one.
    i = int(np.searchsorted(eps_values, small))
    right = far[i : i + 1] if small < big else values[i : i + 1]
    sides = np.empty(n + 1, object)
    sides.fill("both")  # one shared str; np.full would make a copy per knot
    sides[i : i + 2] = "left", "right"
    eps = np.concatenate([eps_values[: i + 1], eps_values[i:]])
    values = np.concatenate([values[: i + 1], right, values[i + 1 :]])
    return SampledCurve(big, eps, values, sides)


def mu_curve(nu: SampledCurve) -> SampledCurve:
    """Suffix-infimum transform: mu(eps) = inf of nu over [eps, B].

    Nondecreasing by construction; knot locations and sides are kept.
    """
    if not nu.values.size:
        raise DomainError("empty curve")
    suffix_min = np.minimum.accumulate(nu.values[::-1])[::-1]
    return SampledCurve(nu.domain_max, nu.eps, suffix_min, nu.sides)


def jump_at_bmin(curve: SampledCurve, tol: float = 1e-9) -> tuple[bool, float, float]:
    """Detect a jump at the curve's left/right-valued knot: one where the
    two values differ by more than ``tol``, in [0, inf)."""
    _check_real("tol", tol, 0.0, ends="[)")
    eps, sides = curve.eps, curve.sides
    pairs = np.flatnonzero((sides[:-1] == "left") & (sides[1:] == "right") & (eps[:-1] == eps[1:]))
    if not pairs.size:
        raise DomainError("curve has no left/right knot pair")
    left, right = curve.values[pairs[0] : pairs[0] + 2].tolist()
    return abs(right - left) > tol, left, right


def biconjugate(curve: SampledCurve) -> ConvexEnvelope:
    """Lower convex hull of the sampled knots (monotone-chain sweep).

    With a (0, 0) knot and nonnegative values the hull is automatically
    convex, nondecreasing, and 0 at 0.  A NaN knot raises ``DomainError``.

    The chain pops the top while the top two and the next point p do not
    turn left (cross <= 0), then pushes p; the knots are exactly its own.
    The hull is a stack of indices into the sorted points.  Every point is
    pushed, so after a step that pops nothing the next step's first test
    is the cross of three consecutive points.  Those crosses are computed
    at once in numpy, with the chain's float operations in its order (so
    the same bits), and each run of points they let through is slice-
    assigned into the stack.  From a consecutive cross <= 0 the chain steps
    in Python, on Python floats read through memoryviews, until a step pops
    nothing and the next consecutive cross does not pop: the next run
    starts there.  No pushed point of a run becomes a Python object.
    """
    if curve.eps.size < 2:
        raise DomainError("need at least 2 knots")
    order = np.lexsort((curve.values, curve.eps))
    xs, ys = curve.eps[order], curve.values[order]
    if xs[-1] != xs[-1] or np.isnan(ys).any():  # a NaN eps sorts last
        first = np.flatnonzero(np.isnan(curve.eps) | np.isnan(curve.values))[0]
        raise DomainError(f"the curve has a NaN knot at eps={curve.eps[first].item()!r}")
    x0, y0, x1, y1, x2, y2 = xs[:-2], ys[:-2], xs[1:-1], ys[1:-1], xs[2:], ys[2:]
    # Python floats give inf and NaN here without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        pops = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) <= 0.0
    # Byte k is 1 where point k's consecutive cross pops (points 0 and 1
    # have none); the last byte stands for the end of the points.
    flags = b"\0\0" + pops.tobytes() + b"\1"
    n = len(xs)
    x_at, y_at, ids = memoryview(xs), memoryview(ys), memoryview(np.arange(n, dtype=np.intp))
    stack = memoryview(np.empty(n, np.intp))
    top = done = 0  # the stack's size; the points before ``done`` have had their step
    while done < n:
        m = flags.find(1, done + 1)
        stack[top : top + m - done] = ids[done:m]
        top += m - done
        if m == n:
            break
        # o and a: the points at stack[top - 2] and stack[top - 1].
        j = stack[top - 2]
        ox, oy, ax, ay = x_at[j], y_at[j], x_at[m - 1], y_at[m - 1]
        for k in range(m, n):
            px, py = x_at[k], y_at[k]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0.0:
                top -= 1
                ax, ay = ox, oy
                while top >= 2:
                    j = stack[top - 2]
                    ox, oy = x_at[j], y_at[j]
                    if not (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0.0:
                        break
                    top -= 1
                    ax, ay = ox, oy
            elif not flags[k + 1]:
                break  # step k pops nothing and opens a run: the next run pushes k
            stack[top] = k
            top += 1
            ox, oy, ax, ay = ax, ay, px, py
        else:
            k = n
        done = k
    # A trailing point directly above the previous x must not extend the hull.
    while top >= 2 and x_at[stack[top - 1]] == x_at[stack[top - 2]]:
        top -= 1
    idx = np.asarray(stack[:top], np.intp)
    return ConvexEnvelope(xs[idx], ys[idx])


def envelope_eval(env: ConvexEnvelope, eps: float) -> float:
    """Piecewise-linear interpolation on the hull knots."""
    _check_real("eps", eps, -1e-12, env.domain_max + 1e-12)
    xs, ys = env.xs, env.ys
    return float(np.interp(min(max(eps, xs[0]), xs[-1]), xs, ys))


def envelope_invert(env: ConvexEnvelope, y: float) -> float:
    """sup{eps : env(eps) <= y}, clamped to the domain maximum.

    On an initial flat-at-zero segment the right endpoint is returned,
    which keeps the regret bound conservative.  A ``y`` below the first
    value has no such eps, and raises ``DomainError``.
    """
    _check_real("y", y, 0.0)
    xs, ys = env.xs, env.ys
    if y < ys[0]:
        raise DomainError(f"y={y} lies below the envelope's first value {ys[0].item()}")
    if y >= ys[-1]:
        return float(xs[-1])
    i = int(np.searchsorted(ys, y, side="right")) - 1
    slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
    return float(xs[i] + (y - ys[i]) / slope)


def psi_costinsensitive(loss: Loss, eps: float, grid_size: int = DEFAULT_GRID) -> float:
    """Cost-insensitive transfer function, via the alpha = 1/2 envelope
    evaluated at eps / 2."""
    _check_real("eps", eps, 0.0, 1.0)
    cost = CostParam(0.5)
    env = biconjugate(nu_curve(loss, cost, grid_size, extra_knots=(eps / 2.0,)))
    return envelope_eval(env, eps / 2.0)
