"""The optima of the conditional risk, by closed form or by search.

C* (``optimal_conditional_risk``), C^- (``constrained_optimal_risk``)
and the calibration gap H = C^- - C* (``h_alpha``) all come from one
chooser, ``_optima``.  It takes a loss's closed form where there is one,
and otherwise runs the brute-force search (``brute_force_min``): a pass
over a log-spaced score grid, then golden-section refinement, on a float
posterior or on a whole array of them.  The chooser codes each search's
sign constraint.  The numeric verdict's gaps come from one plan
(``_verdict_gaps``), which bounds the searched C* from above and a
searched C^- from below by its chords to floor the gaps, and searches
only those that can decide the verdict.  The exact
risk and regret of a score assignment on a finite distribution
(``empirical_regrets``) are also here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, _check_real, _check_sequence
from .losses import (
    _GOLDEN_TOL,
    _INV_PHI,
    CostParam,
    Loss,
    _check_eta,
    conditional_risk,
    cost_regret,
    derivative_test,
)

__all__ = [
    "FiniteDistribution",
    "DecisionAssignment",
    "SearchResult",
    "brute_force_min",
    "optimal_conditional_risk",
    "constrained_optimal_risk",
    "h_alpha",
    "empirical_regrets",
]

# Coarse search grid: symmetric log-spaced scores plus the origin.
_HALF_GRID = np.logspace(-6.0, math.log10(50.0), 400)
_GRID = np.concatenate([-_HALF_GRID[::-1], [0.0], _HALF_GRID])
#: The index of the score 0 in ``_GRID``.
_ZERO = len(_HALF_GRID)

#: A constraint is coded by the sign every admissible score keeps: 0 for
#: none, +1 for nonnegative scores, -1 for nonpositive ones.  Its name is
#: read only where ``brute_force_min`` takes it.
_SEARCH = {"none": 0, "nonnegative_scores": 1, "nonpositive_scores": -1}
#: The bounds of a code's admissible columns of ``_GRID``, indexed by the
#: code (-1 counts from the back).
_START = np.array([0, _ZERO, 0])
_STOP = np.array([len(_GRID), len(_GRID), _ZERO + 1])


def _grid_tables(loss: Loss) -> tuple[np.ndarray, np.ndarray]:
    """Each partial's ``fn`` on the whole of ``_GRID``, read-only, made by
    the loss's first search and kept on the loss (``Loss._search_state``);
    a search slices its admissible columns out of them.  Made under
    ``np.errstate``: a partial defined on one half-line only may be NaN on
    the other, which no search on its half-line reads."""
    state = loss._search_state
    if state[0] is None:
        with np.errstate(over="ignore", invalid="ignore"):
            state[0] = tuple(
                np.broadcast_to(np.asarray(partial.fn(_GRID), dtype=float), _GRID.shape)
                for partial in (loss.pos, loss.neg)
            )
    return state[0]


@dataclass(frozen=True)
class FiniteDistribution:
    """Discrete marginal over the posterior: atoms of (mass, eta)."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        _check_sequence("atoms", self.atoms, len)
        if not self.atoms:
            raise DomainError("distribution needs at least one atom")
        total = 0.0
        for atom in self.atoms:
            if not (
                isinstance(atom, (tuple, list)) and len(atom) == 2
                or isinstance(atom, np.ndarray) and atom.shape == (2,)
            ):
                raise DomainError(f"atoms must be (mass, eta) pairs, got {atom!r}")
            mass, eta = atom
            # Floats pass on their comparisons; anything else is the check's.
            if not (
                isinstance(mass, float) and isinstance(eta, float) and mass > 0.0 and 0.0 <= eta <= 1.0
            ):
                _check_real("mass", mass, 0.0, ends="(]")
                _check_real("eta", eta, 0.0, 1.0)
            total += mass
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"masses must sum to 1, got {total}")


@dataclass(frozen=True)
class DecisionAssignment:
    """One score per atom of a FiniteDistribution."""

    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_sequence("scores", self.scores, len)


class SearchResult(NamedTuple):
    arg: float
    value: float


def _weights(w: np.ndarray):
    """What ``_mix`` needs of the weights ``w``: ``w``, ``1 - w``, and the
    masks of weight 0 and weight 1, or None where no weight is 0 or 1.
    Computed once for every mix that shares the weights."""
    zero, one = w == 0.0, w == 1.0
    return w, 1.0 - w, (zero, one) if zero.any() or one.any() else None


def _mix(weights, pos, neg, out=None) -> np.ndarray:
    """w * pos + (1 - w) * neg for ``weights = _weights(w)``, broadcast,
    where a partial of weight 0 contributes 0 even where it is infinite (as
    in ``conditional_risk``).  That 0 * inf is NaN before it is replaced,
    so callers silence numpy's invalid-value warning.

    ``out`` is an optional pair of arrays of the result's shape: the result
    is written to the first, the second holds the (1 - w) * neg term."""
    w, w_neg, edges = weights
    risks, term = (None, None) if out is None else out
    risks = np.multiply(w, pos, out=risks)
    risks += np.multiply(w_neg, neg, out=term)
    if edges is not None:
        zero, one = edges
        np.copyto(risks, neg, where=zero)
        np.copyto(risks, pos, where=one)
    return risks


def _golden_section(risk, a: float, b: float):
    """Minimize ``risk``, a callable of a float score (``_float_risk``, or a
    family partial alone), unimodal on [a, b]; returns (arg, value).  The
    float loop of every search but a family pair's inside (0, 1), which
    runs the family's fused search (``families._FUSED``), this loop with
    its risk inlined."""
    h = b - a
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    yc, yd = risk(c), risk(d)
    while h > _GOLDEN_TOL:
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = b - _INV_PHI * h
            yc = risk(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INV_PHI * h
            yd = risk(d)
    x = c if yc < yd else d
    return x, min(yc, yd)


def _float_risk(pos, neg, eta: float):
    """The conditional risk at the float posterior ``eta`` of two partials
    that are not one family's, as one callable of a Python float score.
    The partials ``pos`` and ``neg`` are ``fn``s, and the risk is
    ``conditional_risk``'s arithmetic on their results, each converted by
    ``float``: eta * pos(t) + (1 - eta) * neg(t), where a partial of weight
    0 is not evaluated (0 * inf = 0), so at eta = 0 or 1 the other is the
    risk.  The calls may warn, so its search runs under ``np.errstate``."""
    if eta == 0.0:
        return lambda t: float(neg(t))
    if eta == 1.0:
        return lambda t: float(pos(t))
    w = 1.0 - eta
    return lambda t: eta * float(pos(t)) + w * float(neg(t))


def _fused(fn):
    """The descriptor ``(code, search, c, s)`` that ``families._partial``
    attaches to a family partial's ``fn`` as ``fused``, or None.  It names
    its closure's code, so a wrapper that copied the attribute (as
    ``functools.wraps`` does) gets None and keeps its own calls."""
    fused = getattr(fn, "fused", None)
    return fused if fused is not None and fused[0] is getattr(fn, "__code__", None) else None


def _golden_section_rows(pos, neg, a: np.ndarray, b: np.ndarray, w: np.ndarray):
    """``_golden_section`` on every row at once, of the objective
    ``w * pos(t) + (1 - w) * neg(t)`` mixed by ``_mix``: ``pos`` and ``neg``
    are the partials' ``fn`` and ``w`` holds one weight per row.  Each row
    follows the scalar iteration exactly and stops once its own bracket is
    within ``_GOLDEN_TOL``; each step evaluates each partial once, on one
    score per running row.  The state holds the running rows only: it is
    compacted on a step where a row finishes, so every other step works on
    whole arrays, with no gather or scatter, and the weights' invariants
    (``_weights``) are computed once per compaction.  Runs under its
    caller's ``np.errstate`` (``_mix`` needs invalid values silenced)."""
    arg, value = np.empty(len(a)), np.empty(len(a))
    ids = np.arange(len(a))
    weights = _weights(w)
    step = _INV_PHI * (b - a)
    c, d = b - step, a + step
    yc, yd = _mix(weights, pos(c), neg(c)), _mix(weights, pos(d), neg(d))
    while ids.size:
        left = yc < yd
        a, b = np.where(left, a, c), np.where(left, d, b)
        h = b - a
        step = _INV_PHI * h
        # The new score: c for a row that kept its left part, else d.
        t = np.where(left, b - step, a + step)
        c, d = np.where(left, t, d), np.where(left, c, t)
        y = _mix(weights, pos(t), neg(t))
        yc, yd = np.where(left, y, yd), np.where(left, yc, y)
        running = h > _GOLDEN_TOL
        if not running.all():
            done = ids[~running]
            arg[done] = np.where(yc < yd, c, d)[~running]
            value[done] = np.where(yd < yc, yd, yc)[~running]
            a, b, c, d, yc, yd, w, ids = (
                x[running] for x in (a, b, c, d, yc, yd, w, ids)
            )
            weights = _weights(w)
    return arg, value


def brute_force_min(loss: Loss, eta, constraint: str = "none") -> SearchResult:
    """Two-stage minimization of the conditional risk over scores.

    A coarse pass over the log-spaced grid (restricted by the sign
    constraint, coded as in ``_SEARCH``) brackets the best point;
    golden-section refinement then polishes it.  Declared limits at the
    admissible infinities compete with the refined finite minimum.

    The loss keeps its state (``Loss._search_state``): each partial's
    values on the grid, from its first search, and its last float search
    per constraint.  A float search at that posterior and constraint
    returns the kept result, so C*, C^- and the gap at one posterior search
    once each; only timings and partial-loss evaluations show it.  Array
    searches are never remembered.

    ``eta`` is a float, or an ndarray of posteriors searched together by
    ``_search_rows`` (``arg`` and ``value`` are then arrays of its shape).
    Each posterior of an array gets the float search's result: bit for bit
    where the partials give a float score the bits it gets inside an
    array, as the convex family partials do, and else up to rounding.  A
    float search returns Python floats (an infinite
    ``arg`` is ``math.inf``).  On two partials of one family, inside (0, 1),
    its golden section is the family's fused search, which has the risk
    written out in each step; its float arithmetic lives in ``families``
    beside the partials' own and gives their bits mixed.  Any other pair,
    and a family pair's partial alone at eta 0 or 1, runs
    ``_golden_section``, which calls the risk once a step.

    Raises ``DomainError``, naming the posterior, where the risk is NaN at
    the grid argmin or the refined point (a partial of weight 0 is unread).
    """
    code = _SEARCH.get(constraint) if isinstance(constraint, str) else None
    if code is None:
        raise DomainError(f"unknown constraint {constraint!r}")
    _check_eta(eta)
    if isinstance(eta, np.ndarray):
        return _search_rows(loss, eta, np.full(eta.shape, code))[0]
    return _search_float(loss, eta, code)


def _search_float(loss: Loss, eta: float, code: int) -> SearchResult:
    """``brute_force_min``'s search at the float posterior ``eta`` under the
    constraint ``code``, returned from the loss's slot for ``code`` where
    that holds a search at ``eta``.  ``eta`` must lie in [0, 1].

    The golden section runs on Python floats, whose arithmetic is numpy's
    without its per-operation dispatch.  The loss's plan for ``code``
    (``_float_plan``) gives the constraint's columns and limits and, for
    two partials of one family, the family's fused search with both
    partials' c and s, so such a search sets nothing up but the posterior.
    ``_golden_section`` searches the rest: any other pair's risk
    (``_float_risk``), and a family pair's partial alone at eta 0 or 1."""
    eta = float(eta)
    # The loss's last search under this constraint, if at this posterior.
    # -0.0 shares 0.0's slot: their searches are the same, bit for bit.
    slots = loss._search_state[1]
    last = slots[code]
    if last is not None and last[0] == eta:
        return last[1]
    pos_vals, neg_vals, quiet, limits, pair = _float_plan(loss, code)
    if pair is None:
        risk, quiet = _float_risk(loss.pos.fn, loss.neg.fn, eta), False
    else:
        # A family partial gives a float score a Python float and warns on
        # nothing, so alone, at eta 0 or 1, it is the risk itself.
        risk = loss.neg.fn if eta == 0.0 else loss.pos.fn if eta == 1.0 else None
    ts = _GRID_FLOATS[code]
    if quiet:
        grid_t, grid_v, best_t, best_v = _grid_and_golden(eta, pos_vals, neg_vals, ts, risk, pair)
    else:
        # A partial past the float range is +inf, its correctly rounded
        # value, which the search handles, and a NaN risk raises below:
        # numpy's overflow and invalid-value warnings add nothing.
        with np.errstate(over="ignore", invalid="ignore"):
            grid_t, grid_v, best_t, best_v = _grid_and_golden(
                eta, pos_vals, neg_vals, ts, risk, pair
            )
    if grid_v < best_v:
        best_t, best_v = grid_t, grid_v
    elif not best_v <= grid_v:  # one is NaN: argmin picks a NaN wherever the row holds one
        raise DomainError(f"the conditional risk is NaN at eta={eta!r}")

    w = 1.0 - eta
    for t, declared in limits:
        # conditional_risk's arithmetic on the declared limits.
        v = 0.0
        for weight, limit in zip((eta, w), declared):
            if weight != 0.0:
                v += weight * limit
        # Ties go to the limit: it attains the same infimum and marks
        # minimizing sequences that escape to the boundary.
        if v <= best_v:
            best_t, best_v = t, v
    result = SearchResult(arg=best_t, value=best_v)
    slots[code] = eta, result
    return result


#: Each constraint code's admissible scores of ``_GRID`` as Python floats,
#: indexed by the code: the float search's bracket ends and grid points.
_GRID_FLOATS = [_GRID[_START[c] : _STOP[c]].tolist() for c in (0, 1, -1)]
#: A grid table whose values all lie below this in magnitude mixes with no
#: overflow and no invalid value: each term is at most its partial.
_QUIET = sys.float_info.max / 2.0


def _float_plan(loss: Loss, code: int) -> tuple:
    """What a float search under the constraint ``code`` reads of the loss,
    made by its first such search and kept on the loss next to the grid
    tables (``Loss._search_state``): the tables' admissible columns;
    whether they mix quietly (every value finite and under ``_QUIET``, so
    no NaN, infinity or overflow can warn); the admissible infinite scores
    with the partials' declared limits there, in the order they compete;
    and, where both partials are one family's (``_fused``), the pair
    ``(search, c1, s1, c2, s2)``: the family's fused search and the
    positive and negative partials' c and s, else None."""
    plans = loss._search_state[2]
    plan = plans[code]
    if plan is None:
        columns = slice(_START[code], _STOP[code])
        tables = [table[columns] for table in _grid_tables(loss)]
        quiet = all(bool((np.abs(table) < _QUIET).all()) for table in tables)
        admitted = ((-math.inf, code <= 0), (math.inf, code >= 0))
        limits = [(t, _limits(loss, t)) for t, ok in admitted if ok]
        mine, other = _fused(loss.pos.fn), _fused(loss.neg.fn)
        pair = None
        if mine is not None and other is not None and mine[1] is other[1]:
            pair = (mine[1], *mine[2:], *other[2:])
        plan = plans[code] = (*tables, quiet, limits, pair)
    return plan


def _grid_and_golden(eta: float, pos_vals, neg_vals, ts: list, risk, pair):
    """The float search's grid pass over the admissible columns, mixed as
    in ``conditional_risk`` (a partial of weight 0 contributes 0, even
    where it is infinite), and its golden section around the grid argmin:
    ``_golden_section`` on ``risk``, or where that is None, the plan's
    fused search ``pair``.  Returns the grid's best score and risk, and
    the refined ones."""
    if eta == 0.0:
        risks = neg_vals
    elif eta == 1.0:
        risks = pos_vals
    else:
        risks = eta * pos_vals + (1.0 - eta) * neg_vals
    i = int(risks.argmin())
    a, b = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    if risk is None:
        search, c1, s1, c2, s2 = pair
        best_t, best_v = search(eta, c1, s1, c2, s2, a, b)
    else:
        best_t, best_v = _golden_section(risk, a, b)
    return ts[i], risks.item(i), best_t, best_v


def _limits(loss: Loss, t: float) -> list:
    """The partials' declared limits at the infinite score t, NaN where
    undeclared: such a candidate never wins where that partial has nonzero
    weight, as in ``conditional_risk``."""
    name = "limit_pos_inf" if t > 0 else "limit_neg_inf"
    return [math.nan if v is None else v for v in (getattr(loss.pos, name), getattr(loss.neg, name))]


#: Posteriors per block of the grid pass.  A block's risk matrix is at most
#: 32 x 801 doubles (205 kB); 32 rows ran faster than 16, 64 or 128.  The
#: two block matrices are allocated once per search: allocated per block,
#: glibc may hand them back to the OS and fault them in again each time.
_BLOCK_ROWS = 32


# A partial of weight 0 contributes 0 even where it is infinite, which
# ``_mix`` computes as NaN and then replaces, and a NaN risk raises: numpy's
# invalid-value warning, and an overflow past the float range, add nothing.
@np.errstate(over="ignore", invalid="ignore")
def _search_rows(loss: Loss, eta: np.ndarray, *codes: np.ndarray) -> list[SearchResult]:
    """``brute_force_min``'s search on rows of a posterior and a constraint,
    all in one search.  Each array in ``codes``, of ``eta``'s shape, holds
    a constraint code per posterior (``_SEARCH``), and gets one
    ``SearchResult`` of that shape.  Nothing is remembered but the loss's
    grid tables (``_grid_tables``), which the float search shares.

    The grid pass mixes each posterior's risk row once, on the columns its
    constraints admit, and takes each constraint's argmin over its own
    slice of that row.  Then every row refines in one golden section, and
    each row's admissible limits compete: -inf where its code is <= 0,
    +inf where it is >= 0."""
    shape = eta.shape
    eta = eta.astype(float).ravel()
    n, k = len(eta), len(codes)
    code = np.concatenate([np.ravel(c) for c in codes]).astype(np.intp)
    start, stop = _START[code], _STOP[code]
    # Row r searches posterior r % n; each posterior's risk row covers the
    # columns of all its searches.
    first, last = start.reshape(k, n).min(axis=0), stop.reshape(k, n).max(axis=0)
    pos_vals, neg_vals = _grid_tables(loss)
    idx = np.empty(k * n, dtype=np.intp)
    grid_v = np.empty(k * n)
    width = int(last.max() - first.min()) if n else 0
    buffers = np.empty((2, min(n, _BLOCK_ROWS) * width))
    for lo_row in range(0, n, _BLOCK_ROWS):
        block = slice(lo_row, lo_row + _BLOCK_ROWS)
        w = eta[block, None]
        c0, c1 = int(first[block].min()), int(last[block].max())
        out = buffers[:, : len(w) * (c1 - c0)].reshape(2, len(w), c1 - c0)
        risks = _mix(_weights(w), pos_vals[c0:c1], neg_vals[c0:c1], out=out)
        for j in range(k):
            rows = slice(j * n + lo_row, j * n + lo_row + len(w))
            _grid_argmin(risks, c0, code[rows], idx[rows], grid_v[rows])

    row_eta = np.tile(eta, k)
    lo = _GRID[np.maximum(idx - 1, start)]
    hi = _GRID[np.minimum(idx + 1, stop - 1)]
    best_t, best_v = _golden_section_rows(loss.pos.fn, loss.neg.fn, lo, hi, row_eta)
    nan = np.flatnonzero(np.isnan(grid_v) | np.isnan(best_v))
    if nan.size:  # named in the caller's order: row r searches posterior r % n
        raise DomainError(f"the conditional risk is NaN at eta={eta[(nan % n).min()].item()!r}")
    on_grid = grid_v < best_v
    best_t[on_grid], best_v[on_grid] = _GRID[idx[on_grid]], grid_v[on_grid]

    for t, admitted in ((-math.inf, code <= 0), (math.inf, code >= 0)):
        rows = np.flatnonzero(admitted)
        v = _mix(_weights(row_eta[rows]), *_limits(loss, t))
        wins = v <= best_v[rows]
        best_t[rows[wins]], best_v[rows[wins]] = t, v[wins]
    return [
        SearchResult(arg=t.reshape(shape), value=v.reshape(shape))
        for t, v in zip(np.split(best_t, k), np.split(best_v, k))
    ]


#: Posteriors per block of the ceiling's mix: a 256 x 51 block matrix is
#: 104 kB, under glibc's 128 kB mmap threshold, so its two buffers stay on
#: the heap.  One matrix of 1000 rows, 408 kB, is mapped and faulted in
#: afresh on each call.
_CEILING_ROWS = 256


@np.errstate(over="ignore", invalid="ignore")  # as in _search_rows
def _c_star_ceiling(loss: Loss, eta: np.ndarray) -> np.ndarray | None:
    """A ceiling on the C* that ``_search_rows`` returns at each posterior
    of the array ``eta``: the least risk over every 16th column of
    ``_GRID``, the score 0 among them, mixed by the grid pass's own
    arithmetic (``_mix``), so each column's risk is the grid pass's, bit
    for bit.

    It is a ceiling because a row search never returns more than its grid
    minimum: the refined point replaces that only where less, and a limit
    wins only where not more.  A change to the search (a grown window, a
    different refinement) must keep that, or this bound breaks.

    None where a grid table holds a NaN or -inf: a mix could then be NaN,
    and a search that reads it raises, which the full search must report.
    A NaN strictly between grid scores stays unseen here: read only by a
    C* search that the floor this ceiling gives rules out, it is no longer
    read, and no error is raised.

    The mix runs in blocks of ``_CEILING_ROWS`` posteriors, into one pair
    of buffers reused across blocks (as the grid pass's are)."""
    tables = _grid_tables(loss)
    if not all((table > -math.inf).all() for table in tables):
        return None
    pos_vals, neg_vals = (table[::16] for table in tables)
    rows = eta.ravel()
    ceiling = np.empty(rows.shape)
    buffers = np.empty((2, min(len(rows), _CEILING_ROWS), len(pos_vals)))
    for lo in range(0, len(rows), _CEILING_ROWS):
        w = rows[lo : lo + _CEILING_ROWS, None]
        risks = _mix(_weights(w), pos_vals, neg_vals, out=buffers[:, : len(w)])
        risks.min(axis=-1, out=ceiling[lo : lo + len(w)])
    return ceiling.reshape(eta.shape)


def _grid_argmin(risks: np.ndarray, c0: int, code: np.ndarray, idx: np.ndarray, value: np.ndarray):
    """Per row of a block's risk matrix (its columns start at ``c0``), the
    grid index and value of the least risk over the columns its constraint
    code admits; written into ``idx`` and ``value``."""
    mixed = code.min() != code.max()
    for c in (-1, 0, 1) if mixed else code[:1]:
        rows = code == c if mixed else slice(None)
        sub = risks[rows, _START[c] - c0 : _STOP[c] - c0]
        i = np.argmin(sub, axis=1)
        idx[rows] = i + _START[c]
        value[rows] = sub[np.arange(len(sub)), i]


def optimal_conditional_risk(loss: Loss, eta):
    """Infimum of the conditional risk over all scores, limits included.

    Family-tagged losses in a supported configuration dispatch to their
    closed form; everything else runs the brute-force search.  ``eta`` is
    a float or an ndarray of posteriors; an array runs the closed form in
    numpy, or one batched search for all of them (see ``_optima``).
    """
    _check_eta(eta)
    return _optima(loss, None, eta)


def constrained_optimal_risk(loss: Loss, cost: CostParam, eta):
    """Infimum of the conditional risk over scores t with t*(eta-alpha) <= 0.

    At eta == alpha the constraint is vacuous.  For convex calibrated
    losses the value is the conditional risk at 0 (tests cross-check this
    shortcut against the constrained search); otherwise the constrained
    brute-force search runs, including the admissible infinite limit.
    An ndarray ``eta`` is served as in ``optimal_conditional_risk``: what
    no closed form serves, on both sides of alpha and at alpha itself,
    comes from one batched search.
    """
    _check_eta(eta)
    return _optima(loss, cost, eta)


def h_alpha(loss: Loss, cost: CostParam, eta):
    """Calibration gap: constrained minus unconstrained optimal risk.

    At eta == alpha the constraint is vacuous, so the gap is 0 there by
    definition and nothing is evaluated for it.  A negative gap (rounding
    in the searches) reads 0; a NaN one (C^- = C* = inf) raises
    ``DomainError``.  Takes a float or an ndarray of posteriors; on an
    array, whichever of C^- and C* no closed form serves comes from one
    search, which runs both together when neither is closed.
    """
    _check_eta(eta)
    if not isinstance(eta, np.ndarray) and eta == cost.alpha:
        return 0.0
    return _optima(loss, cost, eta, gap=True)


def _gap(c_minus, c_star, eta):
    """C^- - C* clamped at 0 by ``max(h, 0.0)``; a NaN one raises, naming its first posterior."""
    if isinstance(c_minus, np.ndarray):
        with np.errstate(invalid="ignore"):  # inf - inf: raised below
            h = c_minus - c_star
        if not (nan := np.isnan(h)).any():
            return np.where(0.0 > h, 0.0, h)
        eta = eta[nan].flat[0].item()
    elif (h := c_minus - c_star) == h:
        return max(h, 0.0)
    raise DomainError(f"the calibration gap is NaN (C^- and C* infinite) at eta={eta!r}")


def _closed(loss: Loss, cost: CostParam | None, eta):
    """From a closed form: C^-(eta) off alpha for a cost, or C*(eta) for
    ``cost`` None.  A tagged loss asks its spec alone, so no closed form
    evaluates a partial; an untagged one has C^- where the derivative test
    calls it calibrated, the risk at the score 0.  None when the search
    must serve the value."""
    if loss.family is not None:
        return loss.family.c_star(eta) if cost is None else loss.family.c_minus(cost, eta)
    test = None if cost is None else derivative_test(loss, cost)
    if test is None or not test[3]:
        return None
    return eta * loss.pos.value_at_zero + (1.0 - eta) * loss.neg.value_at_zero


def _searched(loss: Loss, eta: np.ndarray, rows, *kinds) -> list:
    """One ``_search_rows`` call on ``eta[rows]``, a column of values per
    kind: sign(alpha - eta) codes for a cost, 0 for None."""
    e = eta[rows]
    codes = (np.zeros(e.shape) if k is None else np.sign(k.alpha - e) for k in kinds)
    return [result.value for result in _search_rows(loss, e, *codes)]


def _gaps(loss: Loss, cost: CostParam, eta: np.ndarray, c_minus, c_star) -> np.ndarray:
    """``h_alpha`` on the array ``eta`` from its closed C^- and C*, each None
    where one row search, of no row at alpha, serves it: 0 at alpha."""
    at = eta == cost.alpha
    if c_minus is not None and c_star is not None:  # np.where: a 0-d eta's gap is a numpy scalar
        return np.where(at, 0.0, _gap(c_minus, c_star, eta))
    off = ~at
    found = _searched(loss, eta, off, *(k for k, v in ((cost, c_minus), (None, c_star)) if v is None))
    c_minus = found.pop(0) if c_minus is None else c_minus[off]
    c_star = found.pop(0) if c_star is None else c_star[off]
    h = np.zeros(eta.shape)
    h[off] = _gap(c_minus, c_star, eta[off])
    return h


def _optima(loss: Loss, cost: CostParam | None, eta, gap: bool = False):
    """The one place that chooses closed form or search.

    Returns C*(eta) for ``cost`` None, and C^-(eta) for a cost, which is
    C* at alpha.  With ``gap``, returns ``h_alpha``: C^- - C* clamped at
    0, and 0 at alpha.

    A float runs one float search for each quantity no closed form
    serves.  An array runs the closed forms on the whole of it; whatever
    they leave comes from one ``_search_rows`` call.  Its constraint code
    per row is the sign every admissible score keeps: sign(alpha - eta)
    for C^-, so 0 (no constraint, C*) at alpha, and 0 for C*.
    """
    if not isinstance(eta, np.ndarray):
        if cost is not None and eta == cost.alpha:
            cost = None
        value = _closed(loss, cost, eta)
        if value is None:
            # The array branch's code, sign(alpha - eta), or 0 for C*.
            code = 0 if cost is None else (-1 if eta > cost.alpha else 1)
            value = _search_float(loss, eta, code).value
        return _gap(value, _optima(loss, None, eta), eta) if gap else value

    if cost is None:
        c_star = _closed(loss, None, eta)
        return _searched(loss, eta, ..., None)[0] if c_star is None else c_star
    c_minus = _closed(loss, cost, eta)
    if gap:
        return _gaps(loss, cost, eta, c_minus, _closed(loss, None, eta))
    at = eta == cost.alpha
    # C^- off alpha and C* at alpha: one search serves the rows of either
    # that no closed form serves, its code 0 at alpha.
    c_star = _closed(loss, None, eta) if at.any() else 0.0
    value = np.where(at, 0.0 if c_star is None else c_star, 0.0 if c_minus is None else c_minus)
    if c_minus is None or c_star is None:
        rows = (~at if c_minus is None else False) | (at if c_star is None else False)
        if rows.any():
            value[rows] = _searched(loss, eta, rows, cost)[0]
    return value


#: Posteriors whose gaps a floored verdict (``_verdict_gaps``) searches
#: first: those of least floor where C^- is closed, and where it is
#: searched, those nearest alpha.  Their gaps set the threshold that rules
#: out the rest.
_FIRST_SEARCHED = 4
#: The most posteriors a floored round searches as float searches, one
#: each, where C^- is closed; a larger round is one row search.  A float
#: gap took 40-80 us and a row search on 4-32 rows 1.6-2.1 ms, so floats
#: were cheaper up to about 48 rows for the hinge and the squared loss and
#: 25 for the exponential (shared 2-core x86-64, Python 3.11, numpy 2.4).
_FLOAT_ROUND = 32
#: Where C^- is searched, the verdict's first search finds it at every
#: ``_CHORD_STEP``-th posterior of each side of alpha, in order of eta, and
#: at both ends of the side: the chords' knots (``_chord_knots``).
_CHORD_STEP = 32
#: The share of the knots' magnitudes taken off a chord of C^-
#: (``_chord_floor``): it covers the rounding of the risks and of the
#: interpolation, a few ulps where no partial is negative, and a knot's
#: search ending above the least risk, its golden section stopping within
#: 1e-10 of a minimizer.  Without it the chords rose above the searched
#: C^- by up to 6.8e-12 relative (untagged hinges at the kink; the four
#: families, gamma 1e-8 to 1e8, beta 1/gamma to 1e3, grids 101 and 1001).
_CHORD_MARGIN = 1e-9


def _chord_knots(etas: np.ndarray, alpha: float) -> np.ndarray:
    """Which posteriors of the 1-D array ``etas`` floor C^- at the rest, as
    a mask: on each side of alpha, in order of eta, every
    ``_CHORD_STEP``-th posterior and the last, so both ends of the side.
    A mask, not ``np.unique``'s indices: ``np.unique`` imports ``numpy.ma``,
    0.6 MB more resident memory in a process that has no other use for it."""
    knot = np.zeros(etas.shape, dtype=bool)
    for side in (etas < alpha, etas > alpha):
        order = np.flatnonzero(side)[np.argsort(etas[side], kind="stable")]
        knot[order[::_CHORD_STEP]] = knot[order[-1:]] = True
    return knot


@np.errstate(over="ignore")  # a sum past the float range is capped, or -inf: it rules nothing out
def _chord_floor(etas: np.ndarray, alpha: float, knot: np.ndarray, c_minus: np.ndarray) -> np.ndarray:
    """A floor on the C^- that ``_search_rows`` returns at each posterior of
    the 1-D array ``etas``, off alpha, from its values in ``c_minus`` at the
    knots, the posteriors of the mask ``knot``, which holds both ends of
    each side (``_chord_knots``): the value itself at a knot; between two
    knots of one side, their chord less ``_CHORD_MARGIN`` of the chord of
    their magnitudes; and -inf on an interval with a knot whose C^- is not
    finite, so that no warning is raised and no floor there rules anything
    out.

    Why it is a floor.  On one side of alpha the search's C^- at eta is one
    risk r(eta, t) = eta * pos(t) + (1 - eta) * neg(t), at a score t of that
    side's half-line or a limit, and r is affine in eta.  At each knot a of
    the side r(a, t) is at least the least risk over every score the search
    can return on the side, so the chord of those least risks lies under
    r(eta, t).  The searched C^- at a knot exceeds that least risk by its
    search's error, and r(eta, t) is itself rounded; the margin covers both.
    So a change to the search must keep each search of C^- within a
    relative 1e-9 of the least risk over the scores and limits it admits on
    its side, or this floor breaks: a grown window (ROADMAP item 3) must
    find its minimum as well at every posterior."""
    floor = np.full(etas.shape, -np.inf)
    finite = knot & np.isfinite(c_minus)
    for side in (etas < alpha, etas > alpha):
        at = np.flatnonzero(side & knot)
        if at.size < 2:  # a side of one posterior is its own knot
            continue
        at = at[np.argsort(etas[at], kind="stable")]
        q = etas[side]
        # The knots' interval [x0, x1] holding each posterior of the side.
        j = np.minimum(np.searchsorted(etas[at], q, side="right"), at.size - 1)
        a, b = at[j - 1], at[j]
        x0, x1 = etas[a], etas[b]
        weight = (q - x0) / np.where(x1 > x0, x1 - x0, 1.0)  # 0 where x1 = x0 = q
        y0, y1 = (np.where(finite[k], c_minus[k], 0.0) for k in (a, b))
        # Never above its larger end, even where the sum rounds past it.
        chord = np.minimum((1.0 - weight) * y0 + weight * y1, np.maximum(y0, y1))
        margin = _CHORD_MARGIN * ((1.0 - weight) * np.abs(y0) + weight * np.abs(y1))
        floor[side] = np.where(finite[a] & finite[b], chord - margin, -np.inf)
    floor[knot] = c_minus[knot]
    return floor


def _verdict_gaps(loss: Loss, cost: CostParam, etas: np.ndarray, tolerance: float) -> np.ndarray:
    """``h_alpha`` at each posterior of the 1-D array ``etas``, none of them
    alpha, that can decide the numeric verdict, and +inf at the rest: every
    gap at or under ``tolerance`` is exact, and so is the first least gap.

    Where C* is closed (``_closed``; the gap is then cheaper than a floor),
    every gap is taken against it by ``_gaps``, as ``h_alpha`` takes it,
    with C^- closed too or from one row search (the weighted gamma = 2
    sigmoid).  Where the search has no ceiling on C* (``_c_star_ceiling``),
    one call searches every gap.
    Otherwise each posterior gets a floor on its gap: the gap's
    arithmetic with a floor on C^- in its place and the ceiling in the
    place of C*.  IEEE subtraction and the clamp are monotone, so each
    floor is at most the gap, bit for bit.  Where C^- is closed, it is its
    own floor.  Where it is searched (a sigmoid, or an untagged convex loss
    the derivative test does not call calibrated), it is floored by its
    chords (``_chord_floor``): C^- is concave on each side of alpha.

    A first round searches ``_FIRST_SEARCHED`` posteriors: where C^- is
    closed, those of least floor; where it is searched, those nearest
    alpha, in the one row search that also finds C^- at the chords' knots
    (``_chord_knots``).  Then, until none is left, every other posterior
    whose floor is not above t = max(least gap found, tolerance) is
    searched.  A posterior never searched has a gap at or above its floor,
    so above t: neither under the tolerance nor least.

    Where C^- is closed, a round of at most ``_FLOAT_ROUND`` posteriors, as
    the first always is, runs one float ``h_alpha`` per posterior.  Any
    other round is one row search: of C* where C^- is closed, its gaps
    taken against the closed C^-, and else of C^- and C* together, with two
    code arrays (a knot's C^- is searched again, to the same bits).  The
    sigmoid's float partial uses libm's ``exp``, so where C^- is searched a
    float search would not give the row search's bits.

    The gaps are those of searching every posterior: rows of a row search
    are independent, and the convex family partials give a float score the
    bits that score gets inside an array, so a float search returns the
    row search's result.  A hand-built partial whose float and array
    results differ agrees only to rounding.  A ``DomainError`` anywhere
    re-runs the search on every posterior, which names the first that
    reads a NaN.  One case differs: a partial that is NaN only strictly
    between two grid scores, read only by searches the floors rule out (of
    C*, or of C^- between knots), is no longer read, so no error is raised.
    A NaN at a grid score leaves no ceiling, so every posterior is searched.
    """
    c_minus, c_star = _closed(loss, cost, etas), _closed(loss, None, etas)
    if c_star is not None:
        return _gaps(loss, cost, etas, c_minus, c_star)
    ceiling = _c_star_ceiling(loss, etas)
    if ceiling is None:
        return h_alpha(loss, cost, etas)
    c_minus_searched = c_minus is None
    alpha = cost.alpha
    gaps = np.full(etas.shape, np.inf)
    left = np.ones(etas.shape, dtype=bool)
    try:
        if c_minus_searched:
            first = np.argsort(np.abs(etas - alpha), kind="stable")[:_FIRST_SEARCHED]
            knot = _chord_knots(etas, alpha)
            knot[first] = True
            knots = np.flatnonzero(knot)
            # One row search: C^- at the knots, then C* at the first posteriors.
            codes = np.concatenate([np.sign(alpha - etas[knots]), np.zeros(first.size)])
            found = _search_rows(loss, np.concatenate([etas[knots], etas[first]]), codes)[0].value
            c_minus = np.zeros(etas.shape)  # read at the knots only
            c_minus[knots] = found[: knots.size]
            gaps[first] = _gap(c_minus[first], found[knots.size :], etas[first])
            left[first] = False
            lower = _chord_floor(etas, alpha, knot, c_minus)
        else:
            lower = c_minus
        with np.errstate(invalid="ignore"):  # a NaN floor rules nothing out
            floor = np.maximum(lower - ceiling, 0.0)
        if c_minus_searched:
            rows = np.flatnonzero(left & ~(floor > max(gaps.min(), tolerance)))
        else:
            rows = np.sort(np.argsort(floor, kind="stable")[:_FIRST_SEARCHED])
        while rows.size:
            e = etas[rows]
            if c_minus_searched:
                minus, star = _search_rows(loss, e, np.sign(alpha - e), np.zeros(rows.size))
                gaps[rows] = _gap(minus.value, star.value, e)
            elif rows.size > _FLOAT_ROUND:
                gaps[rows] = _gap(c_minus[rows], _search_rows(loss, e, np.zeros(rows.size))[0].value, e)
            else:
                gaps[rows] = [h_alpha(loss, cost, eta) for eta in e.tolist()]
            left[rows] = False
            rows = np.flatnonzero(left & ~(floor > max(gaps.min(), tolerance)))
    except DomainError:
        h_alpha(loss, cost, etas)  # names the first posterior that reads a NaN
        raise
    return gaps


def empirical_regrets(
    dist: FiniteDistribution,
    assignment: DecisionAssignment,
    loss: Loss,
    cost: CostParam,
) -> tuple[float, float]:
    """Exact (cost_regret, surrogate_regret) of a score assignment.  A NaN
    score raises ``DomainError`` (through ``cost_regret``)."""
    if len(assignment.scores) != len(dist.atoms):
        raise DomainError("assignment length must match the atom count")
    c_reg = 0.0
    s_reg = 0.0
    for (mass, eta), t in zip(dist.atoms, assignment.scores):
        c_reg += mass * cost_regret(cost, eta, t)
        s_reg += mass * (conditional_risk(loss, eta, t) - optimal_conditional_risk(loss, eta))
    return c_reg, max(s_reg, 0.0)
