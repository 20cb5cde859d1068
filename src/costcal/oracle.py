"""Independent brute-force verification utilities.

Grid + golden-section minimization of conditional risks, central
finite differences, exact risk/regret evaluation on finite discrete
distributions, and the seeded regret-bound fuzz harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import biconjugate, envelope_eval, nu_curve
from .errors import DomainError, UnsupportedLimitError
from .families import ALPHA_SIGMOID_GAMMA2, FAMILIES, UnevenMarginSpec, make_uneven_loss
from .losses import (
    CostParam,
    Loss,
    PartialLoss,
    _check_eta,
    conditional_risk,
    cost_regret,
    optimal_conditional_risk,
)

__all__ = [
    "FiniteDistribution",
    "DecisionAssignment",
    "BoundTrialRecord",
    "SearchResult",
    "brute_force_min",
    "finite_diff_check",
    "empirical_regrets",
    "fuzz_bound",
]

# Coarse search grid: symmetric log-spaced scores plus the origin.
_HALF_GRID = np.logspace(-6.0, math.log10(50.0), 400)
_GRID = np.concatenate([-_HALF_GRID[::-1], [0.0], _HALF_GRID])

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Per constraint: the admissible grid scores, and the admissible infinite
#: scores in the order they compete.
_SEARCH = {
    "none": (_GRID, (-math.inf, math.inf)),
    "nonpositive_scores": (_GRID[_GRID <= 0.0], (-math.inf,)),
    "nonnegative_scores": (_GRID[_GRID >= 0.0], (math.inf,)),
}


@dataclass(frozen=True)
class FiniteDistribution:
    """Discrete marginal over the posterior: atoms of (mass, eta)."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise DomainError("distribution needs at least one atom")
        total = 0.0
        for mass, eta in self.atoms:
            if mass <= 0.0:
                raise DomainError(f"masses must be positive, got {mass}")
            if not 0.0 <= eta <= 1.0:
                raise DomainError(f"eta must lie in [0, 1], got {eta}")
            total += mass
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"masses must sum to 1, got {total}")


@dataclass(frozen=True)
class DecisionAssignment:
    """One score per atom of a FiniteDistribution."""

    scores: tuple[float, ...]


@dataclass(frozen=True)
class BoundTrialRecord:
    seed: int
    family: str
    alpha: float
    gamma: float
    cost_regret: float
    surrogate_regret: float
    psi_value: float
    passed: bool


class SearchResult(NamedTuple):
    arg: float
    value: float


def _mix(w: np.ndarray, pos, neg, out=None) -> np.ndarray:
    """w * pos + (1 - w) * neg, broadcast, where a partial of weight 0
    contributes 0 even where it is infinite (as in ``conditional_risk``).

    ``out`` is an optional pair of arrays of the result's shape: the result
    is written to the first, the second holds the (1 - w) * neg term."""
    risks, term = (None, None) if out is None else out
    with np.errstate(invalid="ignore"):
        risks = np.multiply(w, pos, out=risks)
        risks += np.multiply(1.0 - w, neg, out=term)
    zero, one = w == 0.0, w == 1.0
    if zero.any() or one.any():
        np.copyto(risks, neg, where=zero)
        np.copyto(risks, pos, where=one)
    return risks


def _golden_section(f, a: float, b: float, tol: float = 1e-10):
    """Minimize a unimodal f on [a, b]; returns (arg, value)."""
    h = b - a
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    yc, yd = f(c), f(d)
    while h > tol:
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = b - _INV_PHI * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INV_PHI * h
            yd = f(d)
    x = c if yc < yd else d
    return x, min(yc, yd)


def _golden_section_rows(f, a: np.ndarray, b: np.ndarray, tol: float = 1e-10):
    """``_golden_section`` on every row at once; ``f(rows, t)`` evaluates the
    rows' objectives at one score each.  Each row follows the scalar
    iteration exactly and stops at its own ``tol``."""
    a, b = a.copy(), b.copy()
    h = b - a
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    rows = np.arange(len(a))
    yc, yd = f(rows, c), f(rows, d)
    while rows.size:
        left = yc[rows] < yd[rows]
        lo, hi = np.where(left, a[rows], c[rows]), np.where(left, d[rows], b[rows])
        hr = hi - lo
        mid = np.where(left, c[rows], d[rows])
        new_c = np.where(left, hi - _INV_PHI * hr, mid)
        new_d = np.where(left, mid, lo + _INV_PHI * hr)
        kept = np.where(left, yc[rows], yd[rows])
        y_new = f(rows, np.where(left, new_c, new_d))
        a[rows], b[rows], c[rows], d[rows] = lo, hi, new_c, new_d
        yc[rows] = np.where(left, y_new, kept)
        yd[rows] = np.where(left, kept, y_new)
        rows = rows[hr > tol]
    return np.where(yc < yd, c, d), np.where(yd < yc, yd, yc)


# A partial past the float range is +inf, its correctly rounded value, which
# the search handles; numpy's overflow warning adds nothing.
@np.errstate(over="ignore")
def brute_force_min(loss: Loss, eta, constraint: str = "none") -> SearchResult:
    """Two-stage minimization of the conditional risk over scores.

    A coarse pass over the log-spaced grid (restricted by the sign
    constraint) brackets the best point; golden-section refinement then
    polishes it.  Declared limits at the admissible infinities compete
    with the refined finite minimum.

    ``eta`` is a float, or an ndarray of posteriors searched together
    (``arg`` and ``value`` are then arrays of its shape).  Each posterior
    of an array gets the same result as the float search, up to rounding.
    """
    if constraint not in _SEARCH:
        raise DomainError(f"unknown constraint {constraint!r}")
    ts, limits = _SEARCH[constraint]
    _check_eta(eta)
    if isinstance(eta, np.ndarray):
        return _brute_force_rows(loss, eta, ts, limits)

    pos_vals, neg_vals = loss.pos.fn(ts), loss.neg.fn(ts)
    # A partial of weight 0 contributes 0, even where it is infinite.
    if eta == 0.0:
        risks = neg_vals
    elif eta == 1.0:
        risks = pos_vals
    else:
        risks = eta * pos_vals + (1.0 - eta) * neg_vals
    i = int(np.argmin(risks))

    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, len(ts) - 1)]
    best_t, best_v = _golden_section(lambda t: conditional_risk(loss, eta, t), lo, hi)
    if risks[i] < best_v:
        best_t, best_v = float(ts[i]), float(risks[i])

    for t in limits:
        try:
            v = conditional_risk(loss, eta, t)
        except UnsupportedLimitError:
            continue
        # Ties go to the limit: it attains the same infimum and marks
        # minimizing sequences that escape to the boundary.
        if v <= best_v:
            best_t, best_v = t, v
    return SearchResult(arg=best_t, value=best_v)


#: Posterior rows per block of the grid pass.  A block's risk matrix is
#: 32 x 801 doubles (205 kB); 32 rows ran faster than 16, 64 or 128.  The
#: two block matrices are allocated once per search: allocated per block,
#: glibc may hand them back to the OS and fault them in again each time.
_BLOCK_ROWS = 32


def _brute_force_rows(loss: Loss, eta: np.ndarray, ts: np.ndarray, limits) -> SearchResult:
    """The float search of ``brute_force_min``, on every posterior at once."""
    shape = eta.shape
    eta = eta.astype(float).ravel()
    pos_vals, neg_vals = loss.pos.fn(ts), loss.neg.fn(ts)
    n = len(eta)
    idx = np.empty(n, dtype=np.intp)
    grid_v = np.empty(n)
    buffers = np.empty((2, min(n, _BLOCK_ROWS), len(ts)))
    for start in range(0, n, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        w = eta[block, None]
        risks = _mix(w, pos_vals, neg_vals, out=buffers[:, : len(w)])
        idx[block] = np.argmin(risks, axis=1)
        grid_v[block] = risks[np.arange(len(risks)), idx[block]]

    def risk_at(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        return _mix(eta[rows], loss.pos.fn(t), loss.neg.fn(t))

    lo = ts[np.maximum(idx - 1, 0)]
    hi = ts[np.minimum(idx + 1, len(ts) - 1)]
    best_t, best_v = _golden_section_rows(risk_at, lo, hi)
    on_grid = grid_v < best_v
    best_t[on_grid], best_v[on_grid] = ts[idx[on_grid]], grid_v[on_grid]

    for t in limits:
        lim_pos = loss.pos.limit_pos_inf if t > 0 else loss.pos.limit_neg_inf
        lim_neg = loss.neg.limit_pos_inf if t > 0 else loss.neg.limit_neg_inf
        # A missing limit is NaN, which rules the candidate out only where
        # its partial has nonzero weight, as in conditional_risk.
        v = _mix(
            eta, np.nan if lim_pos is None else lim_pos, np.nan if lim_neg is None else lim_neg
        )
        wins = v <= best_v
        best_t[wins], best_v[wins] = t, v[wins]
    return SearchResult(arg=best_t.reshape(shape), value=best_v.reshape(shape))


def finite_diff_check(partial: PartialLoss, t: float, h: float = 1e-6) -> float:
    """Central difference (p(t+h) - p(t-h)) / (2h)."""
    return (float(partial.fn(t + h)) - float(partial.fn(t - h))) / (2.0 * h)


def empirical_regrets(
    dist: FiniteDistribution,
    assignment: DecisionAssignment,
    loss: Loss,
    cost: CostParam,
) -> tuple[float, float]:
    """Exact (cost_regret, surrogate_regret) of a score assignment."""
    if len(assignment.scores) != len(dist.atoms):
        raise DomainError("assignment length must match the atom count")
    c_reg = 0.0
    s_reg = 0.0
    for (mass, eta), t in zip(dist.atoms, assignment.scores):
        c_reg += mass * cost_regret(cost, eta, t)
        s_reg += mass * (conditional_risk(loss, eta, t) - optimal_conditional_risk(loss, eta))
    return c_reg, max(s_reg, 0.0)


def _random_trial_inputs(rng: np.random.Generator, family: str):
    if family == "sigmoid":
        gamma = 2.0
        alpha = ALPHA_SIGMOID_GAMMA2
        spec = UnevenMarginSpec("sigmoid", beta=0.5, gamma=2.0)
    else:
        gamma = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        alpha = rng.uniform(0.1, 0.9)
        spec = UnevenMarginSpec(family, beta=1.0 / gamma, gamma=gamma, alpha_weight=alpha)
    n_atoms = int(rng.integers(1, 21))
    masses = rng.dirichlet(np.ones(n_atoms))
    etas = rng.uniform(0.0, 1.0, n_atoms)
    scores = []
    for _ in range(n_atoms):
        u = rng.uniform()
        if u < 0.05:
            scores.append(-math.inf)
        elif u < 0.10:
            scores.append(math.inf)
        else:
            scores.append(float(rng.uniform(-3.0, 3.0)))
    dist = FiniteDistribution(tuple((float(m), float(e)) for m, e in zip(masses, etas)))
    return spec, alpha, gamma, dist, DecisionAssignment(tuple(scores))


def fuzz_bound(
    seed: int, family: str, n_trials: int, grid_size: int = 201
) -> list[BoundTrialRecord]:
    """Seeded random trials of the surrogate regret bound.

    Each trial draws a calibrated family configuration, a finite
    distribution, and scores (with occasional infinities), then checks
    psi(cost_regret) <= surrogate_regret + 1e-8.  The trial's derived
    seed is recorded; trials are independent streams, ordered by index.
    """
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    if n_trials <= 0:
        raise DomainError("n_trials must be positive")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")

    records = []
    for i in range(n_trials):
        trial_seed = seed * 1_000_000 + i
        rng = np.random.default_rng(trial_seed)
        spec, alpha, gamma, dist, assignment = _random_trial_inputs(rng, family)
        loss = make_uneven_loss(spec)
        cost = CostParam(alpha)
        c_reg, s_reg = empirical_regrets(dist, assignment, loss, cost)
        extra = tuple(abs(eta - alpha) for _, eta in dist.atoms) + (c_reg,)
        env = biconjugate(nu_curve(loss, cost, grid_size, extra_knots=extra))
        psi_value = envelope_eval(env, c_reg)
        records.append(
            BoundTrialRecord(
                seed=trial_seed,
                family=family,
                alpha=alpha,
                gamma=gamma,
                cost_regret=c_reg,
                surrogate_regret=s_reg,
                psi_value=psi_value,
                passed=psi_value <= s_reg + 1e-8,
            )
        )
    return records
