"""Calibration verdicts, calibration functions, and regret bounds.

A loss is calibrated at cost asymmetry alpha when the calibration gap is
strictly positive away from the threshold posterior.  For convex partial
losses this reduces to three derivative conditions at the origin;
otherwise a grid scan of the gap gives a numeric (non-proof) verdict.
The calibration functions translate a target cost-regret precision into
the surrogate precision that guarantees it; the regret bound, gated by
the verdict, inverts the envelope of the gap curve.  The seeded fuzz
harness (``fuzz_bound``) tests that bound on random finite
distributions, against their exact regrets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import (
    _MAX_LEN,
    DEFAULT_GRID,
    _grid,
    biconjugate,
    envelope_eval,
    envelope_invert,
    nu_curve,
)
from .errors import DomainError, PreconditionError, VacuousBoundError, _check_int, _check_real
from .families import ALPHA_SIGMOID_GAMMA2, FAMILIES, UnevenMarginSpec, make_uneven_loss
from .losses import DERIVATIVE_TOL, CostParam, Loss, derivative_test
from .oracle import (
    DecisionAssignment,
    FiniteDistribution,
    _verdict_gaps,
    empirical_regrets,
    h_alpha,
)

__all__ = [
    "CalibrationReport",
    "check_calibrated",
    "check_calibrated_analytic",
    "check_calibrated_numeric",
    "calibration_fn",
    "uniform_calibration_fn",
    "regret_bound",
    "BoundTrialRecord",
    "fuzz_bound",
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
    the worst refined point is reported as the witness.  A search that
    reads a NaN risk raises ``DomainError`` before any verdict.

    The report reads two things off the coarse grid: which gaps are at or
    under the tolerance, and the first least gap.  So only the posteriors
    that can decide those are searched (``oracle._verdict_gaps``).  The
    report, and any error raised, are those of searching them all, with
    one exception named there.  A ``DomainError`` in the refinement
    pass first re-runs the search on every coarse posterior, so the error
    names the posterior the full search names.
    """
    _check_int("grid_size", grid_size, 3, _MAX_LEN)
    _check_real("tolerance", tolerance, 0.0, ends="[)")
    alpha = cost.alpha
    radius = 1.0 / (2.0 * grid_size)
    grid = _grid(1.0, grid_size)
    etas = grid[np.abs(grid - alpha) > radius]
    gaps = _verdict_gaps(loss, cost, etas, tolerance)

    witnesses = ()
    bad = etas[gaps <= tolerance]
    if bad.size:
        # One refinement pass; coarse near-zero values may not survive it.
        step = 1.0 / (grid_size - 1)
        near = np.linspace(np.maximum(bad - step, 0.0), np.minimum(bad + step, 1.0), 21, axis=1)
        near = near[np.abs(near - alpha) > radius / 10.0]
        try:
            refined = h_alpha(loss, cost, near)
        except DomainError:
            # The full search reads every coarse posterior first, and
            # raises at the first that reads a NaN, if any does.
            h_alpha(loss, cost, etas)
            raise
        low = refined <= tolerance
        near, refined = near[low], refined[low]
        order = np.argsort(refined, kind="stable")
        witnesses = tuple(zip(near[order].tolist(), refined[order].tolist()))
    verdict = "not_calibrated" if witnesses else "calibrated"
    if not witnesses:
        i = int(gaps.argmin())  # the first least gap
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
    _check_real("eps", eps, 0.0, ends="(]")
    _check_real("eta", eta, 0.0, 1.0)
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
    _check_int("grid_size", grid_size, 3, _MAX_LEN)
    _check_real("eps", eps, 0.0, ends="(]")
    if eps > cost.b_max:
        return math.inf
    nu = nu_curve(loss, cost, grid_size, extra_knots=(eps,))
    tail = nu.values[nu.eps >= eps]
    return tail[tail.argmin()].item()


def regret_bound(
    loss: Loss, cost: CostParam, surrogate_regret: float, grid_size: int = DEFAULT_GRID
) -> float:
    """Upper bound on the cost-sensitive regret given a surrogate regret.

    Raises VacuousBoundError when the loss is not calibrated at this
    cost parameter (the transfer function is then not invertible).
    """
    _check_real("surrogate_regret", surrogate_regret, 0.0, ends="[)")
    _check_int("grid_size", grid_size, 3, _MAX_LEN)
    if check_calibrated(loss, cost).verdict != "calibrated":
        raise VacuousBoundError(
            f"loss is not calibrated at alpha={cost.alpha}; the bound is vacuous"
        )
    env = biconjugate(nu_curve(loss, cost, grid_size))
    return envelope_invert(env, surrogate_regret)


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
    # Per atom, one draw picks -inf, +inf or a finite score, which takes the
    # next draw d as -3 + 6 d (the value rng.uniform(-3.0, 3.0) returns).
    # Draws left unread change nothing: the generator is this trial's own.
    draws = iter(rng.random(2 * n_atoms).tolist())
    scores = []
    for _ in range(n_atoms):
        u = next(draws)
        if u < 0.05:
            scores.append(-math.inf)
        elif u < 0.10:
            scores.append(math.inf)
        else:
            scores.append(-3.0 + 6.0 * next(draws))
    dist = FiniteDistribution(tuple(zip(masses.tolist(), etas.tolist())))
    return spec, alpha, gamma, dist, DecisionAssignment(tuple(scores))


def fuzz_bound(
    seed: int, family: str, n_trials: int, grid_size: int = 201
) -> list[BoundTrialRecord]:
    """Seeded random trials of the surrogate regret bound.

    Each trial draws a calibrated family configuration, a finite
    distribution, and scores (with occasional infinities), then checks
    psi(cost_regret) <= surrogate_regret + 1e-8.  The trial's derived
    seed is recorded; trials are independent streams, ordered by index.

    A trial draws, in order: gamma and alpha (not for the sigmoid, which
    pins both), the atom count n, the n masses, the n posteriors, then one
    block of 2n uniforms read in order: per atom, one draw picks -inf,
    +inf or a finite score, which takes the next draw.
    """
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    _check_int("seed", seed, 0, ends="[)")
    _check_int("n_trials", n_trials, 1, ends="[)")
    _check_int("grid_size", grid_size, 3, _MAX_LEN)
    seed = int(seed)  # a numpy integer would overflow in the trial seeds

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
