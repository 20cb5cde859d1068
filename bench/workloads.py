"""The benchmark's workloads: seeded cycles of tasks, each with its checks.

A task is one user-level request (a verdict, a bound, a curve, a row of
conditional risks, one fuzz trial).  It runs its request, calls the
library the way a user would, and raises ``CheckFailed`` when an output
disagrees with its reference at the acceptance suite's tolerances.

Each workload is a closed loop with one caller: the next task starts
when the previous one returns.  A cycle holds a fixed mix of task kinds;
only the loss parameters and posteriors are drawn from the seed, so runs
with different seeds do the same kinds of work in the same proportions.
Families rotate from cycle to cycle instead of being drawn.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from costcal import (
    ALPHA_SIGMOID_GAMMA2,
    CostParam,
    DecisionAssignment,
    FiniteDistribution,
    UnevenMarginSpec,
    VacuousBoundError,
    alpha_of_gamma,
    biconjugate,
    check_calibrated_analytic,
    check_calibrated_numeric,
    closed_forms,
    constrained_optimal_risk,
    empirical_regrets,
    envelope_eval,
    envelope_invert,
    fuzz_bound,
    h_alpha,
    make_uneven_loss,
    mu_curve,
    nu_curve,
    optimal_conditional_risk,
    regret_bound,
    sigmoid_c_minus,
    theta_alpha,
    uniform_calibration_fn,
)
from costcal.cli import main as cli_main
from costcal.losses import conditional_risk, cost_regret
from costcal.oracle import brute_force_min

CONVEX = ("hinge", "squared", "exponential")
FAMILIES = CONVEX + ("sigmoid",)

#: Posterior grid of the rows and sweeps; eta = 0 and eta = 1 included.
POSTERIORS = np.linspace(0.0, 1.0, 21)
#: Closed form vs oracle (acceptance criterion 3).
ORACLE_TOL = 1e-6
#: Reweighting identity and closed-form gaps (acceptance criterion 4).
IDENTITY_TOL = 1e-10

CURVE_GRID = 2001  # the library's default grid, used by `bound` and `check`
ORACLE_GRID = 101
FUZZ_GRID = 201
ALPHA_GAMMA_POINTS = 33


class CheckFailed(Exception):
    """An output disagreed with its reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Task(NamedTuple):
    kind: str
    run: Callable[["Context"], None]
    what: str  # the inputs, for failure reports


class Config(NamedTuple):
    spec: UnevenMarginSpec
    alpha: float

    @property
    def cost(self) -> CostParam:
        return CostParam(self.alpha)

    def flags(self) -> list[str]:
        flags = ["--family", self.spec.family, "--gamma", repr(self.spec.gamma)]
        flags += ["--alpha", repr(self.alpha)]
        return flags + (["--weighted"] if self.spec.alpha_weight is not None else [])

    def describe(self) -> str:
        s = self.spec
        weight = "" if s.alpha_weight is None else " weighted"
        return f"{s.family} gamma={s.gamma!r} alpha={self.alpha!r}{weight}"


class GapStats:
    """Negative constrained-minus-optimal gaps that ``h_alpha`` clamps to 0."""

    def __init__(self) -> None:
        self.count = 0
        self.worst = 0.0

    def add(self, gap: float) -> None:
        if gap < 0.0:
            self.count += 1
            self.worst = max(self.worst, -gap)


class Context:
    """What a task needs: the tracer, a work directory, and a loss factory."""

    def __init__(self, tracer, workdir: Path, instrument=None) -> None:
        self.tr = tracer
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.gaps = GapStats()
        self._instrument = instrument

    def loss(self, spec: UnevenMarginSpec, tagged: bool = True):
        loss = make_uneven_loss(spec)
        if not tagged:
            loss = dataclasses.replace(loss, family=None)
        return loss if self._instrument is None else self._instrument(loss)


# --- sampling ---------------------------------------------------------------


#: gamma and alpha are stratified over rounds of this many cycles.
STRATA = 3


def _log_gamma(u: float) -> float:
    """log-uniform on [0.25, 4], the range of ``fuzz_bound``, for u in [0, 1)."""
    return 0.25 * 16.0**u


class Draws:
    """The seed's random inputs, with gamma and alpha stratified by cycle.

    Each round of STRATA cycles draws gamma and alpha from every third of
    their ranges once, in random order.  The distributions are unchanged,
    but each run holds a balanced mix of small and large values, so runs
    with different seeds do the same amount of work.
    """

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self._order = np.arange(STRATA)
        self._stratum = 0

    def start_cycle(self, i: int) -> None:
        if i % STRATA == 0:
            self._order = self.rng.permutation(STRATA)
        self._stratum = int(self._order[i % STRATA])

    def _u(self) -> float:
        return (self._stratum + self.rng.uniform()) / STRATA

    def gamma(self) -> float:
        return _log_gamma(self._u())

    def alpha(self) -> float:
        """uniform on (0.1, 0.9), the range of ``fuzz_bound``."""
        return 0.1 + 0.8 * self._u()


def _weighted(draws: Draws, family: str) -> Config:
    gamma, alpha = draws.gamma(), draws.alpha()
    return Config(UnevenMarginSpec(family, 1.0 / gamma, gamma, alpha_weight=alpha), alpha)


def _unweighted(draws: Draws, family: str, alpha: float = 0.5) -> Config:
    gamma = draws.gamma()
    return Config(UnevenMarginSpec(family, 1.0 / gamma, gamma), alpha)


SIGMOID2 = Config(UnevenMarginSpec("sigmoid", 0.5, 2.0), ALPHA_SIGMOID_GAMMA2)


def _sigmoid_at_alpha_of_gamma(draws: Draws) -> Config:
    gamma = draws.gamma()
    return Config(UnevenMarginSpec("sigmoid", 1.0 / gamma, gamma), alpha_of_gamma(gamma))


# --- shared checks ----------------------------------------------------------


def _is_convex(loss) -> bool:
    p, n = loss.pos, loss.neg
    return p.is_convex and n.is_convex and None not in (p.deriv_at_zero, n.deriv_at_zero)


def verdict(ctx: Context, loss, cost: CostParam):
    """The verdict a user gets: analytic for convex partials, else numeric."""
    if _is_convex(loss):
        return ctx.tr.call("calibration.analytic", check_calibrated_analytic, loss, cost)
    return ctx.tr.call("calibration.numeric", check_calibrated_numeric, loss, cost)


def psi_is_valid(env) -> bool:
    """psi is 0 at 0, nondecreasing, and convex (slopes nondecreasing)."""
    knots = env.hull_knots
    if knots[0] != (0.0, 0.0):
        return False
    slopes = [(y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2) in zip(knots, knots[1:])]
    if any(s < 0.0 for s in slopes):
        return False
    return all(b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(slopes, slopes[1:]))


def closed_gap(tr, cfg: Config, eta: float) -> float:
    """H_alpha(eta) from the closed forms of the unweighted family member."""
    spec, cost = cfg.spec, cfg.cost
    if spec.family == "sigmoid":
        c_star = tr.call("families.closed_forms", closed_forms, spec, eta).c_star
        return max(sigmoid_c_minus(cost, eta) - c_star, 0.0)
    if spec.alpha_weight is None:
        return tr.call("families.closed_forms", closed_forms, spec, eta).h_cc
    theta, w = theta_alpha(cost, eta)
    base = dataclasses.replace(spec, alpha_weight=None)
    return w * tr.call("families.closed_forms", closed_forms, base, theta).h_cc


def closed_nu(tr, cfg: Config, eps: float) -> float:
    """nu(eps): the smallest closed-form gap at distance eps from alpha."""
    a = cfg.alpha
    return min(closed_gap(tr, cfg, eta) for eta in (a - eps, a + eps) if 0.0 <= eta <= 1.0)


# --- the CLI, in process ----------------------------------------------------


def cli(ctx: Context, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ctx.tr.call("cli.main", cli_main, argv)
    return code, out.getvalue()


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


# --- closed_form ------------------------------------------------------------


def _check_task(cfg: Config, expected: str) -> Task:
    def run(ctx: Context) -> None:
        code, out = cli(ctx, ["check", *cfg.flags()])
        loss = ctx.loss(cfg.spec)
        with ctx.tr.span("lib.pair"):
            report = verdict(ctx, loss, cfg.cost)
        expect(code == (0 if expected == "calibrated" else 3), f"check exit code {code}")
        expect(report.verdict == expected, f"verdict {report.verdict}, expected {expected}")
        library = json.loads(json.dumps(dataclasses.asdict(report)))
        expect(json.loads(out) == library, "CLI check JSON differs from the library")

    return Task("check", run, cfg.describe())


def _bound_task(cfg: Config, regret: float, calibrated: bool) -> Task:
    def run(ctx: Context) -> None:
        code, out = cli(ctx, ["bound", *cfg.flags(), "--surrogate-regret", repr(regret)])
        loss, cost = ctx.loss(cfg.spec), cfg.cost
        bound = None
        with ctx.tr.span("lib.pair"):
            try:
                bound = ctx.tr.call("curves.regret_bound", regret_bound, loss, cost, regret)
            except VacuousBoundError:
                pass
        report = verdict(ctx, loss, cost)
        calibrated_verdict = report.verdict == "calibrated"
        expect(calibrated_verdict == (bound is not None), "bound and verdict disagree")
        if calibrated:
            expect(code == 0, f"bound exit code {code}")
            expect(bound is not None, "library bound is vacuous")
            expect(json.loads(out) == {"bound": bound}, "CLI bound JSON differs from regret_bound")
            expect(0.0 < bound <= cost.b_max, f"bound {bound} outside (0, B]")
        else:
            expect(code == 3, f"bound exit code {code}, expected 3")
            expect(bound is None, "bound on an uncalibrated loss is not vacuous")
            expect("error" in json.loads(out), "CLI vacuous bound has no error")

    return Task("bound", run, f"{cfg.describe()} s={regret!r}")


def _curve_task(cfg: Config, rng) -> Task:
    k_eps = int(rng.integers(1, CURVE_GRID))
    regret = float(10.0 ** rng.uniform(-4.0, -1.0))
    picks = rng.integers(1, CURVE_GRID, 8)

    def run(ctx: Context) -> None:
        tr, cost = ctx.tr, cfg.cost
        path = ctx.workdir / "curve.csv"
        argv = ["curve", *cfg.flags(), "--quantities", "nu,mu,psi"]
        code, _ = cli(ctx, argv + ["--grid", str(CURVE_GRID), "--output", str(path)])
        loss = ctx.loss(cfg.spec)
        with tr.span("lib.pair"):
            nu = tr.call("curves.nu_curve", nu_curve, loss, cost, CURVE_GRID)
            mu = tr.call("calibration.mu_curve", mu_curve, nu)
            env = tr.call("curves.biconjugate", biconjugate, nu)
        tr.tally("curves.nu_knots", len(nu.knots))
        tr.tally("curves.hull_knots", len(env.hull_knots))
        expect(code == 0, f"curve exit code {code}")
        library = [("mu", k.eps, k.value, k.side) for k in mu.knots]
        library += [("nu", k.eps, k.value, k.side) for k in nu.knots]
        library += [("psi", x, v, "both") for x, v in env.hull_knots]
        rows = [(q, float(x), float(v), side) for x, q, v, side in _read_csv(path)]
        expect(rows == library, "CLI curve CSV differs from nu_curve/mu_curve/biconjugate")
        expect(psi_is_valid(env), "psi is not convex, nondecreasing and 0 at 0")
        for i in picks:
            knot = nu.knots[int(i)]
            if knot.side == "both":
                ref = closed_nu(tr, cfg, knot.eps)
                expect(abs(knot.value - ref) <= IDENTITY_TOL, f"nu({knot.eps}) off closed form")
        eps = float(np.linspace(0.0, cost.b_max, CURVE_GRID)[k_eps])
        u = tr.call("calibration.uniform_fn", uniform_calibration_fn, loss, cost, eps)
        expect(u == min(k.value for k in mu.knots if k.eps == eps), "uniform fn differs from mu")
        expect(u >= tr.call("curves.envelope_eval", envelope_eval, env, eps) - 1e-12, "mu < psi")
        x = tr.call("curves.envelope_invert", envelope_invert, env, regret)
        if x < env.domain_max:
            y = tr.call("curves.envelope_eval", envelope_eval, env, x)
            expect(abs(y - regret) <= 1e-12 + 1e-9 * regret, "psi(psi^-1(s)) != s")

    return Task("curve", run, cfg.describe())


def _alpha_gamma_task(rng) -> Task:
    lo, hi = sorted(_log_gamma(rng.uniform()) for _ in range(2))

    def run(ctx: Context) -> None:
        path = ctx.workdir / "alpha_gamma.csv"
        argv = ["alpha-gamma", "--gamma-min", repr(lo), "--gamma-max", repr(hi)]
        code, _ = cli(ctx, argv + ["--points", str(ALPHA_GAMMA_POINTS), "--output", str(path)])
        rows = [(float(g), float(a)) for g, _, a in _read_csv(path)]
        with ctx.tr.span("lib.pair"):
            alphas = [ctx.tr.call("families.alpha_of_gamma", alpha_of_gamma, g) for g, _ in rows]
        expect(code == 0, f"alpha-gamma exit code {code}")
        expect([a for _, a in rows] == alphas, "CLI alpha-gamma differs from alpha_of_gamma")
        expect(all(b <= a + 1e-12 for a, b in zip(alphas, alphas[1:])), "alpha(gamma) increases")

    return Task("alpha-gamma", run, f"gamma in [{lo!r}, {hi!r}]")


def closed_form_cycle(draws: Draws, i: int) -> list[Task]:
    """README requests on configurations the closed forms serve."""
    rng = draws.rng
    weighted = _weighted(draws, CONVEX[i % 3])
    half = _unweighted(draws, CONVEX[(i + 1) % 3])
    negative = _unweighted(draws, CONVEX[(i + 2) % 3], alpha=draws.alpha())

    def regret():
        return float(10.0 ** rng.uniform(-4.0, -1.0))

    return [
        _check_task(weighted, "calibrated"),
        _bound_task(weighted, regret(), True),
        _curve_task(weighted, rng),
        _check_task(half, "calibrated"),
        _bound_task(half, regret(), True),
        _curve_task(half, rng),
        _check_task(SIGMOID2, "calibrated"),
        _bound_task(SIGMOID2, regret(), True),
        _check_task(negative, "not_calibrated"),
        _bound_task(negative, regret(), False),
        _alpha_gamma_task(rng),
    ]


# --- oracle -----------------------------------------------------------------


def _numeric_verdict_task(cfg: Config) -> Task:
    def run(ctx: Context) -> None:
        loss, cost = ctx.loss(cfg.spec, tagged=False), cfg.cost
        report = ctx.tr.call("calibration.numeric", check_calibrated_numeric, loss, cost)
        expect(report.verdict == "calibrated", f"numeric verdict {report.verdict}")
        if _is_convex(loss):
            analytic = ctx.tr.call("calibration.analytic", check_calibrated_analytic, loss, cost)
            expect(analytic.verdict == report.verdict, "numeric and analytic verdicts differ")

    return Task("numeric-verdict", run, cfg.describe())


def _row_task(cfg: Config, etas: np.ndarray) -> Task:
    closed = cfg.spec.family != "sigmoid" or cfg.spec.gamma == 2.0

    def run(ctx: Context) -> None:
        tr, cost = ctx.tr, cfg.cost
        loss = ctx.loss(cfg.spec, tagged=False)
        tagged = ctx.loss(cfg.spec) if closed else None
        for eta in etas:
            eta = float(eta)
            c_star = tr.call("losses.c_star_oracle", optimal_conditional_risk, loss, eta)
            c_minus = tr.call("losses.c_minus_oracle", constrained_optimal_risk, loss, cost, eta)
            h = tr.call("losses.h_alpha_oracle", h_alpha, loss, cost, eta)
            ctx.gaps.add(c_minus - c_star)
            expect(h == max(c_minus - c_star, 0.0), f"h_alpha({eta}) is not C^- - C*")
            if closed:
                refs = (
                    tr.call("losses.c_star_closed", optimal_conditional_risk, tagged, eta),
                    tr.call("losses.c_minus_closed", constrained_optimal_risk, tagged, cost, eta),
                    tr.call("losses.h_alpha_closed", h_alpha, tagged, cost, eta),
                )
                for name, got, ref in zip(("C*", "C^-", "H"), (c_star, c_minus, h), refs):
                    expect(abs(got - ref) <= ORACLE_TOL, f"oracle {name}({eta}) off closed form")
            else:
                at_zero = tr.call("losses.conditional_risk", conditional_risk, loss, eta, 0.0)
                expect(0.0 <= c_star <= at_zero + 1e-12, f"C*({eta}) above C(eta, 0)")
                expect(c_minus <= at_zero + 1e-12, f"C^-({eta}) above C(eta, 0)")
                if abs(eta - cfg.alpha) >= 0.01:
                    expect(h > 0.0, f"zero gap at eta={eta} for a calibrated loss")

    return Task("row", run, cfg.describe())


def _oracle_bound_task(cfg: Config, regret: float) -> Task:
    def run(ctx: Context) -> None:
        tr, cost = ctx.tr, cfg.cost
        loss = ctx.loss(cfg.spec, tagged=False)
        bound = tr.call("curves.regret_bound", regret_bound, loss, cost, regret, ORACLE_GRID)
        verdict(ctx, loss, cost)
        tagged = ctx.loss(cfg.spec)
        env = tr.call("curves.biconjugate", biconjugate, nu_curve(tagged, cost, ORACLE_GRID))
        reference = tr.call("curves.envelope_invert", envelope_invert, env, regret)
        psi = tr.call("curves.envelope_eval", envelope_eval, env, bound)
        # Closed and oracle gaps differ by at most ORACLE_TOL, and so do their hulls.
        if bound < cost.b_max and reference < cost.b_max:
            expect(abs(psi - regret) <= ORACLE_TOL, f"oracle bound {bound} vs closed {reference}")
        else:
            expect(psi <= regret + ORACLE_TOL, f"oracle bound {bound} vs closed {reference}")

    return Task("oracle-bound", run, f"{cfg.describe()} s={regret!r}")


def _oracle_nu_task(cfg: Config) -> Task:
    closed = cfg.spec.family != "sigmoid"

    def run(ctx: Context) -> None:
        tr, cost = ctx.tr, cfg.cost
        loss = ctx.loss(cfg.spec, tagged=False)
        nu = tr.call("curves.nu_curve", nu_curve, loss, cost, ORACLE_GRID)
        env = tr.call("curves.biconjugate", biconjugate, nu)
        tr.tally("curves.nu_knots", len(nu.knots))
        tr.tally("curves.hull_knots", len(env.hull_knots))
        expect(nu.knots[0].value == 0.0, "nu(0) != 0")
        expect(all(k.value >= 0.0 for k in nu.knots), "negative nu")
        expect(psi_is_valid(env), "psi is not convex, nondecreasing and 0 at 0")
        if closed:
            ref = nu_curve(ctx.loss(cfg.spec), cost, ORACLE_GRID)
            expect([k.eps for k in nu.knots] == [k.eps for k in ref.knots], "nu knots moved")
            worst = max(abs(a.value - b.value) for a, b in zip(nu.knots, ref.knots))
            expect(worst <= ORACLE_TOL, f"oracle nu off closed form by {worst}")

    return Task("oracle-nu", run, cfg.describe())


def _posterior_sets(rng, alpha: float) -> list[np.ndarray]:
    """A uniform grid, a grid around the threshold, and uniform draws."""
    near = np.linspace(max(alpha - 0.1, 0.0), min(alpha + 0.1, 1.0), len(POSTERIORS))
    return [POSTERIORS, near, np.sort(rng.uniform(0.0, 1.0, len(POSTERIORS)))]


def oracle_cycle(draws: Draws, i: int) -> list[Task]:
    """Untagged copies of closed_form configurations, plus sigmoids at alpha(gamma)."""
    configs = [
        _weighted(draws, CONVEX[i % 3]),
        _unweighted(draws, CONVEX[(i + 1) % 3]),
        _sigmoid_at_alpha_of_gamma(draws),
    ]
    rng = draws.rng
    tasks = []
    for k, cfg in enumerate(configs):
        tasks.append(_numeric_verdict_task(cfg))
        tasks += [_row_task(cfg, etas) for etas in _posterior_sets(rng, cfg.alpha)]
        if k == 0:
            tasks.append(_oracle_bound_task(cfg, float(10.0 ** rng.uniform(-4.0, -1.0))))
        else:
            tasks.append(_oracle_nu_task(cfg))
    return tasks


# --- fuzz -------------------------------------------------------------------


def _fuzz_task(family: str, seed: int) -> Task:
    def run(ctx: Context) -> None:
        (record,) = ctx.tr.call("oracle.fuzz_bound", fuzz_bound, seed, family, 1, FUZZ_GRID)
        expect(record.passed, f"fuzz trial {record.seed} ({family}) violates the bound")

    return Task("fuzz-trial", run, f"{family} seed={seed}")


def _closed_vs_oracle_task(spec: UnevenMarginSpec) -> Task:
    def run(ctx: Context) -> None:
        loss = ctx.loss(spec)
        for eta in POSTERIORS:
            eta = float(eta)
            closed = ctx.tr.call("families.closed_forms", closed_forms, spec, eta).c_star
            oracle = ctx.tr.call("oracle.brute_force_min", brute_force_min, loss, eta).value
            expect(abs(closed - oracle) <= ORACLE_TOL, f"C*({eta}) closed vs oracle")

    return Task("closed-vs-oracle", run, f"{spec.family} gamma={spec.gamma!r}")


def _identity_task(cfg: Config) -> Task:
    def run(ctx: Context) -> None:
        tr, cost = ctx.tr, cfg.cost
        weighted = ctx.loss(cfg.spec)
        base = ctx.loss(dataclasses.replace(cfg.spec, alpha_weight=None))
        half = CostParam(0.5)
        for eta in POSTERIORS:
            eta = float(eta)
            theta, w = theta_alpha(cost, eta)
            lhs = tr.call("losses.h_alpha_closed", h_alpha, weighted, cost, eta)
            rhs = w * tr.call("losses.h_alpha_closed", h_alpha, base, half, theta)
            expect(abs(lhs - rhs) <= IDENTITY_TOL, f"reweighting identity at eta={eta}")

    return Task("identity", run, cfg.describe())


def _regrets_task(cfg: Config, rng) -> Task:
    n = int(rng.integers(1, 21))
    masses = rng.dirichlet(np.ones(n))
    dist = FiniteDistribution(tuple(zip(masses.tolist(), rng.uniform(0.0, 1.0, n).tolist())))
    u = rng.uniform(size=n)
    scores = rng.uniform(-3.0, 3.0, n)
    scores[u < 0.10] = math.inf
    scores[u < 0.05] = -math.inf
    assignment = DecisionAssignment(tuple(scores.tolist()))

    def run(ctx: Context) -> None:
        tr, cost = ctx.tr, cfg.cost
        closed, oracle = (
            tr.call("oracle.empirical_regrets", empirical_regrets, dist, assignment, loss, cost)
            for loss in (ctx.loss(cfg.spec), ctx.loss(cfg.spec, tagged=False))
        )
        pairs = zip(dist.atoms, assignment.scores)
        direct = sum(m * cost_regret(cost, e, t) for (m, e), t in pairs)
        expect(closed[0] == oracle[0] and abs(closed[0] - direct) <= 1e-12, "cost regret")
        # An infinite score on a hinge or squared loss makes both regrets +inf.
        same = closed[1] == oracle[1] or abs(closed[1] - oracle[1]) <= ORACLE_TOL
        expect(same, "surrogate regret closed vs oracle")

    return Task("regrets", run, f"{cfg.describe()} atoms={n}")


def fuzz_cycle(draws: Draws, i: int) -> list[Task]:
    """One fuzz trial per family, plus the checks of ``verify --suite all``."""
    rng = draws.rng
    tasks = [_fuzz_task(f, int(rng.integers(0, 2**31))) for f in FAMILIES]
    family = FAMILIES[i % 4]
    if family == "sigmoid":
        tasks.append(_closed_vs_oracle_task(SIGMOID2.spec))
        tasks.append(_regrets_task(SIGMOID2, rng))
    else:
        tasks.append(_closed_vs_oracle_task(_unweighted(draws, family).spec))
        tasks.append(_regrets_task(_weighted(draws, family), rng))
    tasks.append(_identity_task(_weighted(draws, CONVEX[i % 3])))
    return tasks


# --- registry ---------------------------------------------------------------


class Workload(NamedTuple):
    name: str
    cycle: Callable
    #: Cycles after which the family rotation repeats; timed runs end on a
    #: multiple of it, so every run holds the same mix of families.
    period: int
    #: Cycles in the traced run; a fixed number, so its counts repeat exactly.
    traced_cycles: int


def cycles(workload: Workload, seed: int) -> Iterator[list[Task]]:
    """The workload's endless task cycles for a seed."""
    draws = Draws(seed)
    i = 0
    while True:
        draws.start_cycle(i)
        yield workload.cycle(draws, i)
        i += 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("closed_form", closed_form_cycle, 3, 6),
        Workload("oracle", oracle_cycle, 3, 3),
        Workload("fuzz", fuzz_cycle, 12, 60),
    )
}


def probe_tasks() -> list[Task]:
    """One call into every layer, on fixed inputs.

    The traced run makes these after the workload's own tasks.  A
    per-layer time the workload never reaches is read from here, so that
    every layer reports a measured time on every workload.
    """
    cfg = Config(UnevenMarginSpec("hinge", 0.5, 2.0, alpha_weight=0.3), 0.3)

    def run(ctx: Context) -> None:
        tr, cost = ctx.tr, cfg.cost
        loss, untagged = ctx.loss(cfg.spec), ctx.loss(cfg.spec, tagged=False)
        sigmoid = ctx.loss(SIGMOID2.spec, tagged=False)
        base = dataclasses.replace(cfg.spec, alpha_weight=None)
        tr.call("families.closed_forms", closed_forms, base, 0.3)
        tr.call("families.alpha_of_gamma", alpha_of_gamma, 3.0)
        tr.call("losses.h_alpha_closed", h_alpha, loss, cost, 0.2)
        tr.call("losses.h_alpha_oracle", h_alpha, untagged, cost, 0.2)
        tr.call("losses.c_star_oracle", optimal_conditional_risk, untagged, 0.2)
        tr.call("losses.c_minus_oracle", constrained_optimal_risk, sigmoid, SIGMOID2.cost, 0.2)
        tr.call("oracle.brute_force_min", brute_force_min, untagged, 0.2)
        tr.call("oracle.fuzz_bound", fuzz_bound, 1, "hinge", 1, FUZZ_GRID)
        dist = FiniteDistribution(((0.5, 0.2), (0.5, 0.7)))
        scores = DecisionAssignment((1.0, -1.0))
        tr.call("oracle.empirical_regrets", empirical_regrets, dist, scores, loss, cost)
        nu = tr.call("curves.nu_curve", nu_curve, loss, cost, FUZZ_GRID)
        env = tr.call("curves.biconjugate", biconjugate, nu)
        tr.call("curves.envelope_invert", envelope_invert, env, 0.01)
        tr.call("curves.envelope_eval", envelope_eval, env, 0.1)
        tr.call("calibration.mu_curve", mu_curve, nu)
        tr.call("calibration.uniform_fn", uniform_calibration_fn, loss, cost, 0.1, FUZZ_GRID)
        tr.call("calibration.numeric", check_calibrated_numeric, loss, cost)

    probe = Task("probe", run, "fixed inputs")
    return [_check_task(cfg, "calibrated"), _bound_task(cfg, 0.01, True), probe]
