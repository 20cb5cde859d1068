"""The golden sweep: one sha256 per group of costcal's outputs.

    python -m tests.golden --write tests/golden.json   # or --diff

A record is a request and its value (floats by ``float.hex``) or error, and its warnings,
through public ``costcal`` names and ``costcal.cli.main``.  ``--diff`` prints ``moved
<group>`` per digest that differs and exits 1 if any does, or 2, comparing nothing, under
another environment fingerprint.  ``--committed OLD NEW`` fails only on moved groups whose
digest OLD and NEW (the committed files before and after a change) share.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import platform
import re
import struct
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

import costcal
from costcal import (
    FAMILIES, CostParam, Loss, UnevenMarginSpec, alpha_of_gamma, biconjugate, brute_force_min,
    check_calibrated_numeric, constrained_optimal_risk, envelope_eval, envelope_invert,
    fuzz_bound, h_alpha, make_uneven_loss, mu_curve, nu_curve, optimal_conditional_risk,
    regret_bound,
)
from costcal.cli import main as cli_main

GAMMAS = (1e-3, 0.25, 1.0, 3.0, 1e3)
ALPHAS = (0.2, 0.5, 0.7)
CONSTRAINTS = ("none", "nonnegative_scores", "nonpositive_scores")
POSTERIORS = (0.0, -0.0, 1e-12, 0.1, 0.3, 0.45, 0.5, 0.6, 0.9, 1.0 - 1e-12, 1.0) + ALPHAS
#: Extra knots of every nu curve: signed zeros, repeats, points past B and
#: below 0, and infinities, which clip onto the ends.
EXTRA_KNOTS = (0.0, -0.0, 0.05, 0.123, 0.05, 2.0, -1.0, math.inf, -math.inf)
#: Short nu curves with a -0.0 knot: at these sizes the knot sort's order of
#: 0.0 and -0.0 decides which of them the curve keeps.
SHORT_NU = (5, 21, 101)
PSI_AT, REGRETS = (0.0, 0.01, 0.1, 0.25), (0.0, 1e-12, 1e-6, 1e-3, 0.01, 0.1, 0.3)
_LOG_MAX = math.log(sys.float_info.max)
#: Scores of the partials: signed zeros, NaN, subnormals, the ends of the
#: float range and of the search grid, and the exponential's edge.
SCORES = (
    0.0, -0.0, math.nan, 5e-324, -5e-324, 1e300, -1e300, 1.0, -1.0, 0.5, -30.0, 50.0, 710.0, -710.0,
    1e5, -1e5, _LOG_MAX, -_LOG_MAX, math.nextafter(_LOG_MAX, 1e309), math.nextafter(-_LOG_MAX, -1e309),
)


def show(x) -> str:
    """A value as one exact string: ``float.hex``, and a NaN's bits."""
    if type(x) is float:
        return x.hex() if x == x else "nan:%016x" % struct.unpack("<Q", struct.pack("<d", x))[0]
    if isinstance(x, np.ndarray):
        return f"{x.dtype}{list(x.shape)}[{' '.join(map(show, x.ravel().tolist()))}]"
    if isinstance(x, (np.floating, np.integer)):
        return f"{type(x).__name__}({show(x.item())})"
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(map(show, x)) + ")"
    if dataclasses.is_dataclass(x):
        fields = (f"{f.name}={show(getattr(x, f.name))}" for f in dataclasses.fields(x))
        return f"{type(x).__name__}({','.join(fields)})"
    return repr(x)


def call(label: str, fn, *args) -> tuple:
    """``fn(*args)`` (None if it raised) and its record: the value or error, and warnings."""
    value = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn(*args)
            out = show(value)
        except Exception as exc:  # an error is an output too
            out = f"!{type(exc).__name__}: {exc}"
    return value, " ".join([label, out, *(f"~{w.category.__name__}: {w.message}" for w in caught)])


def record(label: str, fn, *args) -> str:
    return call(label, fn, *args)[1]


def losses(family, gamma, beta, weight=None) -> dict:
    """The member, tagged and untagged (searched), new: no group reads another's searches."""
    loss = make_uneven_loss(UnevenMarginSpec(family, beta, gamma, weight))
    return {"tagged": loss, "untagged": Loss(pos=loss.pos, neg=loss.neg, family=None)}


#: A partial's metadata, by name: ``value_at_zero`` is read from its ``fn``
#: where it is no field, so the record stays the same either way.
DECLARED = (
    "value_at_zero", "is_convex", "deriv_at_zero", "is_continuous_at_zero", "limit_neg_inf", "limit_pos_inf"
)


def declared(p) -> str:
    return "PartialLoss(fn=None," + ",".join(f"{name}={show(getattr(p, name))}" for name in DECLARED) + ")"


def partials_group(family):
    """Each partial's fields, and its ``fn`` on float, numpy-scalar and array scores."""
    scores = [*SCORES, *map(np.float64, SCORES), np.array(SCORES + tuple(np.linspace(-60, 60, 241)))]
    out = []
    for gamma in GAMMAS:
        for beta in (1.0 / gamma, 0.7):
            for weight in (None, 0.3):
                loss = losses(family, gamma, beta, weight)["tagged"]
                for side, p in (("pos", loss.pos), ("neg", loss.neg)):
                    head = f"{gamma!r} {beta!r} {weight!r} {side}"
                    out.append(f"{head} declared {declared(p)}")
                    out += [record(f"{head} fn({show(t)})", p.fn, t) for t in scores]
    return out


def optima_group(family, gamma, beta, weighted):
    """C*, brute_force_min per constraint, and C^- and H per alpha (a weighted loss's
    weight), at each posterior and on one array of them all."""
    out, array = [], np.array(POSTERIORS)
    for weight in ALPHAS if weighted else (None,):
        for tag, loss in losses(family, gamma, beta, weight).items():
            requests = [("C*", optimal_conditional_risk, (loss,), ())]
            requests += [(f"bfm {c}", brute_force_min, (loss,), (c,)) for c in CONSTRAINTS]
            for alpha in (weight,) if weighted else ALPHAS:
                cost = CostParam(alpha)
                requests += [(f"a={alpha!r} C-", constrained_optimal_risk, (loss, cost), ())]
                requests += [(f"a={alpha!r} H", h_alpha, (loss, cost), ())]
            for name, fn, before, after in requests:
                head = f"{tag} w={weight!r} {name}"
                out.append(record(f"{head} array", fn, *before, array, *after))
                out += [record(f"{head}({eta!r})", fn, *before, eta, *after) for eta in POSTERIORS]
    return out


def curves_group(family, gamma, beta, weighted):
    """Per alpha: ``nu`` (``EXTRA_KNOTS``, ``b_min`` and ``B`` among its knots), ``mu``,
    ``psi`` and its inverse at a few points, ``regret_bound``, and short ``nu`` curves."""
    out = []
    for alpha in ALPHAS:
        cost = CostParam(alpha)
        extra = EXTRA_KNOTS + (cost.b_min, cost.b_max)
        for tag, loss in losses(family, gamma, beta, alpha if weighted else None).items():
            head = f"{tag} a={alpha!r}"
            nu, line = call(f"{head} nu", nu_curve, loss, cost, 201, extra)
            env, line2 = call(f"{head} psi", biconjugate, nu)
            out += [line, line2, record(f"{head} mu", mu_curve, nu)]
            if env is not None:
                out += [record(f"{head} psi({e!r})", envelope_eval, env, e) for e in PSI_AT + (cost.b_max,)]
                out += [record(f"{head} psi^-1({s!r})", envelope_invert, env, s) for s in REGRETS]
            out.append(record(f"{head} regret_bound", regret_bound, loss, cost, 0.01, 201))
            out += [record(f"{head} nu({n})", nu_curve, loss, cost, n, (-0.0,)) for n in SHORT_NU]
    return out


def verdict_group(family, gamma, beta, tag):
    """Numeric verdicts at tolerance 0 and 1e-9: convex at weight None and 0.3, the
    calibrated alpha and 0.02, 0.3, 0.5, 0.98, grid 3, 11, 1001; the sigmoid at
    alpha_of_gamma, 1e-4 either side of it, 0.3 and 0.7, grid 11 and 1001."""
    out = []
    for weight in (None,) if family == "sigmoid" else (None, 0.3):
        loss = losses(family, gamma, beta, weight)[tag]
        if family == "sigmoid":
            a = alpha_of_gamma(gamma)
            alphas, grids = (a, a - 1e-4, a + 1e-4, 0.3, 0.7), (11, 1001)
        else:  # first where the derivative condition holds
            d1, d2 = loss.pos.deriv_at_zero, loss.neg.deriv_at_zero
            alphas, grids = (d2 / (d2 - d1), 0.02, 0.3, 0.5, 0.98), (3, 11, 1001)
        for alpha in alphas:
            for grid in grids:
                for tol in (0.0, 1e-9):
                    label = f"w={weight!r} a={alpha!r} grid={grid} tol={tol!r}"
                    out.append(record(label, check_calibrated_numeric, loss, CostParam(alpha), grid, tol))
    return out


def fuzz_group(family, seed):
    return [record(f"{family} {seed}", fuzz_bound, seed, family, 25)]


def ci_commands() -> list[str]:
    """The costcal commands of CI's "Verify suites" step, ``OUT`` for the output file."""
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    step = workflow.read_text().split("- name: Verify suites")[1].split("- name:")[0]
    pattern = r"^ *(?:rc=0; )?(?:costcal|python -m costcal\.cli) ([^|\n]*?)(?: \|\|.*)?$"
    return [c.replace("/dev/null", "OUT") for c in re.findall(pattern, step, re.M)]


def cli(command: str) -> list[str]:
    """The exit code, stdout, stderr, and the output file's sha256."""

    def run():
        with tempfile.TemporaryDirectory() as tmp:
            path, stdout, stderr = Path(tmp) / "out", io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli_main([str(path) if a == "OUT" else a for a in command.split()])
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        return code, stdout.getvalue(), stderr.getvalue(), digest

    return [record(command, run)]


def known_group(item: int) -> list[str]:
    """Wrong answers that ROADMAP items 3, 16 and 17 change: C* past the score window
    (the untagged copy's search gives 432.6 at eta 0.1, not the tagged closed form's
    100.1), bounds too low at small s, a false calibrated."""
    if item == 3:
        return [
            *(
                record(f"{tag} {name}", optimal_conditional_risk, loss, eta)
                for tag, loss in losses("hinge", 1e-3, 500.0).items()
                for name, eta in (("C*(0.1)", 0.1), ("C* array", np.array([0.1, 0.5, 0.9])))
            ),
            *cli("curve --family hinge --gamma 0.001 --beta 500 --alpha 0.3333333333333333"
                 " --quantities C_star --grid 201 --output OUT"),
        ]
    if item == 16:
        half = CostParam(0.5)
        return [
            record(f"{f} regret_bound({s!r})", regret_bound, losses(f, 1.0, 1.0)["tagged"], half, s, 2001)
            for f in ("squared", "exponential")
            for s in (1e-8, 1e-12)
        ]
    alpha = alpha_of_gamma(3.0) - 1e-4
    loss, cost = losses("sigmoid", 3.0, 1.0 / 3.0)["tagged"], CostParam(alpha)
    return [
        record("check", check_calibrated_numeric, loss, cost),
        record("regret_bound(0.01)", regret_bound, loss, cost, 0.01),
        *cli(f"check --family sigmoid --gamma 3 --alpha {alpha!r}"),
        *cli(f"bound --family sigmoid --gamma 3 --alpha {alpha!r} --surrogate-regret 0.01"),
    ]


def groups() -> dict:
    """Each group's name, and the function and arguments that make it."""
    table = {f"partials/{f}": (partials_group, f) for f in FAMILIES}
    for f in FAMILIES:
        for gamma in GAMMAS:
            for b, beta in {"1/gamma": 1.0 / gamma, "0.7": 0.7}.items():
                for weighted, kind in ((False, "unweighted"), (True, "weighted")):
                    for name, group in (("optima", optima_group), ("curves", curves_group)):
                        table[f"{name}/{f}/gamma={gamma!r}/beta={b}/{kind}"] = (group, f, gamma, beta, weighted)
    # 3,600 convex verdicts and 320 sigmoid ones.
    axes = [(f, gamma, 0.7) for f in FAMILIES if f != "sigmoid" for gamma in GAMMAS]
    axes += [("sigmoid", gamma, 0.5) for gamma in (0.5, 2.0, 3.0, 10.0)]
    for f, gamma, other in axes:
        for b, beta in {"1/gamma": 1.0 / gamma, repr(other): other}.items():
            for tag in ("tagged", "untagged"):
                table[f"verdict/{f}/gamma={gamma!r}/beta={b}/{tag}"] = (verdict_group, f, gamma, beta, tag)
    for f in FAMILIES:
        for seed in range(4):
            table[f"fuzz/{f}/seed={seed}"] = (fuzz_group, f, seed)
    for i, command in enumerate(ci_commands(), 1):
        table[f"cli/{i:02d}-{'-'.join(command.split()[:3:2])}"] = (cli, command)
    for item, name in ((3, "hinge-score-window"), (16, "small-surrogate-regret"), (17, "sigmoid-boundary")):
        table[f"known/item{item}-{name}"] = (known_group, item)
    return table


def digest(name: str, table: dict) -> str:
    fn, *args = table[name]
    return hashlib.sha256("\n".join(fn(*args)).encode()).hexdigest()


def fingerprint() -> dict:
    """What the digests hold under: ``np.exp``'s last bit may differ by CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as cpu
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as cpu
    features = sorted(k for k, on in cpu.items() if on)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "cpu_features": features}


def read(path: str) -> dict:
    return json.loads(Path(path).read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.golden", description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="PATH", help="run the sweep, write its digests to PATH")
    mode.add_argument("--diff", metavar="PATH", help="name the groups whose digests differ from PATH's")
    parser.add_argument("--committed", nargs=2, metavar=("OLD", "NEW"), help="with --diff: fail where both agree")
    args = parser.parse_args(argv)
    print(f"costcal from {Path(costcal.__file__).parent}", file=sys.stderr)
    here = fingerprint()
    if args.diff and read(args.diff)["fingerprint"] != here:
        print(f"not compared: {args.diff} is of {read(args.diff)['fingerprint']}, this of {here}")
        return 2
    table = groups()
    new = {name: digest(name, table) for name in sorted(table)}
    if args.write:
        text = json.dumps({"fingerprint": here, "groups": new}, indent=1, sort_keys=True)
        Path(args.write).write_text(text + "\n")
        return 0
    old = read(args.diff)["groups"]
    committed = [read(path).get("groups", {}) for path in args.committed or ()]
    moved = sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))
    failed = 0
    for name in moved:
        explained = bool(committed) and committed[0].get(name) != committed[1].get(name)
        failed += not explained
        print(f"moved {name}" + (" (its committed digest changed too)" if explained else ""))
    print(f"{len(moved)} of {len(old.keys() | new.keys())} groups moved", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
