"""Every public numeric parameter goes through one check
(``errors._check_real`` or ``_check_int``): a value that is no number, an
array where one number is expected, a value out of range and NaN each
raise ``DomainError`` naming the parameter, with no numpy warning, and a
numpy scalar or a 0-d array inside the range gives the float's result."""

from __future__ import annotations

import dataclasses
import math
import os
import warnings
from argparse import Namespace

import numpy as np
import pytest

from costcal import (
    CostParam,
    DecisionAssignment,
    DomainError,
    FiniteDistribution,
    PartialLoss,
    UnevenMarginSpec,
    alpha_of_gamma,
    biconjugate,
    calibration_fn,
    check_calibrated_numeric,
    conditional_risk,
    cost_regret,
    empirical_regrets,
    envelope_eval,
    envelope_invert,
    fuzz_bound,
    h_alpha,
    jump_at_bmin,
    make_uneven_loss,
    nu_curve,
    psi_costinsensitive,
    regret_bound,
    uniform_calibration_fn,
)
from costcal import cli
from costcal.families import closed_forms, sigmoid_t_minus
from costcal.oracle import brute_force_min

HINGE = UnevenMarginSpec("hinge", 0.5, 2.0)
# Calibrated at alpha = alpha_weight, so regret_bound has a bound to give.
LOSS = make_uneven_loss(UnevenMarginSpec("hinge", 0.5, 2.0, alpha_weight=0.3))
COST = CostParam(0.3)
NU = nu_curve(LOSS, COST, 11)
ENV = biconjugate(NU)


def loss_flags(**flags) -> Namespace:
    return Namespace(**{"family": "hinge", "beta": None, "gamma": 2.0, "alpha": 0.3, "weighted": False, **flags})


# (parameter, name in the message, call on the value, a value inside the range)
REALS = [
    ("CostParam.alpha", "alpha", lambda v: CostParam(v), 0.3),
    ("UnevenMarginSpec.beta", "beta", lambda v: UnevenMarginSpec("hinge", v, 2.0), 0.5),
    ("UnevenMarginSpec.gamma", "gamma", lambda v: UnevenMarginSpec("hinge", 0.5, v), 2.0),
    ("UnevenMarginSpec.alpha_weight", "alpha_weight", lambda v: UnevenMarginSpec("hinge", 0.5, 2.0, v), 0.3),
    ("alpha_of_gamma.gamma", "gamma", alpha_of_gamma, 3.0),
    ("FiniteDistribution.mass", "mass", lambda v: FiniteDistribution(((v, 0.3),)), 1.0),
    ("FiniteDistribution.eta", "eta", lambda v: FiniteDistribution(((1.0, v),)), 0.3),
    ("conditional_risk.eta", "eta", lambda v: conditional_risk(LOSS, v, 0.5), 0.3),
    ("conditional_risk.t", "score", lambda v: conditional_risk(LOSS, 0.3, v), 0.5),
    ("cost_regret.eta", "eta", lambda v: cost_regret(COST, v, 0.5), 0.2),
    ("cost_regret.t", "score", lambda v: cost_regret(COST, 0.2, v), 0.5),
    ("closed_forms.eta", "eta", lambda v: closed_forms(HINGE, v), 0.3),
    ("calibration_fn.eps", "eps", lambda v: calibration_fn(LOSS, COST, v, 0.1), 0.05),
    ("calibration_fn.eta", "eta", lambda v: calibration_fn(LOSS, COST, 0.05, v), 0.1),
    ("uniform_calibration_fn.eps", "eps", lambda v: uniform_calibration_fn(LOSS, COST, v, 11), 0.1),
    ("psi_costinsensitive.eps", "eps", lambda v: psi_costinsensitive(LOSS, v, 11), 0.2),
    ("regret_bound.surrogate_regret", "surrogate_regret", lambda v: regret_bound(LOSS, COST, v, 11), 0.1),
    ("check_calibrated_numeric.tolerance", "tolerance", lambda v: check_calibrated_numeric(LOSS, COST, 11, v), 1e-9),
    ("envelope_eval.eps", "eps", lambda v: envelope_eval(ENV, v), 0.2),
    ("envelope_invert.y", "y", lambda v: envelope_invert(ENV, v), 0.1),
    ("jump_at_bmin.tol", "tol", lambda v: jump_at_bmin(NU, v), 1e-9),
    ("nu_curve.extra_knots", "extra_knots", lambda v: nu_curve(LOSS, COST, 11, (v,)), 0.15),
    ("cli --gamma", "gamma", lambda v: cli._build_loss(loss_flags(gamma=v))[0].family, 2.0),
    ("PartialLoss.deriv_at_zero", "deriv_at_zero", lambda v: PartialLoss(np.exp, is_convex=True, deriv_at_zero=v), -1.0),
    ("PartialLoss.limit_neg_inf", "limit_neg_inf", lambda v: PartialLoss(np.exp, is_convex=True, limit_neg_inf=v), 1.0),
    ("PartialLoss.limit_pos_inf", "limit_pos_inf", lambda v: PartialLoss(np.exp, is_convex=True, limit_pos_inf=v), 0.0),
]
# Parameters that may be None: unweighted, or undeclared.
NONE_ALLOWED = {
    "UnevenMarginSpec.alpha_weight", "PartialLoss.deriv_at_zero", "PartialLoss.limit_neg_inf", "PartialLoss.limit_pos_inf"
}
# Posteriors that may also be an ndarray: a list of two stands for the array.
ARRAY_POSTERIORS = [
    ("h_alpha.eta", "eta", lambda v: h_alpha(LOSS, COST, v), 0.2),
    ("sigmoid_t_minus.eta", "eta", sigmoid_t_minus, 0.2),
]
# A 0-d array is no integer, as a float is none, however whole.
INTEGERS = [
    ("nu_curve.grid_size", "grid_size", lambda v: nu_curve(LOSS, COST, v), 11),
    ("check_calibrated_numeric.grid_size", "grid_size", lambda v: check_calibrated_numeric(LOSS, COST, v), 11),
    ("uniform_calibration_fn.grid_size", "grid_size", lambda v: uniform_calibration_fn(LOSS, COST, 0.1, v), 11),
    ("psi_costinsensitive.grid_size", "grid_size", lambda v: psi_costinsensitive(LOSS, 0.2, v), 11),
    ("regret_bound.grid_size", "grid_size", lambda v: regret_bound(LOSS, COST, 0.1, v), 11),
    ("fuzz_bound.grid_size", "grid_size", lambda v: fuzz_bound(1, "hinge", 1, v), 11),
    ("fuzz_bound.seed", "seed", lambda v: fuzz_bound(v, "hinge", 1, 11), 1),
    ("fuzz_bound.n_trials", "n_trials", lambda v: fuzz_bound(1, "hinge", v, 11), 1),
    ("cli --grid", "grid_size", lambda v: cli.cmd_curve(loss_flags(quantities="nu", grid=v, output=os.devnull)), 11),
    ("cli --points", "points", lambda v: cli.cmd_alpha_gamma(
        Namespace(gamma_min=0.5, gamma_max=2.0, points=v, output=os.devnull)), 3),
]

BAD = {"str": "0.3", "None": None, "two": np.array([0.2, 0.4]), "nan": math.nan}
# Parameters that take a sequence, each with a call on a value that is none.
DIST = FiniteDistribution(((0.5, 0.2), (0.5, 0.6)))
SEQUENCES = [
    ("empirical_regrets.assignment", "scores", lambda: empirical_regrets(DIST, DecisionAssignment(None), LOSS, COST)),
    ("DecisionAssignment.scores", "scores", lambda: DecisionAssignment(5)),
    ("DecisionAssignment.scores-generator", "scores", lambda: DecisionAssignment(t for t in (0.0,))),
    ("FiniteDistribution.atoms", "atoms", lambda: FiniteDistribution(5)),
    ("FiniteDistribution.atoms-generator", "atoms", lambda: FiniteDistribution(a for a in ((1.0, 0.5),))),
    ("nu_curve.extra_knots-None", "extra_knots", lambda: nu_curve(LOSS, COST, 11, extra_knots=None)),
    ("nu_curve.extra_knots-float", "extra_knots", lambda: nu_curve(LOSS, COST, 11, extra_knots=0.3)),
]


def bad_cases():
    for rows, array in ((REALS, BAD["two"]), (ARRAY_POSTERIORS, [0.2, 0.4]), (INTEGERS, BAD["two"])):
        for param, name, call, _ in rows:
            for kind, value in {**BAD, "two": array}.items():
                if not (param in NONE_ALLOWED and kind == "None"):
                    yield pytest.param(name, call, value, id=f"{param}-{kind}")


def good_cases():
    for rows, kinds in ((REALS + ARRAY_POSTERIORS, (np.float64, np.array)), (INTEGERS, (np.int64,))):
        for param, _, call, value in rows:
            for kind in kinds:
                yield pytest.param(call, value, kind, id=f"{param}-{kind.__name__}")


def bits(x):
    """``x`` with every float as its hex string and every array as a list,
    so equal bits compare equal whatever the float's type."""
    if dataclasses.is_dataclass(x):
        return bits([getattr(x, f.name) for f in dataclasses.fields(x)])
    if isinstance(x, (tuple, list)):
        return tuple(bits(item) for item in x)
    if isinstance(x, np.ndarray):
        return bits(x.tolist())
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    return x


def quietly(call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(value)


@pytest.mark.parametrize("name, call, value", bad_cases())
def test_rejected_with_a_domain_error_naming_the_parameter(name, call, value):
    with pytest.raises(DomainError, match=rf"^{name} must (be a number|be an integer|lie in)\b"):
        quietly(call, value)


@pytest.mark.parametrize("name, call", [pytest.param(name, call, id=param) for param, name, call in SEQUENCES])
def test_a_sequence_that_is_none_raises_a_domain_error_naming_it(name, call):
    with pytest.raises(DomainError, match=rf"^{name} must be a sequence, got "):
        quietly(lambda _: call(), None)


@pytest.mark.parametrize("call, value, kind", good_cases())
def test_a_numpy_scalar_or_0d_array_gives_the_float_result(call, value, kind):
    assert bits(quietly(call, kind(value))) == bits(call(value))


class TestMalformedInput:
    @pytest.mark.parametrize("tol", [-1.0, -math.inf, math.nan, np.array([1e-9, 1e-9])])
    def test_jump_at_bmin_tol(self, tol):
        # Unchecked, tol -1 reads a jump where left equals right, NaN reads
        # none ever, and an array comes back as an array.
        with pytest.raises(DomainError, match=r"^tol must (be a number|lie in \[0, inf\))"):
            jump_at_bmin(NU, tol)

    @pytest.mark.parametrize("eta", [np.array(["0.3"]), np.array([None, 0.2]), np.array([0.2 + 0j])])
    def test_a_posterior_array_of_no_real_numbers(self, eta):
        for call in (lambda e: h_alpha(LOSS, COST, e), lambda e: brute_force_min(LOSS, e)):
            with pytest.raises(DomainError, match="eta must be an array of real numbers"):
                quietly(call, eta)

    @pytest.mark.parametrize("constraint", [[], None, 0, "None"])
    def test_brute_force_min_constraint(self, constraint):
        with pytest.raises(DomainError, match="unknown constraint"):
            brute_force_min(LOSS, 0.2, constraint)

    @pytest.mark.parametrize("atom", [None, 0.5, (1.0,), (1.0, 0.3, 0.0), np.array(1.0), np.ones((2, 1))])
    def test_an_atom_that_is_no_pair(self, atom):
        with pytest.raises(DomainError, match=r"atoms must be \(mass, eta\) pairs"):
            FiniteDistribution((atom,))

    def test_list_and_array_pairs_as_tuples(self):
        atoms = (((0.25, 0.3),), ([0.25, 0.3],), (np.array([0.25, 0.3]),))
        assert {bits(FiniteDistribution(a * 4).atoms) for a in atoms} == {bits(((0.25, 0.3),) * 4)}

    @pytest.mark.parametrize("value", ["no", None, 1, 0.0])
    @pytest.mark.parametrize("flag", ["is_convex", "is_continuous_at_zero"])
    def test_partial_loss_flags_are_bools(self, flag, value):
        # Unchecked, is_convex="no" is truthy and the verdict is analytic.
        with pytest.raises(DomainError, match=rf"^{flag} must be a bool"):
            PartialLoss(np.exp, **{"is_convex": True, flag: value})

    def test_partial_loss_takes_a_callable_and_keyword_metadata(self):
        with pytest.raises(DomainError, match="^fn must be callable"):
            PartialLoss(5, is_convex=True)
        with pytest.raises(TypeError):  # once (fn, value_at_zero, is_convex)
            PartialLoss(np.exp, 1.0, True)
        assert PartialLoss(np.exp, is_convex=np.bool_(False)).value_at_zero == 1.0
