"""End-to-end CLI behavior: exit codes, CSV/JSON output, determinism."""

import contextlib
import csv
import io
import json
import math
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from costcal import ALPHA_SIGMOID_GAMMA2, Knot, SampledCurve, biconjugate
from costcal.cli import QUANTITIES, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["x", "quantity", "value", "side"]
        return list(reader)


class TestCheck:
    def test_calibrated_hinge(self, capsys):
        code, out = run(
            capsys, "check", "--family", "hinge", "--beta", "0.5",
            "--gamma", "2", "--alpha", "0.5",
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "calibrated"
        assert report["method"] == "analytic_convex"

    def test_uncalibrated_hinge(self, capsys):
        code, out = run(
            capsys, "check", "--family", "hinge", "--beta", "1",
            "--gamma", "2", "--alpha", "0.5",
        )
        assert code == 3
        assert json.loads(out)["verdict"] == "not_calibrated"

    def test_sigmoid_at_special_alpha(self, capsys):
        code, out = run(
            capsys, "check", "--family", "sigmoid", "--gamma", "2",
            "--alpha", "0.37638497",
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "calibrated"
        assert report["method"] == "numeric_grid"


class TestCurve:
    def curve_args(self, out_path, quantities, grid="11"):
        return [
            "curve", "--family", "hinge", "--gamma", "2", "--alpha", "0.3",
            "--weighted", "--quantities", quantities, "--grid", grid,
            "--output", str(out_path),
        ]

    def test_gap_and_nu_rows(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(self.curve_args(out, "H,nu"))
        assert code == 0
        rows = read_rows(out)
        h = {float(r["x"]): float(r["value"]) for r in rows if r["quantity"] == "H"}
        assert h[0.5] == pytest.approx(0.2, abs=1e-10)
        assert h[0.3] == pytest.approx(0.0, abs=1e-12)
        nu_jump = {
            r["side"]: float(r["value"])
            for r in rows
            if r["quantity"] == "nu" and float(r["x"]) == 0.3
        }
        assert nu_jump["left"] == pytest.approx(0.15, abs=1e-10)
        assert nu_jump["right"] == pytest.approx(0.3, abs=1e-10)

    def test_rows_sorted_by_quantity_then_x(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(self.curve_args(out, "nu,H")) == 0
        rows = read_rows(out)
        keys = [(r["quantity"], float(r["x"])) for r in rows]
        assert keys == sorted(keys)

    def test_minimal_grid_keeps_mandatory_knots(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(self.curve_args(out, "nu", grid="3")) == 0
        rows = read_rows(out)
        assert {float(r["x"]) for r in rows} == {0.0, 0.3, 0.35, 0.7}

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(self.curve_args(out_a, "H,nu,mu,psi,C_star,C_minus")) == 0
        assert main(self.curve_args(out_b, "H,nu,mu,psi,C_star,C_minus")) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_psi_rows_round_trip_through_the_hull(self, tmp_path):
        out = tmp_path / "psi.csv"
        assert main(self.curve_args(out, "psi", grid="51")) == 0
        rows = [r for r in read_rows(out) if r["quantity"] == "psi"]
        points = [(float(r["x"]), float(r["value"])) for r in rows]
        curve = SampledCurve(
            domain_max=points[-1][0],
            knots=tuple(Knot(x, v, "both") for x, v in points),
        )
        assert biconjugate(curve).hull_knots == tuple(points)

    def test_unknown_quantity_is_usage_error(self, capsys, tmp_path):
        code = main(self.curve_args(tmp_path / "x.csv", "H,banana"))
        assert code == 2

    def test_unwritable_path_is_usage_error(self, capsys, tmp_path):
        code = main(self.curve_args(tmp_path / "missing" / "x.csv", "H"))
        assert code == 2

    @pytest.mark.parametrize("quantity", ["H", "C_star", "C_minus", "nu"])
    @pytest.mark.parametrize("grid", ["-1", "0", "2"])
    def test_grid_below_three_is_usage_error(self, capsys, tmp_path, quantity, grid):
        out = tmp_path / "x.csv"
        assert main(self.curve_args(out, quantity, grid=grid)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestAlphaGamma:
    def table(self, tmp_path, *extra):
        out = tmp_path / "table.csv"
        code = main(
            ["alpha-gamma", "--gamma-min", "0.5", "--gamma-max", "2",
             "--points", "5", "--output", str(out)] + list(extra)
        )
        assert code == 0
        with open(out, newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["gamma", "ln_gamma", "alpha"]
            return {float(r["gamma"]): r for r in reader}

    def test_reference_rows(self, tmp_path):
        rows = self.table(tmp_path)
        assert float(rows[2.0]["alpha"]) == pytest.approx(0.37638497, abs=1e-8)
        assert float(rows[1.0]["alpha"]) == 0.5

    def test_reciprocal_rows_sum_to_one(self, tmp_path):
        rows = self.table(tmp_path)
        gammas = sorted(rows)
        for g in gammas:
            recip = 1.0 / g
            match = [x for x in gammas if abs(x - recip) < 1e-9]
            assert match, f"no reciprocal row for gamma={g}"
            total = float(rows[g]["alpha"]) + float(rows[match[0]]["alpha"])
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_ln_gamma_column(self, tmp_path):
        rows = self.table(tmp_path)
        for g, row in rows.items():
            assert float(row["ln_gamma"]) == pytest.approx(math.log(g), abs=1e-12)

    def test_invalid_range_is_usage_error(self, capsys, tmp_path):
        code = main(
            ["alpha-gamma", "--gamma-min", "2", "--gamma-max", "0.5",
             "--points", "5", "--output", str(tmp_path / "t.csv")]
        )
        assert code == 2

    def test_overflowing_gamma_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code = main(
            ["alpha-gamma", "--gamma-min", "1", "--gamma-max", "1e300",
             "--points", "5", "--output", str(out)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    def test_identities_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "identities")
        assert code == 0
        summary = json.loads(out)
        assert summary["all_passed"]
        assert summary["checks"][0]["failed"] == 0

    def test_closed_forms_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "closed_forms")
        assert code == 0
        assert json.loads(out)["all_passed"]


class TestBound:
    def test_squared_margin_bound(self, capsys):
        code, out = run(
            capsys, "bound", "--family", "squared", "--beta", "1", "--gamma", "1",
            "--alpha", "0.5", "--surrogate-regret", "0.04",
        )
        assert code == 0
        assert json.loads(out)["bound"] == pytest.approx(0.1, abs=1e-6)

    def test_zero_regret(self, capsys):
        code, out = run(
            capsys, "bound", "--family", "hinge", "--gamma", "2",
            "--alpha", "0.3", "--weighted", "--surrogate-regret", "0",
        )
        assert code == 0
        assert json.loads(out)["bound"] == pytest.approx(0.0, abs=1e-9)

    def test_vacuous_bound_exits_three(self, capsys):
        code, out = run(
            capsys, "bound", "--family", "hinge", "--beta", "1", "--gamma", "2",
            "--alpha", "0.5", "--surrogate-regret", "0.1",
        )
        assert code == 3
        assert "error" in json.loads(out)


class TestUsageErrors:
    def test_zero_gamma(self, capsys):
        code = main(["check", "--family", "hinge", "--gamma", "0", "--alpha", "0.3"])
        assert code == 2
        assert "gamma" in capsys.readouterr().err

    def test_nan_surrogate_regret(self, capsys):
        code = main(
            ["bound", "--family", "squared", "--beta", "1", "--gamma", "1",
             "--alpha", "0.5", "--surrogate-regret", "nan"]
        )
        assert code == 2
        assert "surrogate_regret" in capsys.readouterr().err

    def test_unknown_family(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--family", "logistic", "--gamma", "1", "--alpha", "0.5"])
        assert excinfo.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_negative_seed(self, capsys):
        code = main(["verify", "--suite", "bounds", "--seed", "-1"])
        assert code == 2
        assert "seed" in capsys.readouterr().err


#: Flag values at the edges of the float domain.
EDGE = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-320, 1e-300, 1e300)
CONVEX = ("hinge", "squared", "exponential")


def flag(name, ordinary):
    """``--name=value`` with an edge value or an ordinary one; the ``=`` form
    lets argparse take ``-inf`` as a value."""
    return st.one_of(st.sampled_from(EDGE), ordinary).map(lambda v: f"--{name}={v!r}")


GAMMA = flag("gamma", st.floats(0.25, 4.0))
ALPHA = flag("alpha", st.floats(0.05, 0.95))
BETA = flag("beta", st.floats(0.25, 4.0))


@st.composite
def loss_flags(draw, families):
    """A family with gamma and alpha, and at random beta and --weighted."""
    argv = [f"--family={draw(st.sampled_from(families))}", draw(GAMMA), draw(ALPHA)]
    if draw(st.booleans()):
        argv.append(draw(BETA))
    if draw(st.booleans()):
        argv.append("--weighted")
    return argv


#: The gamma = 2 sigmoid at its calibrating alpha, or at an alpha outside
#: (0, 1); any other alpha runs a numeric verdict that takes seconds.
SIGMOID_FLAGS = st.sampled_from(
    [ALPHA_SIGMOID_GAMMA2] + [a for a in EDGE if not 0.0 < a < 1.0]
).map(lambda a: ["--family=sigmoid", "--gamma=2", f"--alpha={a!r}"])
REGRET = flag("surrogate-regret", st.floats(0.0, 1.0))


@st.composite
def commands(draw, out=os.devnull):
    kind = draw(st.sampled_from(("check", "bound", "alpha-gamma", "curve", "verify")))
    if kind in ("check", "bound"):
        argv = [kind] + draw(st.one_of(loss_flags(CONVEX), SIGMOID_FLAGS))
        return argv + [draw(REGRET)] if kind == "bound" else argv
    if kind == "alpha-gamma":
        return [
            kind,
            draw(flag("gamma-min", st.floats(0.25, 4.0))),
            draw(flag("gamma-max", st.floats(0.25, 4.0))),
            f"--points={draw(st.integers(-1, 5))}",
            f"--output={out}",
        ]
    if kind == "curve":
        quantities = draw(st.lists(st.sampled_from(QUANTITIES), min_size=1, unique=True))
        return [
            kind,
            *draw(loss_flags(CONVEX + ("sigmoid",))),
            f"--quantities={','.join(quantities)}",
            f"--grid={draw(st.integers(3, 9))}",
            f"--output={out}",
        ]
    return [kind, "--suite=bounds", f"--seed={draw(st.integers(max_value=-1))}"]


def run_cli(argv):
    """(exit code, stderr) of one in-process CLI call.  An exception other
    than argparse's SystemExit propagates and fails the caller."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class TestExitCodeProperty:
    @settings(max_examples=150, deadline=None)
    @given(commands())
    # The squared closed form once squared 1 + gamma and overflowed.
    @example(
        ["bound", "--family=squared", "--gamma=1e300", "--alpha=0.5", "--surrogate-regret=0.01"]
    )
    @example(
        ["curve", "--family=squared", "--gamma=1e200", "--alpha=0.5", "--quantities=C_star",
         "--grid=3", f"--output={os.devnull}"]
    )
    def test_every_command_exits_0_2_or_3(self, argv):
        code, err = run_cli(argv)
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err
