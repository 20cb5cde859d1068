"""End-to-end CLI behavior: exit codes, CSV/JSON output, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import costcal.cli
from costcal import (
    ALPHA_SIGMOID_GAMMA2, FAMILIES, BoundTrialRecord, CostParam, SampledCurve, biconjugate,
    constrained_optimal_risk, h_alpha, mu_curve, nu_curve, optimal_conditional_risk,
)
from costcal.cli import QUANTITIES, _curve_csv, build_parser, main

from conftest import uneven


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
        xs, ys = zip(*points)
        curve = SampledCurve(xs[-1], xs, ys, ["both"] * len(points))
        assert biconjugate(curve).hull_knots == tuple(points)

    def test_unknown_quantity_is_usage_error(self, capsys, tmp_path):
        code = main(self.curve_args(tmp_path / "x.csv", "H,banana"))
        assert code == 2

    def test_unwritable_path_is_usage_error(self, capsys, tmp_path):
        code = main(self.curve_args(tmp_path / "missing" / "x.csv", "H"))
        assert code == 2

    def test_empty_quantity_list_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        assert main(self.curve_args(out, ",")) == 2
        assert capsys.readouterr().err == "error: at least one quantity is required\n"
        assert not out.exists()

    @pytest.mark.parametrize("quantity", ["H", "C_star", "C_minus", "nu"])
    @pytest.mark.parametrize("grid", ["-1", "0", "2"])
    def test_grid_below_three_is_usage_error(self, capsys, tmp_path, quantity, grid):
        out = tmp_path / "x.csv"
        assert main(self.curve_args(out, quantity, grid=grid)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def reference_curve_csv(loss, cost, grid) -> bytes:
    """The curve CSV of all six quantities as the sorting writer made it:
    every row built, then sorted by (quantity, x, side != "left"), one
    ``.17g`` per field."""
    etas = np.union1d(np.linspace(0.0, 1.0, grid), [cost.alpha])
    columns = {
        "H": h_alpha(loss, cost, etas),
        "C_star": optimal_conditional_risk(loss, etas),
        "C_minus": constrained_optimal_risk(loss, cost, etas),
    }
    rows = [(q, x, v, "both") for q, col in columns.items() for x, v in zip(etas.tolist(), col.tolist())]
    nu = nu_curve(loss, cost, grid)
    rows += [(q, k.eps, k.value, k.side) for q, c in (("nu", nu), ("mu", mu_curve(nu))) for k in c.knots]
    rows += [("psi", x, v, "both") for x, v in biconjugate(nu).hull_knots]
    rows.sort(key=lambda r: (r[0], r[1], r[3] != "left"))
    text = "".join(f"{format(x, '.17g')},{q},{format(v, '.17g')},{side}\n" for q, x, v, side in rows)
    return ("x,quantity,value,side\n" + text).encode()


class TestCurveWriter:
    """The CSV rows keep the sorting writer's bytes without the sort."""

    # alpha = 0.5 puts the left/right pair on the last knot (b_min == B).
    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_bytes_equal_the_sorting_writer(self, tmp_path, family, alpha):
        quantities = list(QUANTITIES)
        random.Random(f"{family}{alpha}").shuffle(quantities)
        out = tmp_path / "curve.csv"
        argv = [
            "curve", "--family", family, "--gamma", "2", "--alpha", repr(alpha),
            "--quantities", ",".join(quantities), "--grid", "201", "--output", str(out),
        ]
        assert main(argv) == 0
        assert out.read_bytes() == reference_curve_csv(uneven(family, 2.0), CostParam(alpha), 201)

    def test_signed_zeros_in_one_block(self):
        columns = {"nu": ((-0.0, 0.0, 0.5, 0.5), (0.0, -0.0, -0.0, 0.0), ("both",) * 4)}
        assert _curve_csv(columns) == (
            "x,quantity,value,side\n"
            "-0,nu,0,both\n0,nu,-0,both\n0.5,nu,-0,both\n0.5,nu,0,both\n"
        )

    def test_blocks_in_quantity_name_order(self):
        columns = {q: ((0.25,), (1.0,), ("both",)) for q in QUANTITIES}
        names = [line.split(",")[1] for line in _curve_csv(columns).splitlines()[1:]]
        assert names == ["C_minus", "C_star", "H", "mu", "nu", "psi"]


def formatted_curve_csv(columns: dict) -> str:
    """The curve CSV by its definition: each field's ``.17g`` string, rows
    by quantity name, then in column order."""
    lines = ["x,quantity,value,side\n"]
    for q in sorted(columns):
        xs, values, sides = columns[q]
        lines += [f"{x:.17g},{q},{v:.17g},{side}\n" for x, v, side in zip(xs, values, sides)]
    return "".join(lines)


SPECIAL_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
    struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0],  # a NaN with a payload
    5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 123456789012345678.0,
]


@st.composite
def curve_columns(draw) -> dict:
    """Curve columns of a few quantities.  Floats come from a pool shared
    by every column (so values repeat across quantities and between x and
    value columns), from the special floats, and from all floats."""
    anything = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    pool = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), anything), min_size=1, max_size=6))
    number = st.one_of(st.sampled_from(pool), st.sampled_from(SPECIAL_FLOATS), anything)
    columns = {}
    for q in draw(st.lists(st.sampled_from(QUANTITIES), min_size=1, max_size=6, unique=True)):
        n = draw(st.integers(0, 12))
        rows = st.lists(number, min_size=n, max_size=n)
        sides = draw(st.lists(st.sampled_from(["left", "right", "both"]), min_size=n, max_size=n))
        columns[q] = (draw(rows), draw(rows), sides)
    return columns


class TestCurveWriterOnDrawnColumns:
    """The column writer writes each field as its own ``.17g`` string, on
    any floats: signed zeros, NaN payloads and repeats included."""

    @given(curve_columns())
    @settings(max_examples=300, deadline=None)
    def test_equals_per_field_formatting(self, columns):
        expected = formatted_curve_csv(columns)
        assert _curve_csv(columns) == expected
        arrays = {
            q: (np.array(xs, float), np.array(values, float), np.array(sides, object))
            for q, (xs, values, sides) in columns.items()
        }
        assert _curve_csv(arrays) == expected

    def test_special_floats_each_once_per_bit_pattern(self):
        floats = SPECIAL_FLOATS
        columns = {"nu": (floats, floats[::-1], ["both"] * len(floats))}
        text = _curve_csv(columns)
        assert text == formatted_curve_csv(columns)
        assert text.splitlines()[1:3] == ["0,nu,1.2345678901234568e+17,both", "-0,nu,10000000000000000,both"]
        assert "nan,nu,-1.7976931348623157e+308,both" in text
        assert "4.9406564584124654e-324,nu," in text


class TestCachedParser:
    """One parser serves every call in a process; no call leaks into the next."""

    COMMANDS = [
        ["check", "--family", "logistic", "--gamma", "1", "--alpha", "0.5"],
        ["check", "--family", "hinge", "--gamma", "0", "--alpha", "0.3"],
        ["check", "--family", "hinge", "--gamma", "2", "--alpha", "0.3", "--weighted"],
        ["bound", "--family", "squared", "--beta", "1", "--gamma", "1", "--alpha", "0.5",
         "--surrogate-regret", "0.04"],
        ["curve", "--family", "exponential", "--gamma", "2", "--alpha", "0.3",
         "--quantities", "nu,mu,psi", "--grid", "51", "--output", "CSV"],
        ["alpha-gamma", "--gamma-min", "0.5", "--gamma-max", "2", "--points", "5",
         "--output", "CSV"],
        ["verify", "--suite", "closed_forms"],
    ]

    @staticmethod
    def outcome(argv, path):
        out, err = io.StringIO(), io.StringIO()
        argv = [str(path) if a == "CSV" else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        written = path.read_bytes() if path.exists() else None
        return code, out.getvalue(), err.getvalue(), written

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_each_command_as_when_run_alone(self, tmp_path):
        in_turn = [self.outcome(argv, tmp_path / f"turn{i}.csv") for i, argv in enumerate(self.COMMANDS)]
        alone = []
        for i, argv in enumerate(self.COMMANDS):
            build_parser.cache_clear()
            alone.append(self.outcome(argv, tmp_path / f"alone{i}.csv"))
        assert [code for code, *_ in in_turn] == [2, 2, 0, 0, 0, 0, 0]
        assert "invalid choice" in in_turn[0][2] and in_turn[1][2].startswith("error: ")
        assert in_turn == alone


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

    def test_tiny_gamma_min_error_names_it(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code = main(
            ["alpha-gamma", "--gamma-min", "1e-300", "--gamma-max", "2",
             "--points", "3", "--output", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "gamma=1e-300 " in err
        assert not out.exists()

    def test_infinite_gamma_max_is_usage_error_without_warnings(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code = main(
            ["alpha-gamma", "--gamma-min", "1", "--gamma-max", "inf",
             "--points", "3", "--output", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestVerify:
    def test_identities_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "identities")
        assert code == 0
        summary = json.loads(out)
        assert summary["all_passed"]
        assert summary["checks"] == [
            {"name": "alpha_transform_identity", "passed": 315, "failed": 0}
        ]

    def test_closed_forms_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "closed_forms")
        assert code == 0
        summary = json.loads(out)
        assert summary["all_passed"]
        assert summary["checks"] == [
            {"name": "closed_forms_vs_oracle", "passed": 84, "failed": 0}
        ]

    def test_failing_check_exits_three(self, capsys, monkeypatch):
        # One failing fuzz trial per family stands in for the 4,000-trial suite.
        failing = BoundTrialRecord(1, "hinge", 0.3, 2.0, 0.1, 0.01, 0.05, False)
        monkeypatch.setattr(costcal.cli, "fuzz_bound", lambda seed, family, n: [failing])
        code, out = run(capsys, "verify", "--suite", "bounds")
        assert code == 3
        summary = json.loads(out)
        assert summary["all_passed"] is False
        assert summary["checks"] == [{"name": "regret_bound_fuzz", "passed": 0, "failed": 4}]


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
#: (0, 1).
SIGMOID_FLAGS = st.sampled_from(
    [ALPHA_SIGMOID_GAMMA2] + [a for a in EDGE if not 0.0 < a < 1.0]
).map(lambda a: ["--family=sigmoid", "--gamma=2", f"--alpha={a!r}"])
#: A sigmoid at a drawn gamma and alpha: a numeric verdict, nearly always a
#: negative one (0.03-0.35 s each in process).
SIGMOID_DRAWN = loss_flags(("sigmoid",))
REGRET = flag("surrogate-regret", st.floats(0.0, 1.0))


@st.composite
def commands(draw, out=os.devnull):
    kind = draw(st.sampled_from(("check", "bound", "alpha-gamma", "curve", "verify")))
    if kind in ("check", "bound"):
        argv = [kind] + draw(st.one_of(loss_flags(CONVEX), SIGMOID_FLAGS, SIGMOID_DRAWN))
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
    # The oracle path once printed numpy overflow warnings at gamma = 1e300,
    # and alpha-gamma once warned on an infinite --gamma-max before exiting 2.
    @example(
        ["curve", "--family=squared", "--gamma=1e300", "--beta=1", "--alpha=0.5",
         "--quantities=C_star", "--grid=3", f"--output={os.devnull}"]
    )
    @example(
        ["curve", "--family=exponential", "--gamma=1e300", "--beta=2", "--alpha=0.5",
         "--quantities=C_star", "--grid=3", f"--output={os.devnull}"]
    )
    @example(
        ["alpha-gamma", "--gamma-min=1", "--gamma-max=inf", "--points=3",
         f"--output={os.devnull}"]
    )
    # The exponential and sigmoid closed forms once overflowed at tiny posteriors.
    @example(
        ["curve", "--family=exponential", "--gamma=1e-300", "--alpha=1e-320",
         "--quantities=H,C_star", "--grid=3", f"--output={os.devnull}"]
    )
    @example(
        ["curve", "--family=sigmoid", "--gamma=2", "--alpha=1e-300",
         "--quantities=H,C_star", "--grid=3", f"--output={os.devnull}"]
    )
    # A weighted loss whose negative weight alpha * beta underflows to 0
    # once evaluated 0 * inf on the grid and wrote NaN with exit code 0.
    @example(
        ["curve", "--family=squared", "--gamma=1e+300", "--alpha=1e-320", "--weighted",
         "--quantities=H", "--grid=3", f"--output={os.devnull}"]
    )
    def test_every_command_exits_0_2_or_3(self, argv):
        code, err = run_cli(argv)
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err

    # Counts past any address space: numpy once raised MemoryError at 10**15,
    # IndexError at 2**63 - 1 and ValueError at 10**19.  Every allocation
    # here fails at once, so no memory is taken.
    @pytest.mark.parametrize("count", [10**15, 2**63 - 1, 10**19])
    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--family=hinge", "--gamma=2", "--alpha=0.3", "--quantities=H,nu", "--grid"],
            ["alpha-gamma", "--gamma-min=1", "--gamma-max=2", "--points"],
        ],
    )
    def test_a_huge_count_exits_2(self, argv, count):
        code, err = run_cli([*argv, str(count), f"--output={os.devnull}"])
        assert code == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_a_failed_allocation_exits_2_and_writes_nothing(self, monkeypatch, tmp_path):
        # An allocation numpy cannot satisfy is an input error; a bare
        # MemoryError carries no message, so its type name is printed.
        def out_of_memory(gamma):
            raise MemoryError

        monkeypatch.setattr(costcal.cli, "alpha_of_gamma", out_of_memory)
        out = tmp_path / "alpha.csv"
        code, err = run_cli(
            ["alpha-gamma", "--gamma-min=1", "--gamma-max=2", "--points=3", f"--output={out}"]
        )
        assert (code, err) == (2, "error: MemoryError\n")
        assert not out.exists()
