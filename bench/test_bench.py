"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import steady  # noqa: E402
from spans import Tracer, WorkCounter, counted_loss, parse_importtime, self_seconds  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_run_reports():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer(WorkCounter())
    tracer.task = 7
    with tracer.span("outer"):
        tracer.call("inner", sum, range(1000))
        tracer.call("inner", sum, range(1000))
    outer, first, second = tracer.spans
    assert (first.parent, second.parent, outer.parent) == (0, 0, -1)
    assert {s.task for s in tracer.spans} == {7}
    durations = [s.end - s.start for s in tracer.spans]
    own = self_seconds(tracer.spans, durations)
    assert own[0] == pytest.approx(durations[0] - durations[1] - durations[2])


def test_counted_loss_counts_partial_work_and_keeps_the_family_tag():
    from costcal import UnevenMarginSpec, make_uneven_loss, optimal_conditional_risk
    from costcal.oracle import brute_force_min

    counter = WorkCounter()
    loss = counted_loss(make_uneven_loss(UnevenMarginSpec("squared", 0.5, 2.0)), counter)
    assert loss.family is not None
    optimal_conditional_risk(loss, 0.3)  # closed form
    assert counter.snapshot() == (0, 0, 0)
    brute_force_min(loss, 0.3)
    calls, points, scalar = counter.snapshot()
    assert calls > scalar > 0 and points > calls


def test_importtime_parser_keeps_cumulative_times():
    text = "import time: self [us] | cumulative | imported package\n" \
           "import time:       120 |        450 |   costcal.losses\n" \
           "import time:        80 |       2000 | costcal\n"
    assert parse_importtime(text) == {"costcal.losses": 0.45, "costcal": 2.0}


def test_spread_is_interquartile_distance_over_median():
    stats = steady.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert stats["median"] == 3.0
    assert stats["spread"] == pytest.approx((stats["q3"] - stats["q1"]) / 3.0)


def test_traced_counts_repeat_and_closed_form_evaluates_no_partial_loss():
    from workloads import WORKLOADS

    counts = ("losses.partial_calls", "losses.partial_points", "oracle.scalar_calls_per_search",
              "losses.clamped_gaps", "curves.nu_knots", "curves.hull_knots")
    fuzz = WORKLOADS["fuzz"]._replace(traced_cycles=2)
    first, _, failures, _ = run.traced(fuzz, 3)
    second, _, _, _ = run.traced(fuzz, 3)
    assert not failures
    assert first["losses.partial_calls"] > 0
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    closed, _, failures, extra = run.traced(WORKLOADS["closed_form"]._replace(traced_cycles=1), 3)
    assert not failures and not extra
    assert closed["losses.partial_calls"] == 0


def test_result_line_follows_the_contract():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz", "--seed", "2", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
