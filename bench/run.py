"""The costcal benchmark: one workload per run, untraced or traced.

    python3 bench/run.py --workload closed_form --seed 1 --seconds 35 --trace 0

Run from the repository root; the library is imported from ``src/``.
Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``closed_form``,
``oracle`` and ``fuzz``.

``--trace 0`` measures the end-to-end metrics: a closed loop of the
workload's tasks for ``--seconds``, rounded up to whole rounds of the
family rotation, with fresh-interpreter launches for the set-up time
spread over it.  Task times are scaled to nominal machine speed
(``speed.py``), and each set-up launch by a reference launch.
``--trace 1`` runs a fixed number of the seed's task cycles three times:
untraced, traced, and with counted partial losses.  It derives the
per-layer times from the traced pass's spans and the counts from the
counted pass; the spans are written to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 when
every check passed, 1 when one failed, 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Set-up launch pairs per run, spread over it; set-up time is their scaled median.
SETUP_LAUNCHES = 7
#: The reference launch: the libraries costcal imports, without costcal.
#: A neighbour's load slows it about as much as it slows the set-up launch.
REFERENCE_IMPORT = "import numpy, scipy.special"
#: Nominal wall time of the reference launch.  Any constant works; this is
#: about its time on an idle 2-core x86-64 machine with Python 3.11.
REFERENCE_LAUNCH_S = 0.45
#: ``-X importtime`` launches per traced run; each module's median is kept.
IMPORT_LAUNCHES = 3

END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer times: the mean over the spans of one name.
LAYER_TIMES = {
    "cli.main_ms": ("cli.main", 1e3, "ms"),
    "families.closed_forms_us": ("families.closed_forms", 1e6, "us"),
    "families.alpha_of_gamma_us": ("families.alpha_of_gamma", 1e6, "us"),
    "losses.h_alpha_closed_us": ("losses.h_alpha_closed", 1e6, "us"),
    "losses.h_alpha_oracle_us": ("losses.h_alpha_oracle", 1e6, "us"),
    "losses.c_star_oracle_us": ("losses.c_star_oracle", 1e6, "us"),
    "losses.c_minus_oracle_us": ("losses.c_minus_oracle", 1e6, "us"),
    "oracle.brute_force_min_us": ("oracle.brute_force_min", 1e6, "us"),
    "oracle.fuzz_trial_ms": ("oracle.fuzz_bound", 1e3, "ms"),
    "oracle.empirical_regrets_us": ("oracle.empirical_regrets", 1e6, "us"),
    "curves.nu_curve_ms": ("curves.nu_curve", 1e3, "ms"),
    "curves.biconjugate_ms": ("curves.biconjugate", 1e3, "ms"),
    "curves.envelope_invert_us": ("curves.envelope_invert", 1e6, "us"),
    "curves.envelope_eval_us": ("curves.envelope_eval", 1e6, "us"),
    "curves.regret_bound_ms": ("curves.regret_bound", 1e3, "ms"),
    "calibration.analytic_us": ("calibration.analytic", 1e6, "us"),
    "calibration.numeric_ms": ("calibration.numeric", 1e3, "ms"),
    "calibration.uniform_fn_ms": ("calibration.uniform_fn", 1e3, "ms"),
    "calibration.mu_curve_us": ("calibration.mu_curve", 1e6, "us"),
}

#: ``-X importtime`` module -> per-layer metric.
IMPORT_METRICS = {
    "costcal": "costcal.import_ms",
    "costcal.errors": "errors.import_ms",
    "costcal.losses": "losses.import_ms",
    "costcal.families": "families.import_ms",
    "costcal.curves": "curves.import_ms",
    "costcal.calibration": "calibration.import_ms",
    "costcal.oracle": "oracle.import_ms",
    "costcal.cli": "cli.import_ms",
}

PER_LAYER = {
    **{name: unit for name, (_, _, unit) in LAYER_TIMES.items()},
    "cli.overhead_ms": "ms",
    "calibration.verdict_share": "ratio",
    "losses.partial_calls": "count",
    "losses.partial_points": "count",
    "losses.points_per_call": "count",
    "losses.clamped_gaps": "count",
    "losses.clamped_gap_max": "risk",
    "oracle.scalar_calls_per_search": "count",
    "curves.nu_knots": "count",
    "curves.hull_knots": "count",
    **{name: "ms" for name in IMPORT_METRICS.values()},
    "trace.overhead_frac": "ratio",
}


def library_present() -> bool:
    return (SRC / "costcal" / "__init__.py").is_file()


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def launch_seconds(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        cwd=ROOT,
        check=True,
        capture_output=True,
        timeout=60,
    )
    return time.perf_counter() - start


def setup_launch() -> tuple[float, float]:
    """Wall times of a reference launch and of a set-up launch right after it.

    The set-up launch is a fresh interpreter importing costcal and its CLI.
    """
    reference = launch_seconds(REFERENCE_IMPORT)
    return reference, launch_seconds("import costcal, costcal.cli")


def execute(task, ctx) -> str | None:
    """Run one task; the failure message, or None when its checks pass."""
    from workloads import CheckFailed

    try:
        task.run(ctx)
    except CheckFailed as exc:
        return f"{task.kind} [{task.what}]: {exc}"
    except Exception as exc:  # a task that raises counts as failed, the loop goes on
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return (
            f"{task.kind} [{task.what}]: raised {type(exc).__name__}: {exc} "
            f"at {Path(where.filename).name}:{where.lineno}"
        )
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_tasks(tasks, ctx, meter, failures: list) -> list[tuple[float, float]]:
    """Run tasks one after another; their (start, end) times."""
    intervals = []
    for task in tasks:
        meter.sample()
        start = time.perf_counter()
        failure = execute(task, ctx)
        intervals.append((start, time.perf_counter()))
        if failure:
            failures.append(failure)
    return intervals


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, int, list[str]]:
    from spans import NullTracer
    from speed import SpeedMeter
    from workloads import Context, cycles

    ctx = Context(NullTracer(), OUT)
    meter = SpeedMeter()
    gen = cycles(workload, seed)
    failures: list[str] = []
    warm = next(gen)
    timed_tasks(warm, ctx, meter, failures)
    launches: list[tuple[float, float]] = []
    rounds: list[list[tuple[float, float]]] = []
    start = time.perf_counter()
    # Whole rounds of the family rotation only, so every run does the same
    # mix of task kinds.  The set-up launches are spread over the run.
    while (now := time.perf_counter() - start) < seconds:
        rounds.append([])
        for _ in range(workload.period):
            if now >= len(launches) * seconds / SETUP_LAUNCHES and len(launches) < SETUP_LAUNCHES:
                launches.append(setup_launch())
            rounds[-1] += timed_tasks(next(gen), ctx, meter, failures)
            now = time.perf_counter() - start
    while len(launches) < SETUP_LAUNCHES:
        launches.append(setup_launch())
    meter.sample(force=True)
    scaled = [[meter.scale(a, b) for a, b in r] for r in rounds]
    latencies = [x for r in scaled for x in r]
    deciles = statistics.quantiles(latencies, n=10)
    values = {
        "setup_s": statistics.median(t * REFERENCE_LAUNCH_S / r for r, t in launches),
        # The median over rounds outvotes rounds that a neighbour's burst
        # slowed more than the speed reference did.
        "tasks_per_s": statistics.median(len(r) / sum(r) for r in scaled),
        "task_p50_ms": deciles[4] * 1e3,
        "task_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    raw = sum(b - a for r in rounds for a, b in r)
    print(f"{workload.name}: {len(latencies)} timed tasks in {len(rounds)} rounds, seed {seed}; "
          f"task time {raw:.3f} s, {sum(latencies):.3f} s at nominal speed")
    beyond = sum(x > deciles[8] for x in latencies)
    print(f"  task latency samples: {len(latencies)}, beyond p90: {beyond}")
    references, setups = zip(*launches)
    print(f"  set-up launches: {len(launches)}, median {statistics.median(setups):.4f} s, "
          f"reference launch median {statistics.median(references):.4f} s")
    return values, len(latencies) + len(warm), failures


def _mean(values) -> float:
    return sum(values) / len(values)


def span_times(spans, seconds) -> dict:
    """Per-layer times from one pool of spans.

    ``seconds(span)`` is the span's duration at nominal machine speed.
    Holds only the times whose layers the spans reach.
    """
    values = {}
    for metric, (name, scale, _) in LAYER_TIMES.items():
        durations = [seconds(s) for s in spans if s.name == name]
        if durations:
            values[metric] = _mean(durations) * scale

    by_task: dict = {}
    for s in spans:
        by_task.setdefault(s.task, []).append(s)

    def total(task_spans, *names) -> float:
        return sum(seconds(s) for s in task_spans if s.name in names)

    overheads, verdicts, bounds = [], 0.0, 0.0
    for task_spans in by_task.values():
        main, pair = total(task_spans, "cli.main"), total(task_spans, "lib.pair")
        if main and pair:
            overheads.append(main - pair)
        bound = total(task_spans, "curves.regret_bound")
        if bound:
            verdicts += total(task_spans, "calibration.analytic", "calibration.numeric")
            bounds += bound
    if overheads:
        values["cli.overhead_ms"] = _mean(overheads) * 1e3
    if bounds:
        values["calibration.verdict_share"] = verdicts / bounds
    return values


def layer_metrics(spans, seconds, counting, gaps, imports: dict, overhead: float) -> tuple:
    """Per-layer metrics, and where each time came from.

    Times are means over the workload's own ``spans``.  A time whose layer
    the workload never reaches is read from the probe spans, so that the
    traced run reports every per-layer metric.  Counts come from the
    ``counting`` tracer's pass over the same tasks, without the probes.
    """
    own = span_times([s for s in spans if s.task != "probe"], seconds)
    probe = span_times([s for s in spans if s.task == "probe"], seconds)
    values = {**probe, **own}
    source = {name: "workload" if name in own else "probe" for name in values}

    tasks = [s for s in counting.spans if s.name.startswith("task.")]
    calls = sum(s.calls for s in tasks)
    points = sum(s.points for s in tasks)
    searches = [
        s for s in counting.spans if s.name in ("oracle.brute_force_min", "losses.c_star_oracle")
    ]
    values.update(
        {
            "losses.partial_calls": calls,
            "losses.partial_points": points,
            "losses.points_per_call": points / calls if calls else 0.0,
            "losses.clamped_gaps": gaps.count,
            "losses.clamped_gap_max": gaps.worst,
            "oracle.scalar_calls_per_search": (
                sum(s.scalar_calls for s in searches) / len(searches) if searches else 0.0
            ),
            "trace.overhead_frac": overhead,
        }
    )
    for name in ("curves.nu_knots", "curves.hull_knots"):
        samples = counting.tallies.get(name)
        values[name] = _mean(samples) if samples else 0
    for module, metric in IMPORT_METRICS.items():
        values[metric] = imports[module]
    return values, source


def traced_pass(tracer, ctx, tasks, meter, failures: list, label=None) -> None:
    """Run tasks under ``tracer``, one ``task.<kind>`` span each.

    Spans carry the task's index, or ``label`` when one is given.
    """
    for i, task in enumerate(tasks):
        tracer.task = i if label is None else label
        meter.sample()
        with tracer.span("task." + task.kind):
            failure = execute(task, ctx)
        if failure:
            failures.append(failure)


def traced(workload, seed: int) -> tuple[dict, int, list[str], list[str]]:
    """The seed's first cycles three times: untraced, traced, and counted.

    The traced pass times spans on the losses as the library builds them,
    then runs the probes.  The counted pass repeats the tasks with every
    loss's partial losses wrapped by a counter, and gives the counts; its
    wrapper cost stays out of the per-layer times.
    """
    from spans import NullTracer, Span, Tracer, WorkCounter, counted_loss, import_times
    from spans import layer_table
    from speed import SpeedMeter
    from workloads import Context, cycles, probe_tasks

    gen = cycles(workload, seed)
    warm = next(gen)
    tasks = [task for _ in range(workload.traced_cycles) for task in next(gen)]
    meter = SpeedMeter()
    failures: list[str] = []

    plain = Context(NullTracer(), OUT)
    timed_tasks(warm, plain, meter, failures)
    untraced = timed_tasks(tasks, plain, meter, failures)

    tracer = Tracer(WorkCounter())
    traced_pass(tracer, Context(tracer, OUT), tasks, meter, failures)
    own_spans = len(tracer.spans)
    probes = probe_tasks()
    traced_pass(tracer, Context(tracer, OUT), probes, meter, failures, label="probe")
    meter.sample(force=True)

    counter = WorkCounter()
    counting = Tracer(counter)
    ctx = Context(counting, OUT, instrument=lambda loss: counted_loss(loss, counter))
    traced_pass(counting, ctx, tasks, meter, failures)
    if [s.name for s in counting.spans] != [s.name for s in tracer.spans[:own_spans]]:
        raise RuntimeError("the counted pass made other calls than the traced pass")
    # The traced pass's spans with the counted pass's work.
    spans = [
        s._replace(calls=c.calls, points=c.points, scalar_calls=c.scalar_calls)
        for s, c in zip(tracer.spans, counting.spans)
    ]
    spans += tracer.spans[own_spans:]

    def seconds(span) -> float:
        return meter.scale(span.start, span.end)

    own = spans[:own_spans]
    durations = [seconds(s) for s in own]
    untraced_s = sum(meter.scale(a, b) for a, b in untraced)
    traced_s = sum(d for s, d in zip(own, durations) if s.parent < 0)
    imports = import_times(sys.executable, child_env(), str(ROOT), IMPORT_LAUNCHES)
    values, source = layer_metrics(
        spans, seconds, counting, ctx.gaps, imports, traced_s / untraced_s - 1.0
    )
    extra = []
    if workload.name == "closed_form" and values["losses.partial_calls"]:
        extra.append(
            f"closed_form made {values['losses.partial_calls']} partial-loss evaluations; "
            "its requests must be served by closed forms"
        )

    table = layer_table(own, durations)
    print(f"{workload.name}: {len(tasks)} traced tasks, seed {seed}; at nominal speed "
          f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s")
    print(f"  {'span':32s} {'calls':>8s} {'total_ms':>11s} {'self_ms':>11s} {'partial':>9s}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        print(f"  {name:32s} {row['calls']:8d} {row['total_ms']:11.3f} {row['self_ms']:11.3f} "
              f"{row['partial_calls']:9d}")
    dump = {
        "workload": workload.name,
        "seed": seed,
        "span_fields": list(Span._fields),
        "spans": [list(s) for s in spans],
        "speed_samples": list(zip(meter.times, meter.samples)),
        "layer_table": table,
        "metrics": values,
        "metric_source": source,
    }
    with open(OUT / f"trace-{workload.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(dump, fh)
    return values, 3 * len(tasks) + len(warm) + len(probes), failures, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("closed_form", "oracle", "fuzz"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not library_present():
        print(f"error: the costcal sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import costcal
    from workloads import WORKLOADS

    if Path(costcal.__file__).resolve().parent != SRC / "costcal":
        print(f"error: costcal imported from {costcal.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        values, attempted, failures, extra = traced(workload, args.seed)
        units = PER_LAYER
    else:
        values, attempted, failures = end_to_end(workload, args.seed, args.seconds)
        extra = []
        units = END_TO_END
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:>16.6g} {unit}")
    frac = len(failures) / attempted
    print(f"  {'failed_frac':34s} {frac:>16.6g} ratio ({len(failures)} of {attempted} tasks)")
    for failure in failures[:20] + extra:
        print(f"  FAILED {failure}")
    correct = not failures and not extra
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
