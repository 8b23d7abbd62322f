#!/usr/bin/env python3
"""Benchmark of the maxgap package: end-to-end metrics or per-layer spans.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload elim-sweep --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

One invocation runs one workload in this process, a closed loop of seeded
trials for ``--seconds``; ``all`` runs each workload in its own child process.
Before the loop, set-up is timed in fresh interpreters, the fast gap bounds are
cross-checked against their references, and trial 0 is run once untimed; the
timed trial 0 must reproduce its trace fingerprints.  Every trial is checked
(``workloads.Workload.problems``).  End-to-end times are corrected for host
contention by the reference kernels of ``hostref.py``, timed between trials.
Human-readable lines come first; the last line is one JSON object with
``correct``, ``attempted`` and ``failed`` (runs) and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is 0 only if every check passed.

With ``--trace 1`` every trial runs with spans recorded at every layer
boundary (see ``tracing.py``) and is replayed untraced next to it; the
difference of the two timed totals is the tracing overhead.  Traced trials and
replays each take about half of ``--seconds``.  Spans are saved
to ``perfbench/out/spans-<workload>.npz``.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads: one workload, one thread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

from hostref import Reference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("elim-sweep", "ucb-every-round", "anytime-sweep")
SETUP_REPEATS = 7
ORACLE_SNAPSHOTS = 30  # per K in 3..8; five of each stress pattern
PROBE_TIMEOUT_S = 60


def trial_seed(seed: int, i: int) -> int:
    return seed * 100_000 + i


def probe_setup_s(workload: str) -> tuple[float, float]:
    """Median set-up time over fresh interpreters (see ``setup_probe.py``),
    corrected for host speed by the reference timed in the same interpreter,
    and the median raw set-up time."""
    raw, corrected = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
            check=True, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        setup_s, host_scale = map(float, out.stdout.split())
        raw.append(setup_s)
        corrected.append(setup_s * host_scale)
    return statistics.median(corrected), statistics.median(raw)


def machine() -> str:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return (
        f"nproc={os.cpu_count()} cpu={cpu!r} numpy={numpy.__version__} "
        f"python={platform.python_version()}"
    )


class Loop:
    """Totals of one closed loop of trials."""

    def __init__(self) -> None:
        self.times: list[float] = []  # per trial, as are the four below
        self.host_scale: list[float] = []  # nominal / reference time around the trial
        self.untraced_times: list[float] = []  # paired replays of traced trials
        self.trial_pulls: list[int] = []
        self.trial_rounds: list[int] = []
        self.runs = self.failed = 0
        self.useful_rounds = self.trace_bytes = self.good_event_failures = 0
        self.crossed_runs = 0
        self.rows = self.csv_bytes = 0
        self.last_checkpoint_wrong: dict[str, int] = {}  # by algorithm
        self.rule_stops = self.wrong_stops = 0
        self.problems: dict[str, int] = {}


RECORD_FIELDS = (
    "round_index", "counts", "upper_right", "upper_left", "upper", "lower",
    "env_l", "env_r", "sampled", "active",
)


def useful_rounds(trace) -> int:
    """Recompute rounds whose result changed what is sampled next, plus the
    round where the stopping rule fired."""
    if trace.round_index.size == 0:
        return 0
    changed = (trace.active != trace.sampled).any(axis=1)
    if trace.stopped_by in ("rule", "early_rule"):
        changed[-1] = True
    return int(changed.sum())


def fingerprints(trial) -> list[str]:
    out = [t.fingerprint() for t in trial.traces]
    if trial.csv_path:
        with open(trial.csv_path, "rb") as fh:
            out.append(fh.read().hex())
    return out


def timed(w, seed: int):
    t0 = perf_counter()
    trial = w.trial(seed)
    return trial, perf_counter() - t0


def run_loop(w, seed: int, seconds: float, expected: list[str], tracer=None) -> Loop:
    """Timed trials until ``seconds`` have passed, each checked untimed.

    Untraced, the workload's host reference is timed before the first trial
    and after each one, and a trial's host scale is the reference's nominal
    time over the mean of the two reference times around the trial.  With a
    tracer, every trial runs traced and is replayed untraced right before or
    after (alternating), so the pair sees the same host load and their
    difference is the tracing overhead."""
    from checks import crossed_records

    loop = Loop()
    ref = Reference(w.REFERENCE)
    ref_before = ref.time()
    deadline = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < deadline:
        if tracer is None:
            trial, dt = timed(w, trial_seed(seed, i))
            ref_after = ref.time()
            loop.host_scale.append(2 * ref.nominal_s / (ref_before + ref_after))
            ref_before = ref_after
        else:
            tracer.current_trial = i
            if i % 2:
                loop.untraced_times.append(timed(w, trial_seed(seed, i))[1])
            with tracer.active():
                trial, dt = timed(w, trial_seed(seed, i))
            if not i % 2:
                loop.untraced_times.append(timed(w, trial_seed(seed, i))[1])
        loop.times.append(dt)

        per_run = w.problems(trial)
        if i == 0 and fingerprints(trial) != expected:
            per_run = [bad + ["not_deterministic"] for bad in per_run]
        for bad in per_run:
            loop.failed += bool(bad)
            for p in bad:
                loop.problems[p] = loop.problems.get(p, 0) + 1
        loop.runs += len(per_run)
        loop.trial_pulls.append(sum(t.total_samples for t in trial.traces))
        loop.trial_rounds.append(sum(t.round_index.size for t in trial.traces))
        for t in trial.traces:
            loop.useful_rounds += useful_rounds(t)
            loop.trace_bytes += sum(getattr(t, f).nbytes for f in RECORD_FIELDS)
            loop.good_event_failures += not t.good_event
            loop.crossed_runs += bool(crossed_records(t).any())
            if t.stopped_by != "budget":
                loop.rule_stops += 1
                loop.wrong_stops += t.clusters[0] != w.instance.top_cluster
            if t.checkpoints and t.checkpoints[-1].clusters[0] != w.instance.top_cluster:
                wrong = loop.last_checkpoint_wrong
                wrong[t.algorithm] = wrong.get(t.algorithm, 0) + 1
        if trial.csv_path:
            loop.rows += trial.rows
            loop.csv_bytes += os.path.getsize(trial.csv_path)
        i += 1
    return loop


def end_to_end(loop: Loop, setup_s: float) -> dict:
    """Times are host-corrected (each trial's time times its host scale).
    Rates are medians of per-trial rates, which a burst of contention on a
    shared host moves less than a ratio of totals."""
    med = statistics.median
    times = [t * s for t, s in zip(loop.times, loop.host_scale)]
    return {
        "samples_per_s": (med(p / t for p, t in zip(loop.trial_pulls, times)), "1/s"),
        "trials_per_s": (len(times) / sum(times), "1/s"),
        "trial_s_p50": (med(times), "s"),
        "us_per_round": (med(t / r * 1e6 for r, t in zip(loop.trial_rounds, times)), "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(loop: Loop, tracer) -> dict:
    """Per-layer metrics from the traced loop.  Counts and times are per
    trial, so a faster layer that lets more trials fit in the run does not
    hide its own saving."""
    from tracing import LAYERS

    s = tracer.summary()
    calls, self_s = s["calls"], s["self_s"]
    n = len(loop.times)
    traced_s = sum(loop.times)
    untraced_s = sum(loop.untraced_times)
    rounds = sum(loop.trial_rounds)

    def per_trial(name):
        return (calls[name] / n, "count/trial"), (self_s[name] / n, "s/trial")

    m = {}
    for metric, name in (
        ("env.sample_block", "env.sample_block"),
        ("confidence.add", "confidence.add"),
        ("confidence.refresh", "confidence.refresh"),
        ("gapbounds.upper_gaps", "gapbounds.upper_gaps"),
        ("gapbounds.lower_max_gap", "gapbounds.lower_max_gap"),
        ("algorithms.report_clusters", "algorithms.report_clusters"),
    ):
        m[f"{metric}.calls"], m[f"{metric}.self_s"] = per_trial(name)
    algo_self = sum(
        v for k, v in self_s.items()
        if k.startswith("algorithms.") and k != "algorithms.report_clusters"
    )
    bound_calls = calls["gapbounds.upper_gaps"] + calls["gapbounds.lower_max_gap"]
    m.update({
        "env.draws": (tracer.draws / n, "count/trial"),
        "env.draws_per_call": (tracer.draws / max(calls["env.sample_block"], 1), "count/call"),
        "confidence.good_event_failures": (loop.good_event_failures / n, "count/trial"),
        "gapbounds.arms_per_call": (tracer.bound_arms / max(bound_calls, 1), "count/call"),
        "algorithms.rounds": (rounds / n, "count/trial"),
        "algorithms.self_s": (algo_self / n, "s/trial"),
        "algorithms.trace_mb": (loop.trace_bytes / loop.runs / 1e6, "MB/run"),
        "algorithms.useful_check_ratio": (loop.useful_rounds / max(rounds, 1), "ratio"),
        "hardness.hardness_report.self_s": (self_s["hardness.hardness_report"], "s"),
        "cli.run_experiment.self_s": (self_s["cli.run_experiment"] / n, "s/trial"),
        "cli.rows": (loop.rows / n, "count/trial"),
        "cli.csv_bytes": (loop.csv_bytes / n, "bytes/trial"),
    })
    for layer in LAYERS:
        if layer == "hardness":  # runs in set-up, outside the timed trials
            continue
        layer_self = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        m[f"{layer}.self_share"] = (layer_self / traced_s, "ratio")
    m["trace.spans"] = (s["spans"] / n, "count/trial")
    m["trace.overhead_s"] = ((traced_s - untraced_s) / n, "s/trial")
    m["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    return m


def run_one(args) -> int:
    setup_s, raw_setup_s = probe_setup_s(args.workload)
    sys.path.insert(0, SRC)
    import checks
    from tracing import Tracer
    from workloads import DELTA, make_workloads

    w = make_workloads(OUT_DIR)[args.workload]
    tracer = Tracer() if args.trace else None
    errors = checks.oracle_problems(args.seed, ORACLE_SNAPSHOTS)
    if tracer is None:
        w.setup()
    else:
        with tracer.active():
            w.setup()
    # Untimed, untraced first run of trial 0: warms caches, feeds the
    # cross-check on recorded rows, and gives the fingerprints that the timed
    # rerun of trial 0 must reproduce.
    warm = w.trial(trial_seed(args.seed, 0))
    expected = fingerprints(warm)
    rows_checked, row_errors = checks.recorded_rows_problems(warm.traces)
    errors += row_errors
    del warm
    loop = run_loop(w, args.seed, args.seconds, expected, tracer)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# machine: {machine()}")
    print(
        f"# {len(loop.times)} trials, {loop.runs} runs, {sum(loop.trial_pulls)} pulls, "
        f"{sum(loop.trial_rounds)} recompute rounds, {sum(loop.times):.3f} s timed; "
        f"cross-check: {rows_checked} recorded rows, K=3..8 oracle x{ORACLE_SNAPSHOTS}"
    )
    if tracer is None:
        metrics = end_to_end(loop, setup_s)
        print(
            f"# host reference {'+'.join(w.REFERENCE)}: median scale "
            f"{statistics.median(loop.host_scale):.4f}; uncorrected medians: "
            f"trial_s_p50={statistics.median(loop.times):.6g} s, "
            f"us_per_round={statistics.median(t / r * 1e6 for t, r in zip(loop.times, loop.trial_rounds)):.6g} us, "
            f"setup_s={raw_setup_s:.6g} s"
        )
    else:
        metrics = per_layer(loop, tracer)
        tracer.save(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"))
    w.close()

    for name, (value, unit) in metrics.items():
        note = f" (median of {len(loop.times)} trials)" if name == "trial_s_p50" else ""
        print(f"{name:36s} {value:>16.6g} {unit}{note}")
    print(f"{'failed_share':36s} {loop.failed / loop.runs:>16.6g} ratio ({loop.failed} of {loop.runs} runs)")
    if loop.crossed_runs:
        print(
            f"# {loop.crossed_runs} runs had a crossed envelope (bad event); "
            "their upper-bound invariants were checked up to the crossing"
        )
    if loop.last_checkpoint_wrong:
        print(
            "# wrong top cluster at the last checkpoint (anytime error, not a failure): "
            + ", ".join(f"{a} {n}" for a, n in sorted(loop.last_checkpoint_wrong.items()))
            + f" of {len(loop.times)} runs each"
        )
    if loop.wrong_stops:
        print(
            f"# {loop.wrong_stops} of {loop.rule_stops} rule-stopped runs answered wrong "
            "(allowed after a bad event, up to a share of delta)"
        )
    if loop.wrong_stops > DELTA * loop.rule_stops:
        errors.append(f"wrong answers in more than a share {DELTA} of rule-stopped runs")
    for problem, count in sorted(loop.problems.items()):
        print(f"FAIL {problem}: {count} runs")
    for err in errors:
        print(f"FAIL {err}")
    correct = loop.failed == 0 and not errors
    print(json.dumps({
        "correct": correct,
        "attempted": loop.runs,
        "failed": loop.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to one workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=3 * args.seconds + 120,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "maxgap", "__init__.py")):
        sys.stderr.write(f"perfbench: no maxgap package under {SRC}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
