"""The three benchmark workloads.

Each workload builds its inputs once (``setup``), then runs seeded trials back
to back in one process (a closed loop: the next trial starts when the last
one returns).  ``trial`` is the timed unit of work; ``problems`` is the
untimed correctness gate for one trial, returning the problems found per
algorithm run.

- ``elim-sweep``: the paper's coverage and correctness sweep, a
  fixed-confidence elimination run on the 24-arm two-gap instance with the
  geometric recompute schedule.  Few, very large sampling blocks, so the
  random-number generation in ``env`` dominates.
- ``ucb-every-round``: both UCB variants on the 90-arm, sigma 0.05 profile
  with bounds recomputed after every round, up to a fixed budget.  One or two
  arms are sampled per round, so ``gapbounds`` at K=90 dominates and ``env``
  does almost nothing; the per-round trace records stress memory.
- ``anytime-sweep``: ``cli.run_experiment`` on two-gap with four algorithms
  and 32 log-spaced checkpoints, the path CLI users run.  Sampling is split
  at every checkpoint crossing, ``report_clusters`` runs at each checkpoint,
  and the CSV is written.

A trial is one algorithm run on ``elim-sweep``, one run of each UCB variant
on ``ucb-every-round`` and one ``run_experiment`` call (four runs) on
``anytime-sweep``.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace

import numpy as np

from maxgap import algorithms, cli, env, hardness
from maxgap.algorithms import RunConfig

from checks import elimination_problems, trace_problems

DELTA = 0.1


def trial_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def wrong_under_good_event(trace, instance) -> bool:
    """Whether a run that stopped by its rule broke its guarantee.

    The stopping rules are delta-PAC: the answer is right whenever the good
    event holds (every envelope holds its arm's true mean, which has
    probability at least 1 - delta).  After a bad event a wrong answer is
    allowed (elim-sweep trial seed 1600026 stops at 44k pulls on the 0.98
    gap), so it is not a failed run; ``run.py`` counts such answers and
    fails the benchmark if their share of rule-stopped runs exceeds delta."""
    return trace.good_event and trace.clusters[0] != instance.top_cluster


@dataclass
class Trial:
    """What one timed trial produced: a trace per algorithm run, plus the CSV
    path and row count on the CLI workload."""

    traces: list
    rows: int = 0
    csv_path: str = ""


class Workload:
    """One workload: ``setup`` once, then ``trial`` per seed, each trial
    checked by ``problems``."""

    # Host reference kernels (``hostref.py``) that match this workload's work.
    REFERENCE: tuple[str, ...] = ("numpy_calls", "draws")

    def __init__(self, name: str) -> None:
        self.name = name

    def setup(self) -> None:
        raise NotImplementedError

    def trial(self, seed: int) -> Trial:
        raise NotImplementedError

    def problems(self, trial: Trial) -> list[list[str]]:
        raise NotImplementedError

    def close(self) -> None:
        """Remove what the workload wrote."""

    def _hardness(self) -> None:
        hardness.hardness_report(self.instance, DELTA)


class ElimSweep(Workload):
    REFERENCE = ("draws",)

    def setup(self) -> None:
        self.instance = env.build_two_gap_instance()
        self.config = RunConfig(delta=DELTA, budget_cap=60_000_000, check_growth=1.02)
        self._hardness()

    def trial(self, seed: int) -> Trial:
        run = algorithms.ALGORITHMS["maxgap-elim"]
        return Trial([run(self.instance, self.config, trial_rng(seed))])

    def problems(self, trial: Trial) -> list[list[str]]:
        (trace,) = trial.traces
        bad = trace_problems(trace, self.instance)
        bad += elimination_problems(trace, self.instance)
        if trace.truncated:
            bad.append("truncated")
        elif wrong_under_good_event(trace, self.instance):
            bad.append("wrong_cluster")
        return [bad]


def safety_score_means() -> list[float]:
    """The 90-arm profile of the acceptance tests: two top arms split from the
    pack by the largest gap 0.029, runner-up gaps 0.024, 0.0235 and 0.023, a
    0.018 buffer and a dense 0.0015 ladder."""
    gaps = [0.0015] * 89
    gaps[:6] = [0.006, 0.029, 0.024, 0.0235, 0.023, 0.018]
    means = [0.75]
    for g in gaps:
        means.append(means[-1] - g)
    return means


class UcbEveryRound(Workload):
    REFERENCE = ("numpy_calls",)
    ALGORITHMS = ("maxgap-ucb", "maxgap-top2-ucb")
    BUDGET = 30_000

    def setup(self) -> None:
        self.instance = env.Instance(
            tuple(env.ArmSpec(m, 0.05) for m in safety_score_means())
        )
        self.config = RunConfig(delta=DELTA, budget_cap=self.BUDGET)
        self._hardness()

    def trial(self, seed: int) -> Trial:
        return Trial([
            algorithms.ALGORITHMS[name](self.instance, self.config, trial_rng(seed))
            for name in self.ALGORITHMS
        ])

    def problems(self, trial: Trial) -> list[list[str]]:
        # The budget is far below what either variant needs to certify the
        # split, so runs end at the cap and their best-effort clustering is
        # not scored; they must flag the truncation and use the whole budget.
        out = []
        for trace in trial.traces:
            bad = trace_problems(trace, self.instance)
            if trace.stopped_by == "budget":
                if not trace.truncated:
                    bad.append("budget_end_not_flagged")
                if trace.total_samples <= self.BUDGET - self.instance.n_arms:
                    bad.append("ended_short_of_budget")
            elif wrong_under_good_event(trace, self.instance):
                bad.append("wrong_cluster")
            out.append(bad)
        return out


class AnytimeSweep(Workload):
    ALGORITHMS = ("uniform", "maxgap-ucb", "maxgap-top2-ucb", "naive")

    def __init__(self, name: str, out_dir: str) -> None:
        super().__init__(name)
        self.out_dir = out_dir
        self._captured: list = []

    def setup(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        self.experiment = cli.ExperimentConfig(
            instance="two-gap",
            algorithms=self.ALGORITHMS,
            delta=DELTA,
            checkpoints=cli.log_checkpoints(2_000, 2_000_000, 32),
            check_growth=1.02,
            out=os.path.join(self.out_dir, f"anytime-{os.getpid()}.csv"),
        )
        self.instance = cli.build_instance("two-gap")
        self._hardness()
        # run_experiment returns rows only: give the CLI its own registry that
        # keeps each run's trace for the gate and still calls through
        # algorithms.ALGORITHMS, where the tracer hooks in.
        cli.ALGORITHMS = {name: self._capturing(name) for name in algorithms.ALGORITHMS}

    def _capturing(self, name: str):
        def captured(*args):
            trace = algorithms.ALGORITHMS[name](*args)
            self._captured.append(trace)
            return trace
        return captured

    def trial(self, seed: int) -> Trial:
        self._captured.clear()
        rows = cli.run_experiment(replace(self.experiment, seed=seed))
        return Trial(list(self._captured), rows=len(rows), csv_path=self.experiment.out)

    def problems(self, trial: Trial) -> list[list[str]]:
        # A checkpoint's clustering is a fixed-budget estimate: it may be wrong
        # (the uniform baseline misses the 1.0 vs 0.98 split at 2M pulls on a
        # few runs in a thousand), and the error rate is what the sweep
        # measures.  So checkpoint answers are not scored; the CSV must report
        # them faithfully; runs that stop by their rule are scored as elsewhere.
        truth = self.instance.top_cluster
        budgets = self.experiment.checkpoints
        with open(trial.csv_path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            table = list(reader)
        shared = []
        if tuple(reader.fieldnames or ()) != cli.RESULT_COLUMNS:
            shared.append("csv_header")
        if len(table) != trial.rows:
            shared.append("csv_row_count")
        csv_errors: dict[str, dict[str, str]] = {}
        for row in table:
            if row["kind"] == "anytime":
                csv_errors.setdefault(row["algorithm"], {})[row["budget"]] = row["error"]
        out = []
        for trace in trial.traces:
            bad = shared + trace_problems(trace, self.instance)
            if [rec.budget for rec in trace.checkpoints] != list(budgets):
                bad.append("checkpoints_missing")
            expected = {
                str(rec.budget): str(int(rec.clusters[0] != truth))
                for rec in trace.checkpoints
            }
            if csv_errors.get(trace.algorithm) != expected:
                bad.append("csv_error_flags")
            stopped = trace.stopped_by != "budget"
            if stopped and wrong_under_good_event(trace, self.instance):
                bad.append("wrong_cluster")
            out.append(bad)
        if len(out) != len(self.ALGORITHMS):
            out.append(["runs_missing"])
        return out

    def close(self) -> None:
        if os.path.exists(self.experiment.out):
            os.remove(self.experiment.out)


def make_workloads(out_dir: str) -> dict[str, Workload]:
    """Workloads by name; ``out_dir`` holds the CSV the CLI workload writes."""
    return {
        w.name: w
        for w in (
            ElimSweep("elim-sweep"),
            UcbEveryRound("ucb-every-round"),
            AnytimeSweep("anytime-sweep", out_dir),
        )
    }
