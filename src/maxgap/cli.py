"""Experiment harness and command line interface.

Subcommands:

- ``run``: seeded trial sweeps across algorithms; writes a CSV of per-trial
  rows (anytime error at each checkpoint, stop-time stats) with aggregate
  error-rate rows appended.
- ``profile``: one UCB run; writes per-arm sample counts at each checkpoint
  in long form, for allocation-profile plots.
- ``verify-bounds``: random interval snapshots; compares the fast gap upper
  bounds against the brute-force oracle and fails on any discrepancy.
- ``hardness``: prints the per-arm hardness table and predicted complexity
  sums for an instance.

Configuration is a flat JSON file; the flags a subcommand reads override
it (``_COMMAND_FLAGS``), and any other flag is an error.  All
outputs are deterministic functions of (config, seed): CSV with a header row,
comma separators, ``.`` decimal point, LF line endings, full-precision
(round-trippable) floats.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence, TextIO

import numpy as np

from .algorithms import ALGORITHMS, RunConfig, _require_int
from .env import (
    Instance,
    build_lower_bound_instance,
    build_one_gap_instance,
    build_two_gap_instance,
    load_means_file,
)
from .gapbounds import IntervalSnapshot, brute_force_upper_gap, upper_gaps
from .hardness import HardnessReport, hardness_report

__all__ = [
    "ExperimentConfig",
    "build_instance",
    "log_checkpoints",
    "run_experiment",
    "allocation_profile",
    "verify_bounds",
    "write_hardness_report",
    "main",
]

RESULT_COLUMNS = (
    "kind", "algorithm", "trial", "seed", "budget", "total_samples",
    "error", "stopped_by", "truncated", "error_rate", "error_std", "n_trials",
)

PROFILE_COLUMNS = ("algorithm", "seed", "budget", "arm", "samples")


@dataclass(frozen=True)
class ExperimentConfig(RunConfig):
    """The run knobs of ``RunConfig`` plus what a sweep adds: instance,
    algorithms, trials and output.  JSON-loadable, flags may override."""

    instance: str = "two-gap"
    instance_params: dict = field(default_factory=dict)
    sigma: float = 1.0  # noise scale for means files
    algorithms: tuple[str, ...] = ("uniform", "maxgap-ucb")
    trials: int = 1
    seed: int = 0
    alpha: float = 1.0
    out: Optional[str] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("trials", "seed"):
            _require_int(name, getattr(self, name))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.algorithms or len(set(self.algorithms)) < len(self.algorithms):
            raise ValueError(
                f"algorithms must be non-empty without repeats, got {list(self.algorithms)}"
            )
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ValueError(
                    f"unknown algorithm {name!r}; choices: {sorted(ALGORITHMS)}"
                )
        object.__setattr__(self, "algorithms", tuple(self.algorithms))

    def run_config(self) -> RunConfig:
        """The run knobs, with ``budget_cap`` capped at the last checkpoint."""
        knobs = {f.name: getattr(self, f.name) for f in fields(RunConfig)}
        if self.checkpoints:
            knobs["budget_cap"] = min(self.budget_cap, self.checkpoints[-1])
        return RunConfig(**knobs)


def log_checkpoints(lo: int, hi: int, count: int = 20) -> tuple[int, ...]:
    """Log-spaced integer sample budgets, deduplicated and increasing."""
    if not (0 < lo < hi) or count < 2:
        raise ValueError("need 0 < lo < hi and count >= 2")
    grid = np.unique(np.rint(np.geomspace(lo, hi, count)).astype(int))
    return tuple(int(b) for b in grid)


# JSON type of every config key; a float key also takes an integer.
_NUMBER = (int, float)
_CONFIG_TYPES = {
    "instance": str, "instance_params": dict, "sigma": _NUMBER, "algorithms": list,
    "delta": _NUMBER, "trials": int, "seed": int, "checkpoints": list,
    "checkpoint_range": list, "checkpoint_count": int, "budget_cap": int,
    "ucb_stop_factor": _NUMBER, "elim_early_stop": bool, "check_growth": _NUMBER,
    "alpha": _NUMBER, "out": (str, type(None)),
}


def load_config(path: str) -> ExperimentConfig:
    """Read a JSON config.  An unknown key, a value of the wrong type or an
    invalid value is a ``ValueError`` that names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(raw) - set(_CONFIG_TYPES)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    for key, value in raw.items():
        want = _CONFIG_TYPES[key]
        if not isinstance(value, want) or isinstance(value, bool) != (want is bool):
            raise ValueError(f"{path}: {key} has the wrong type: {value!r}")
    if "checkpoint_count" in raw and "checkpoint_range" not in raw:
        raise ValueError(f"{path}: checkpoint_count needs a checkpoint_range")
    try:
        if "checkpoint_range" in raw:
            bounds = [_require_int("checkpoint_range", b) for b in raw.pop("checkpoint_range")]
            count = raw.pop("checkpoint_count", 20)
            if len(bounds) != 2 or not 0 < bounds[0] < bounds[1]:
                raise ValueError(
                    f"checkpoint_range: expected [lo, hi] with 0 < lo < hi, got {bounds}"
                )
            if count < 2:
                raise ValueError(f"checkpoint_count: expected >= 2, got {count}")
            raw["checkpoints"] = list(log_checkpoints(*bounds, count))
        return ExperimentConfig(**raw)
    except (TypeError, ValueError) as exc:  # e.g. a list of the wrong shape
        raise ValueError(f"{path}: {exc}") from exc


def build_instance(
    name_or_path: str, params: Optional[dict] = None, sigma: float = 1.0
) -> Instance:
    """Resolve a builtin instance name or a means-file path.

    ``params`` may hold only the keys the chosen builder takes; two-gap and
    means files take none.  ``sigma`` scales the noise of a means file; the
    builtins have unit noise and reject any other value.
    """
    params = dict(params or {})
    if name_or_path in ("two-gap", "one-gap", "lower-bound") and sigma != 1.0:
        raise ValueError(
            f"instance {name_or_path!r}: sigma applies to means files only "
            f"(builtins have sigma 1.0), got sigma={sigma!r}"
        )

    def take(key: str, kind: type, default):
        value = params.pop(key, default)
        name = f"instance {name_or_path!r}: {key}"
        if kind is int:
            return _require_int(name, value)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name}: expected a number, got {value!r}")
        return float(value)

    try:
        if name_or_path == "two-gap":
            instance = build_two_gap_instance()
        elif name_or_path == "one-gap":
            instance = build_one_gap_instance(
                n_arms=take("n_arms", int, 24),
                delta_min=take("delta_min", float, 0.2),
                delta_max=take("delta_max", float, 1.0),
            )
        elif name_or_path == "lower-bound":
            instance = build_lower_bound_instance(
                nu=take("nu", float, 1.0), epsilon=take("epsilon", float, 0.1)
            )
        else:
            instance = load_means_file(name_or_path, sigma=sigma)
    except TypeError as exc:
        raise ValueError(f"instance {name_or_path!r}: {exc}") from exc
    if params:
        raise ValueError(
            f"instance {name_or_path!r} does not take parameters {sorted(params)}"
        )
    return instance


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(fh: TextIO, columns: Sequence[str], rows: Sequence[dict]) -> None:
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(row.get(col)) for col in columns) + "\n")


def _open_out(path: str) -> TextIO:
    return open(path, "w", encoding="utf-8", newline="\n")


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed + trial))


def _instance_and_run_config(config: ExperimentConfig) -> tuple[Instance, RunConfig]:
    """The config's instance and run knobs.  The last checkpoint caps the
    budget, so it must allow one round over all arms."""
    instance = build_instance(config.instance, config.instance_params, config.sigma)
    if config.checkpoints and config.checkpoints[-1] < instance.n_arms:
        raise ValueError(
            f"checkpoints: the last checkpoint {config.checkpoints[-1]} caps the budget "
            f"below one round over all {instance.n_arms} arms"
        )
    return instance, config.run_config()


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Run the sweep and return result rows (also written to config.out).

    With checkpoints set, runs are capped at the largest checkpoint and every
    checkpoint yields an anytime row; a stop row is added when the stopping
    rule fired within the budget.  Without checkpoints each run goes to its
    stopping rule (or the budget cap) and yields one stop row.  Aggregate
    error-rate rows (mean and standard deviation of the 0/1 error flags,
    truncated runs excluded) are appended per algorithm and budget.
    """
    instance, run_cfg = _instance_and_run_config(config)
    truth = instance.top_cluster
    rows: list[dict] = []
    flags: dict[tuple[str, Optional[int]], list[int]] = {}
    stop_totals: dict[str, list[int]] = {}

    for name in config.algorithms:
        algorithm = ALGORITHMS[name]
        for trial in range(config.trials):
            trace = algorithm(instance, run_cfg, _trial_rng(config.seed, trial))
            base = {"algorithm": name, "trial": trial, "seed": config.seed + trial}
            for rec in trace.checkpoints:
                err = int(rec.clusters[0] != truth)
                rows.append(
                    base
                    | {
                        "kind": "anytime",
                        "budget": rec.budget,
                        "total_samples": rec.total_samples,
                        "error": err,
                    }
                )
                flags.setdefault((name, rec.budget), []).append(err)
            stopped = trace.stopped_by in ("rule", "early_rule")
            if stopped or not config.checkpoints:
                err = int(trace.clusters[0] != truth)
                rows.append(
                    base
                    | {
                        "kind": "stop",
                        "budget": trace.total_samples,
                        "total_samples": trace.total_samples,
                        "error": err,
                        "stopped_by": trace.stopped_by,
                        "truncated": trace.truncated,
                    }
                )
                if not trace.truncated:
                    flags.setdefault((name, None), []).append(err)
                    stop_totals.setdefault(name, []).append(trace.total_samples)

    for (name, budget), errs in flags.items():
        arr = np.array(errs, dtype=float)
        row = {
            "kind": "aggregate",
            "algorithm": name,
            "budget": budget,
            "error_rate": float(arr.mean()),
            "error_std": float(arr.std()),
            "n_trials": arr.size,
        }
        if budget is None and name in stop_totals:
            row["total_samples"] = float(np.mean(stop_totals[name]))
        rows.append(row)

    kind_order = {"anytime": 0, "stop": 1, "aggregate": 2}
    rows.sort(
        key=lambda r: (
            kind_order[r["kind"]],
            r["algorithm"],
            r.get("budget") if r.get("budget") is not None else -1,
            r.get("trial", -1),
        )
    )
    if config.out:
        with _open_out(config.out) as fh:
            _write_csv(fh, RESULT_COLUMNS, rows)
    return rows


def allocation_profile(config: ExperimentConfig) -> list[dict]:
    """One UCB run; per-arm sample counts at each checkpoint, long form."""
    if not config.checkpoints:
        raise ValueError("profile needs checkpoints (or checkpoint_range) in the config")
    instance, run_cfg = _instance_and_run_config(config)
    trace = ALGORITHMS["maxgap-ucb"](instance, run_cfg, _trial_rng(config.seed, 0))
    rows = [
        {
            "algorithm": "maxgap-ucb",
            "seed": config.seed,
            "budget": rec.budget,
            "arm": arm,
            "samples": int(rec.counts[arm]),
        }
        for rec in trace.checkpoints
        for arm in range(instance.n_arms)
    ]
    if config.out:
        with _open_out(config.out) as fh:
            _write_csv(fh, PROFILE_COLUMNS, rows)
    return rows


def _random_snapshot(rng: np.random.Generator, n_arms: int, pattern: int):
    """Snapshot generator cycling through stress patterns."""
    which = pattern % 6
    if which == 0:  # generic
        mid = rng.uniform(-1.0, 1.0, n_arms)
        rad = rng.uniform(0.01, 0.6, n_arms)
    elif which == 1:  # heavy overlap
        mid = rng.uniform(-0.2, 0.2, n_arms)
        rad = rng.uniform(0.5, 1.5, n_arms)
    elif which == 2:  # nearly resolved
        mid = rng.uniform(-1.0, 1.0, n_arms)
        rad = rng.uniform(0.0, 0.05, n_arms)
    elif which == 3:  # degenerate points
        mid = rng.uniform(-1.0, 1.0, n_arms)
        rad = np.zeros(n_arms)
    elif which == 4:  # identical intervals
        a, b = np.sort(rng.uniform(-1.0, 1.0, 2))
        mid = np.full(n_arms, (a + b) / 2.0)
        rad = np.full(n_arms, (b - a) / 2.0)
    else:  # nested intervals, shared center
        mid = np.full(n_arms, rng.uniform(-0.5, 0.5))
        rad = np.sort(rng.uniform(0.05, 1.0, n_arms))
    return mid - rad, mid + rad


def verify_bounds(n_arms: int, n_snapshots: int, seed: int) -> dict:
    """Compare fast gap upper bounds with the brute-force oracle.

    Returns a report with the max absolute discrepancy over all snapshots,
    arms, and sides, plus the worst snapshot for diagnosis.
    """
    if not 3 <= n_arms <= 8:
        raise ValueError(f"verify-bounds supports 3..8 arms, got {n_arms}")
    if n_snapshots < 1:
        raise ValueError("need at least one snapshot")
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = {"discrepancy": -1.0}
    for i in range(n_snapshots):
        l, r = _random_snapshot(rng, n_arms, i)
        snap = IntervalSnapshot(l=l, r=r)
        fast_r, fast_l = upper_gaps(l, r)
        for a in range(n_arms):
            oracle_r, oracle_l = brute_force_upper_gap(a, snap)
            for side, fast, oracle in (
                ("right", float(fast_r[a]), oracle_r),
                ("left", float(fast_l[a]), oracle_l),
            ):
                d = abs(fast - oracle)
                if d > worst["discrepancy"]:
                    worst = {
                        "discrepancy": d,
                        "snapshot": i,
                        "arm": a,
                        "side": side,
                        "fast": fast,
                        "oracle": oracle,
                        "l": l.tolist(),
                        "r": r.tolist(),
                    }
    return {
        "n_arms": n_arms,
        "n_snapshots": n_snapshots,
        "seed": seed,
        "max_discrepancy": worst["discrepancy"],
        "worst": worst,
    }


def _fmt_inf(x: float) -> str:
    return "inf" if math.isinf(x) else f"{x:.4f}"


# Per-arm hardness columns and the report fields they show.
_HARDNESS_FIELDS = {
    "gamma_r": "gamma_right", "gamma_l": "gamma_left", "gamma": "gamma",
    "rho_r": "rho_right", "rho_l": "rho_left", "rho": "rho", "naive_gamma": "naive_gamma",
}
HARDNESS_COLUMNS = ("arm", "mean", *_HARDNESS_FIELDS, "h_main", "h_elim", "h_ucb")


def _hardness_rows(instance: Instance, report: HardnessReport) -> list[dict]:
    """One row per arm with every ``HARDNESS_COLUMNS`` entry."""
    sums = {"h_main": report.h_main, "h_elim": report.h_elim, "h_ucb": report.h_ucb}
    return [
        {"arm": a + 1, "mean": float(instance.means[a])}
        | {col: float(getattr(report, f)[a]) for col, f in _HARDNESS_FIELDS.items()}
        | sums
        for a in range(instance.n_arms)
    ]


def write_hardness_report(
    instance: Instance, report: HardnessReport, out=None
) -> None:
    """Human-readable hardness table plus the predicted complexity sums."""
    out = out if out is not None else sys.stdout
    labels = [col.removesuffix("_gamma") for col in _HARDNESS_FIELDS]  # the table says "naive"
    out.write(f"{'arm':>5} {'mean':>10} " + " ".join(f"{c:>9}" for c in labels) + "\n")
    for row in _hardness_rows(instance, report):
        cells = " ".join(f"{_fmt_inf(row[col]):>9}" for col in _HARDNESS_FIELDS)
        out.write(f"{row['arm']:>5} {row['mean']:>10.4f} {cells}\n")
    out.write(
        f"H_main={report.h_main!r} H_elim={report.h_elim!r} H_ucb={report.h_ucb!r} "
        f"(delta={report.delta!r}, alpha={report.alpha!r})\n"
    )


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """Set every config field whose flag was given; ``--instance`` also
    clears the file's ``instance_params``."""
    updates = {
        f.name: getattr(args, f.name)
        for f in fields(config)
        if getattr(args, f.name, None) is not None
    }
    if "instance" in updates:
        updates["instance_params"] = {}
    return replace(config, **updates)


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    return _apply_overrides(config, args)


# Each config flag's type and help; a flag sets the config key of its name.
_FLAGS = {
    "config": (str, "JSON config file"),
    "seed": (int, "base RNG seed"),
    "out": (str, "output CSV path"),
    "trials": (int, "number of seeded trials"),
    "delta": (float, "confidence parameter in (0, 1)"),
    "instance": (str, "builtin instance name or means-file path"),
    "sigma": (float, "noise scale for means files"),
    "alpha": (float, "calibration constant"),
}
# The flags each config-driven subcommand reads; any other is an error.
_COMMAND_FLAGS = {
    "run": ("config", "seed", "out", "trials", "delta", "instance", "sigma"),
    "profile": ("config", "seed", "out", "delta", "instance", "sigma"),
    "hardness": ("config", "out", "delta", "instance", "sigma", "alpha"),
}


def _add_config_command(sub, command: str, text: str) -> None:
    p = sub.add_parser(command, help=text)
    for name in _COMMAND_FLAGS[command]:
        kind, flag_help = _FLAGS[name]
        p.add_argument(f"--{name}", type=kind, help=flag_help)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="maxgap", description="Largest-gap bandit simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_config_command(sub, "run", "seeded experiment sweep")
    _add_config_command(sub, "profile", "per-arm allocation profile of one UCB run")

    p_ver = sub.add_parser("verify-bounds", help="gap bound oracle cross-check")
    p_ver.add_argument("--arms", type=int, default=4)
    p_ver.add_argument("--snapshots", type=int, default=1000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", help="write the report as JSON")

    _add_config_command(sub, "hardness", "hardness parameters of an instance")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = _config_from_args(args)
            rows = run_experiment(config)
            if not config.out:
                _write_csv(sys.stdout, RESULT_COLUMNS, rows)
        elif args.command == "profile":
            config = _config_from_args(args)
            rows = allocation_profile(config)
            if not config.out:
                _write_csv(sys.stdout, PROFILE_COLUMNS, rows)
        elif args.command == "verify-bounds":
            report = verify_bounds(args.arms, args.snapshots, args.seed)
            text = json.dumps(report, indent=2, sort_keys=True)
            if args.out:
                with _open_out(args.out) as fh:
                    fh.write(text + "\n")
            print(
                f"verify-bounds: arms={args.arms} snapshots={args.snapshots} "
                f"max_discrepancy={report['max_discrepancy']!r}"
            )
            if report["max_discrepancy"] > 1e-12:
                sys.stderr.write("counterexample:\n" + text + "\n")
                return 1
        elif args.command == "hardness":
            config = _config_from_args(args)
            instance = build_instance(
                config.instance, config.instance_params, config.sigma
            )
            report = hardness_report(instance, config.delta, config.alpha)
            write_hardness_report(instance, report)
            if config.out:
                with _open_out(config.out) as fh:
                    _write_csv(fh, HARDNESS_COLUMNS, _hardness_rows(instance, report))
    except (ValueError, OSError) as exc:
        parser.exit(2, f"maxgap: error: {exc}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
