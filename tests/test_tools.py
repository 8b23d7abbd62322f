"""``tools/``: two ``fingerprints.py`` calls on one checkout print the same
lines, with a line per pre-flight problem and none on a clean checkout, and
``rule_stops.py`` lists the wrong stops after a bad event."""

import importlib.util
import os
import subprocess
import sys
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_fingerprints_repeatable():
    cmd = [
        sys.executable, os.path.join(ROOT, "tools", "fingerprints.py"),
        "--root", ROOT, "--trials", "1",
    ]
    first, second = (
        subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        for _ in range(2)
    )
    assert first == second
    assert "preflight" not in first  # the oracle and recorded-row checks are clean
    lines = [line.split() for line in first.splitlines()]
    # elim-sweep 1 run, ucb-every-round 2, anytime-sweep 4, bad-event
    # elim-sweep seeds 2, rule-stopped anytime-sweep seeds 4 x 4 runs
    assert len(lines) == 25 and all(len(parts) == 6 for parts in lines)
    assert [parts[1] for parts in lines[7:9]] == ["10400017", "10900048"]
    assert [parts[1] for parts in lines[9::4]] == ["600288", "900240", "1200207", "1600026"]
    assert all(parts[0] == "anytime-sweep" for parts in lines[9:])
    assert [parts[5] for parts in lines] == ["-"] * 25  # no gate problems


def test_preflight_prints_one_line_per_problem(monkeypatch):
    # the tool's pre-flight runs the oracle check at the benchmark's seed and
    # snapshot count, and the recorded-row check on every workload's trial 0
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "fingerprints", os.path.join(ROOT, "tools", "fingerprints.py")
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    calls = []

    def oracle_problems(seed, snapshots):
        calls.append((seed, snapshots))
        return ["verify_bounds K=4: max discrepancy 0.5"]

    def recorded_rows_problems(traces):
        return len(traces), [f"{t} row 2: lower_max_gap_vs_enumeration" for t in traces]

    checks = SimpleNamespace(
        oracle_problems=oracle_problems, recorded_rows_problems=recorded_rows_problems
    )
    run = SimpleNamespace(
        ORACLE_SNAPSHOTS=30, WORKLOADS=("elim-sweep", "anytime-sweep"),
        trial_seed=lambda seed, i: seed * 100_000 + i,
    )
    workloads = {
        name: SimpleNamespace(
            trial=lambda seed, name=name: SimpleNamespace(traces=[f"{name}:{seed}"])
        )
        for name in ("elim-sweep", "ucb-every-round", "anytime-sweep")
    }
    assert tool.preflight(checks, run, workloads, 3) == [
        "preflight oracle 3 verify_bounds K=4: max discrepancy 0.5",
        "preflight elim-sweep 300000 elim-sweep:300000 row 2: lower_max_gap_vs_enumeration",
        "preflight anytime-sweep 300000 anytime-sweep:300000 row 2: lower_max_gap_vs_enumeration",
    ]
    assert calls == [(3, 30)]


def test_rule_stops_lists_wrong_stops_after_a_bad_event():
    # trial seed 1600026 (seed 16, trial 26): both UCB variants of the
    # anytime-sweep trial stop by their rule on the wrong split after the
    # good event failed, the first rule stops of that seed, so the
    # benchmark's aggregate wrong-stop rule fails from that trial on
    cmd = [
        sys.executable, os.path.join(ROOT, "tools", "rule_stops.py"),
        "--root", ROOT, "--seed", "16", "--trials", "27",
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    lines = [line.split() for line in out.splitlines() if not line.startswith("#")]
    assert lines[0][:4] == ["trial", "trial_seed", "algorithm", "answer"]
    assert lines[1:] == [
        ["26", "1600026", "maxgap-ucb", "wrong", "False", "1", "1", "fails"],
        ["26", "1600026", "maxgap-top2-ucb", "wrong", "False", "2", "2", "fails"],
        ["first_failing_trial", "26"],
    ]
