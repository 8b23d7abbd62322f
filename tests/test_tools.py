"""``tools/fingerprints.py``: two calls on one checkout print the same lines."""

import os
import subprocess
import sys

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
    lines = [line.split() for line in first.splitlines()]
    # elim-sweep 1 run, ucb-every-round 2, anytime-sweep 4, bad-event
    # elim-sweep seeds 2, rule-stopped anytime-sweep seeds 4 x 4 runs
    assert len(lines) == 25 and all(len(parts) == 6 for parts in lines)
    assert [parts[1] for parts in lines[7:9]] == ["10400017", "10900048"]
    assert [parts[1] for parts in lines[9::4]] == ["600288", "900240", "1200207", "1600026"]
    assert all(parts[0] == "anytime-sweep" for parts in lines[9:])
    assert [parts[5] for parts in lines] == ["-"] * 25  # no gate problems


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
