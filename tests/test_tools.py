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
