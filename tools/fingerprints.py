#!/usr/bin/env python3
"""Print the trace fingerprints of the benchmark workloads of one checkout.

    python3 tools/fingerprints.py --root <checkout> --trials N [--seed S] > prints.txt

``maxgap`` is imported from ``<checkout>/src``, and the workloads and
``run.fingerprints`` from ``<checkout>/perfbench``.  The script runs trials
0..N-1 of every workload, trial i on the benchmark's trial seed
``run.trial_seed(S, i)`` (S defaults to 0, where that seed is i), plus the
``EXTRA`` runs: two ``elim-sweep`` seeds whose runs hit the bad event and
four ``anytime-sweep`` seeds with a rule stop.  It prints one line
per algorithm run: workload, trial seed, algorithm, ``RunTrace.fingerprint()``,
the sha256 of the trial's anytime CSV (``-`` on workloads that write none),
and the problems the workload's ``problems()`` gate found for that run,
joined by ``,`` (``-`` when there are none).

A change that keeps the RNG stream must leave the output identical, so
comparing two checkouts is a ``diff`` of their outputs; on a change that
moves the stream, the last column is a pre-flight of the benchmark's gate
over the trial seeds that ``perfbench/run.py --seed S`` runs.  The two
checks that ``perfbench/run.py --seed S`` makes before its loop are run
first: ``checks.oracle_problems(S, run.ORACLE_SNAPSHOTS)``, and
``checks.recorded_rows_problems`` on each workload's trial 0.  Each problem
they find is printed as one line ``preflight <workload or oracle> <seed>
<problem>`` ahead of the fingerprints; a clean checkout prints none.  Nothing
is written into the checkout: no bytecode, and the CSV goes to a temporary
directory.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

# (workload, trial seed) runs beyond seeds 0..N-1: two-gap elimination runs
# whose envelopes cross after the good event fails, then anytime-sweep trials
# whose UCB runs stop by the rule: wrong after a bad event at 600288, 1200207
# and 1600026, right at 900240.
EXTRA = (
    ("elim-sweep", 10400017), ("elim-sweep", 10900048),
    ("anytime-sweep", 600288), ("anytime-sweep", 900240),
    ("anytime-sweep", 1200207), ("anytime-sweep", 1600026),
)


def preflight(checks, run, workloads, seed: int) -> list[str]:
    """The lines for the problems of the checks ``perfbench/run.py --seed S``
    makes before its loop (see the module docstring)."""
    oracle = checks.oracle_problems(seed, run.ORACLE_SNAPSHOTS)
    lines = [f"preflight oracle {seed} {p}" for p in oracle]
    first = run.trial_seed(seed, 0)
    for name in run.WORKLOADS:
        _, bad = checks.recorded_rows_problems(workloads[name].trial(first).traces)
        lines += [f"preflight {name} {first} {p}" for p in bad]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout to fingerprint")
    parser.add_argument("--trials", type=int, required=True, help="trials 0..N-1 per workload")
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed S of the trial seeds")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import run  # perfbench/run.py; pins BLAS/OpenMP to one thread on import
    import checks
    from workloads import make_workloads

    jobs = [
        (name, run.trial_seed(args.seed, i))
        for name in run.WORKLOADS
        for i in range(args.trials)
    ]
    jobs += EXTRA
    with tempfile.TemporaryDirectory() as out_dir:
        workloads = make_workloads(out_dir)
        for w in workloads.values():
            w.setup()
        try:
            for line in preflight(checks, run, workloads, args.seed):
                print(line)
            for name, seed in jobs:
                w = workloads[name]
                trial = w.trial(seed)
                prints = run.fingerprints(trial)
                csv = "-"
                if trial.csv_path:
                    csv = hashlib.sha256(bytes.fromhex(prints.pop())).hexdigest()
                for trace, fp, bad in zip(trial.traces, prints, w.problems(trial), strict=True):
                    print(name, seed, trace.algorithm, fp, csv, ",".join(bad) or "-")
        finally:
            for w in workloads.values():
                w.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
