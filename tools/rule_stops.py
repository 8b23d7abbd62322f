#!/usr/bin/env python3
"""List the rule-stopped runs of one benchmark workload over a seed's trials.

    python3 tools/rule_stops.py --root <checkout> --seed S --trials N [--workload W]

``maxgap`` is imported from ``<checkout>/src``, and the workloads and
``run.trial_seed`` from ``<checkout>/perfbench``.  The script runs trials
0..N-1 of the workload (``anytime-sweep`` by default), trial i on the trial
seed ``run.trial_seed(S, i)``, which is what ``perfbench/run.py --seed S``
runs in its timed loop.  It prints one line per run that stopped by its rule
(``stopped_by`` other than ``budget``): trial, trial seed, algorithm, answer
(``right`` or ``wrong`` against the instance's top cluster), ``good_event``,
the rule stops and wrong stops counted up to that run, and whether the
aggregate rule of ``perfbench/run.py``, ``wrong_stops > DELTA * rule_stops``,
fails on the trials up to and including that one.  The benchmark applies that
rule once, to all the trials its loop reached, so a run of seed S fails if it
ends on a trial where the rule fails.  The last line gives the first trial
from which it fails (``none`` if it never does within N trials).

The RNG stream of a run does not depend on speed, so the lines are the same
for any two checkouts that keep the stream, and a faster checkout only
reaches further along them.  Nothing is written into the checkout: no
bytecode, and the CSV of ``anytime-sweep`` goes to a temporary directory.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout whose package and workloads run")
    parser.add_argument("--seed", type=int, required=True, help="benchmark seed S of the trial seeds")
    parser.add_argument("--trials", type=int, required=True, help="trials 0..N-1")
    parser.add_argument("--workload", default="anytime-sweep", help="benchmark workload name")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import run  # perfbench/run.py; pins BLAS/OpenMP to one thread on import
    from workloads import DELTA, make_workloads

    if args.workload not in run.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(run.WORKLOADS)}")
    print(f"# workload={args.workload} seed={args.seed} trials=0..{args.trials - 1}")
    print("trial trial_seed algorithm answer good_event rule_stops wrong_stops aggregate_rule")
    rule_stops = wrong_stops = 0
    first_failing = None
    with tempfile.TemporaryDirectory() as out_dir:
        w = make_workloads(out_dir)[args.workload]
        w.setup()
        try:
            for i in range(args.trials):
                seed = run.trial_seed(args.seed, i)
                stops = []
                for trace in w.trial(seed).traces:
                    if trace.stopped_by != "budget":
                        wrong = trace.clusters[0] != w.instance.top_cluster
                        rule_stops += 1
                        wrong_stops += wrong
                        stops.append((trace, wrong, rule_stops, wrong_stops))
                fails = wrong_stops > DELTA * rule_stops
                if fails and first_failing is None:
                    first_failing = i
                for trace, wrong, n_rule, n_wrong in stops:
                    print(
                        i, seed, trace.algorithm, "wrong" if wrong else "right",
                        trace.good_event, n_rule, n_wrong, "fails" if fails else "holds",
                    )
        finally:
            w.close()
    print("first_failing_trial", "none" if first_failing is None else first_failing)
    return 0


if __name__ == "__main__":
    sys.exit(main())
