"""Time one workload's set-up in a fresh interpreter.

Set-up is what a sweep pays before its first trial: importing the package
(numpy included), building the instance and configuration, and the instance's
``hardness_report``.  The probe then times the ``numpy_calls`` host reference
kernel (``hostref.py``; importing is interpreter work of the same kind) three
times and prints two numbers: the set-up seconds and the host scale, nominal
over median reference seconds.  ``run.py`` runs this several times and reports the
median corrected set-up time as ``setup_s``.

    python3 perfbench/setup_probe.py <workload>
"""

import os
import sys
from time import perf_counter

t0 = perf_counter()
here = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
from workloads import make_workloads  # noqa: E402

make_workloads(os.path.join(here, "out"))[sys.argv[1]].setup()
setup_s = perf_counter() - t0

from hostref import Reference  # noqa: E402

ref = Reference(("numpy_calls",))
print(setup_s, ref.nominal_s / sorted(ref.time() for _ in range(3))[1])
