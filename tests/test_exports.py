"""The package's public names: every export resolves, ``maxgap.__all__`` is
exactly the union of its submodules' ``__all__`` lists, the removed scalar
paths stay removed while the oracles stay exported, and the package imports
without scipy, which only the tests use."""

import importlib
import os
import pkgutil
import subprocess
import sys

import maxgap

# The command line harness is imported as ``maxgap.cli``, not re-exported.
NOT_REEXPORTED = {"cli"}


def submodules():
    names = sorted(m.name for m in pkgutil.iter_modules(maxgap.__path__))
    return [importlib.import_module(f"maxgap.{n}") for n in names if n not in NOT_REEXPORTED]


def test_every_export_resolves():
    namespace = {}
    exec("from maxgap import *", namespace)  # raises on a stale name
    assert set(maxgap.__all__) <= set(namespace)
    for mod in submodules():
        assert [n for n in mod.__all__ if not hasattr(mod, n)] == [], mod.__name__


def test_all_is_union_of_submodule_exports():
    union = set().union(*(mod.__all__ for mod in submodules()))
    assert len(set(maxgap.__all__)) == len(maxgap.__all__)
    assert sorted(maxgap.__all__) == sorted(union)


# Removed with the per-sample scalar tracker path and the one-draw sampler;
# whole runs are checked against ``tests/test_reference_run.py`` instead.
REMOVED = {"ArmStats", "IntervalState", "update", "sample"}

# Reference paths that no run calls, kept exported because the benchmark's
# checks import them.
ORACLES = {
    "radius", "sample_block", "IntervalSnapshot", "upper_gap", "right_anchor_gap",
    "left_anchor_gap", "brute_force_upper_gap",
}


def test_removed_names_stay_removed():
    assert REMOVED.isdisjoint(maxgap.__all__)
    for mod in submodules():
        assert [n for n in REMOVED if hasattr(mod, n)] == [], mod.__name__


def test_oracles_stay_exported():
    assert ORACLES <= set(maxgap.__all__)


def test_package_imports_without_scipy():
    code = 'import sys; sys.modules["scipy"] = None; import maxgap, maxgap.cli'
    src = os.path.dirname(os.path.dirname(maxgap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
