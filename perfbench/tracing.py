"""Span tracing around the maxgap layers, installed from outside the package.

The tracer replaces the names that ``maxgap.algorithms`` and ``maxgap.cli``
look up at call time (module globals, ``IntervalTracker`` methods and the
``ALGORITHMS`` entries) with wrappers that record one span per call: name,
layer, parent span, trial, start and end.  Nothing in ``src/`` changes, and
``uninstall`` puts every original back.

Spans live in compact ``array`` buffers while the run goes on; ``summary``
turns them into per-name call counts and self time (a span's duration minus
the durations of its direct children), and ``save`` writes them out once the
run ends.
"""

from __future__ import annotations

import importlib
import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (layer, span name, module, attribute patched for it); ``install`` adds one
# span name per ``ALGORITHMS`` entry in the ``algorithms`` layer.
PATCH_POINTS = (
    ("env", "sample_block", "maxgap.algorithms", "sample_block"),
    ("confidence", "add", "maxgap.confidence", "IntervalTracker.add"),
    ("confidence", "refresh", "maxgap.confidence", "IntervalTracker.refresh"),
    ("gapbounds", "upper_gaps", "maxgap.algorithms", "upper_gaps"),
    ("gapbounds", "lower_max_gap", "maxgap.algorithms", "lower_max_gap"),
    ("algorithms", "report_clusters", "maxgap.algorithms", "report_clusters"),
    ("hardness", "hardness_report", "maxgap.hardness", "hardness_report"),
    ("cli", "run_experiment", "maxgap.cli", "run_experiment"),
)

LAYERS = ("env", "confidence", "gapbounds", "algorithms", "hardness", "cli")


class Tracer:
    """Records nested spans and the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []  # "layer.name", index = name id
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name_id = array("h")
        self.trial = array("l")
        self.current_trial = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # counters recorded at the layer boundaries
        self.draws = 0
        self.bound_arms = 0

    # -- recording -----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, count=None):
        full = f"{layer}.{name}"
        if full not in self.names:
            self.names.append(full)
        name_id = self.names.index(full)
        start, end, parent = self.start, self.end, self.parent
        name_ids, trial, stack = self.name_id, self.trial, self._stack

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            name_ids.append(name_id)
            trial.append(self.current_trial)
            end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if count is not None:
                count(args, out)
            return out

        return traced

    def _count_draws(self, args, out) -> None:
        self.draws += out.size

    def _count_bound_arms(self, args, out) -> None:
        self.bound_arms += len(args[0])

    # -- installation --------------------------------------------------------

    @contextmanager
    def active(self):
        """Record spans inside the ``with`` block only."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        """Patch every layer boundary; ``uninstall`` before installing again."""
        from maxgap import algorithms

        counters = {
            "sample_block": self._count_draws,
            "upper_gaps": self._count_bound_arms,
            "lower_max_gap": self._count_bound_arms,
        }
        for layer, name, module_name, attr in PATCH_POINTS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(layer, name, original, counters.get(name)))
        for key, original in list(algorithms.ALGORITHMS.items()):
            self._restore.append((algorithms.ALGORITHMS, key, original))
            algorithms.ALGORITHMS[key] = self._wrap("algorithms", key, original)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def _arrays(self):
        start = np.asarray(self.start, dtype=float)
        end = np.asarray(self.end, dtype=float)
        parent = np.asarray(self.parent, dtype=np.int64)
        name_id = np.asarray(self.name_id, dtype=np.int64)
        return start, end, parent, name_id

    def summary(self) -> dict:
        """Span count, and per span name its calls and self seconds."""
        start, end, parent, name_id = self._arrays()
        dur = end - start
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        n = len(self.names)
        return {
            "spans": int(dur.size),
            "calls": dict(zip(self.names, np.bincount(name_id, minlength=n).tolist())),
            "self_s": dict(zip(self.names, np.bincount(name_id, dur - child, n).tolist())),
        }

    def save(self, path: str) -> None:
        """Write all spans as one ``.npz`` table (name ids index ``names``)."""
        start, end, parent, name_id = self._arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            start=start,
            end=end,
            parent=parent,
            name_id=name_id,
            trial=np.asarray(self.trial, dtype=np.int64),
        )
