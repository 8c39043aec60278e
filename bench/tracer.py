"""Timing spans around covacc's public functions, installed from outside.

``scenario.py`` binds ``step_plant``, ``step_uio`` and the rest with
``from ... import``, so patching only the defining module would miss the
runner's calls.  ``Tracer.install`` therefore replaces every binding of a
traced function in every loaded ``covacc`` module, plus the
``ScenarioTrace.to_csv`` method, and ``uninstall`` puts the originals back.

Spans (name, start, end, parent) stay in memory in flat arrays and are
written out once, by ``save``.  A layer's self time is its span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute) pairs; a dotted attribute is a method on a class.
TRACED = (
    ("cli", "main"),
    ("scenario", "load_scenario"),
    ("scenario", "build_designs"),
    ("scenario", "run"),
    ("scenario", "ScenarioTrace.to_csv"),
    ("observers", "design_uio"),
    ("observers", "uio_estimate"),
    ("observers", "step_uio"),
    ("observers", "step_distributed"),
    ("numerics", "observer_gain"),
    ("numerics", "stabilizing_gain"),
    ("numerics", "pseudo_inverse"),
    ("model", "measured_output"),
    ("model", "step_plant"),
    ("model", "step_attacker"),
    ("detection", "aggregate_error"),
    ("detection", "emit_alarm"),
    ("detection", "decide_attack"),
    ("detection", "calibrate_thresholds"),
    ("accommodation", "build_ls_estimator"),
    ("accommodation", "build_reconstructor"),
    ("accommodation", "neighbor_cancellation_gains"),
    ("accommodation", "ls_estimate"),
    ("accommodation", "reconstruct_input"),
    ("accommodation", "merge_kernel_component"),
    ("accommodation", "accommodated_control"),
)
LABELS = tuple(f"{module}.{attr}" for module, attr in TRACED)
MODULES = ("cli", "scenario", "model", "observers", "detection", "accommodation", "numerics")

# Useful outcomes counted on return values: label -> predicate.
_HITS = {
    "detection.emit_alarm": lambda alarm: alarm.active,
    "accommodation.reconstruct_input": lambda result: result[1],
}


class Tracer:
    """Records one span per call of every traced function while installed."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.hits = dict.fromkeys(_HITS, 0)
        self._stack = [-1]
        self._restore = []

    def _wrap(self, label: str, fn):
        name_id = LABELS.index(label)
        hit = _HITS.get(label)
        clock = time.perf_counter
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hit is not None and hit(result):
                self.hits[label] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a ``covacc`` module binds it.

        A function that no longer exists is skipped and reports zero calls.
        """
        loaded = [mod for key, mod in sorted(sys.modules.items())
                  if mod is not None and (key == "covacc" or key.startswith("covacc."))]
        for (module, attr), label in zip(TRACED, LABELS):
            home = sys.modules.get(f"covacc.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                if cls is not None and meth in vars(cls):
                    self._patch(cls, meth, self._wrap(label, vars(cls)[meth]))
                continue
            fn = getattr(home, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(label, fn)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self) -> dict:
        """Per-label self time and calls, module totals, hit counts, run phases."""
        name, start, end, parent = self._arrays()
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = np.bincount(name, weights=dur - child, minlength=len(LABELS))
        calls = np.bincount(name, minlength=len(LABELS))
        out = {}
        for idx, label in enumerate(LABELS):
            out[f"{label}_s"] = float(self_time[idx])
            out[f"{label}.calls"] = int(calls[idx])
        for module in MODULES:
            out[f"module.{module}_s"] = sum(
                float(self_time[i]) for i, label in enumerate(LABELS) if label.startswith(module + ".")
            )
        out.update({f"{label}.hits": count for label, count in self.hits.items()})
        out["scenario.calibration_s"], out["scenario.simulate_s"] = _run_phases(name, start, end, parent)
        return out

    def save(self, path) -> None:
        """Write the spans: label table plus name/start/end/parent arrays."""
        name, start, end, parent = self._arrays()
        np.savez_compressed(path, labels=np.array(LABELS), name=name, start=start, end=end, parent=parent)

    def _arrays(self) -> tuple:
        # Copies, so the recording arrays stay appendable.
        return (np.array(self.name, dtype=np.int32), np.array(self.start),
                np.array(self.end), np.array(self.parent, dtype=np.int32))


def _run_phases(name, start, end, parent) -> tuple:
    """Calibration: build_designs returns -> calibrate_thresholds returns.
    Simulation: calibrate_thresholds returns -> run returns."""
    run_id = LABELS.index("scenario.run")
    designs_id = LABELS.index("scenario.build_designs")
    calib_id = LABELS.index("detection.calibrate_thresholds")
    calibration = simulate = 0.0
    for r in np.flatnonzero(name == run_id):
        kids = np.flatnonzero(parent == r)
        designed = end[kids[name[kids] == designs_id]]
        calibrated = end[kids[name[kids] == calib_id]]
        t_designed = float(designed[-1]) if designed.size else float(start[r])
        t_calibrated = float(calibrated[-1]) if calibrated.size else t_designed
        calibration += t_calibrated - t_designed
        simulate += float(end[r]) - t_calibrated
    return calibration, simulate
