"""Span tracer that wraps sgdsmooth's public functions from outside.

The library imports functions by name (``pipeline.region_scan``,
``cli.sgd_run``, ...), so patching the defining module alone would miss
those call sites.  ``Tracer.install`` therefore replaces every module
global in ``sgdsmooth.*`` that is bound to a traced function, and the
class attribute for traced methods.  Spans live in memory as
``[name, start_ns, end_ns, parent]`` and are reduced to per-name call
counts, inclusive time and self time (duration minus the time covered by
direct children) when the run ends.  Counters (rows, samples, bytes) are
taken at the same boundaries.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _rows(tr, name, args, kwargs, out):
    tr.counts[name + ".rows"] += int(np.shape(out)[0])


def _samples(tr, name, args, kwargs, out):
    tr.counts[name + ".samples"] += int(out.samples)
    ci = float(np.max(out.confidence_halfwidth))
    tr.counts["smoothing.ci_halfwidth.max"] = max(tr.counts["smoothing.ci_halfwidth.max"], ci)


def _scan(tr, name, args, kwargs, out):
    tr.counts["certifier.points"] += len(out.certificates)
    tr.counts["certifier.passed"] += sum(bool(c.passed) for c in out.certificates)


def _file_bytes(index, key):
    def count(tr, name, args, kwargs, out):
        tr.counts[name + ".bytes"] += os.path.getsize(_arg(args, kwargs, index, key))
    return count


def _cluster_points(tr, name, args, kwargs, out):
    tr.counts[name + ".points"] += int(np.shape(_arg(args, kwargs, 0, "points"))[0])


def _trial_steps(tr, name, args, kwargs, out):
    x0s = _arg(args, kwargs, 2, "x0s")
    schedule = _arg(args, kwargs, 1, "schedule")
    tr.counts[name + ".trial_steps"] += int(np.shape(x0s)[0]) * schedule.total_steps


def _run_steps(tr, name, args, kwargs, out):
    tr.counts[name + ".steps"] += len(out) - 1


# (defining module, function or "Class.method", span name, counter or None)
TRACED = (
    ("sgdsmooth.noise", "NoiseKernel.sample_batch", "noise.sample_batch", _rows),
    ("sgdsmooth.noise", "RngStream.generator", "noise.generator", None),
    ("sgdsmooth.objectives", "Objective.grads_at", "objectives.grads_at", _rows),
    ("sgdsmooth.objectives", "Objective.values_at", "objectives.values_at", _rows),
    ("sgdsmooth.smoothing", "smoothed_grad_mc", "smoothing.smoothed_grad_mc", _samples),
    ("sgdsmooth.smoothing", "smoothed_value_mc", "smoothing.smoothed_value_mc", _samples),
    ("sgdsmooth.certifier", "region_scan", "certifier.region_scan", _scan),
    ("sgdsmooth.theory", "constants", "theory.constants", None),
    ("sgdsmooth.optimizer", "sgd_run", "optimizer.sgd_run", _run_steps),
    ("sgdsmooth.optimizer", "Trajectory.write_csv", "optimizer.write_csv", _file_bytes(1, "path")),
    ("sgdsmooth.expcli.pipeline", "run_lockstep_ensemble", "pipeline.run_lockstep_ensemble", _trial_steps),
    ("sgdsmooth.expcli.pipeline", "EnsembleResult.trajectory", "pipeline.trajectory", None),
    ("sgdsmooth.expcli.pipeline", "persist_ensemble", "pipeline.persist_ensemble", None),
    ("sgdsmooth.expcli.pipeline", "smoothing_curve", "pipeline.smoothing_curve", None),
    ("sgdsmooth.expcli.pipeline", "summarize_ensemble", "pipeline.summarize_ensemble", None),
    ("sgdsmooth.expcli.pipeline", "calibrate_noise", "pipeline.calibrate_noise", None),
    ("sgdsmooth.expcli.cluster", "cluster_count", "cluster.cluster_count", _cluster_points),
    ("sgdsmooth.expcli.svg", "emit_svg_histogram", "svg.emit_svg_histogram", _file_bytes(2, "path")),
    ("sgdsmooth.expcli.config", "ExperimentConfig.load", "config.load", None),
    ("sgdsmooth.expcli.config", "ExperimentConfig.build_objective", "config.build", None),
    ("sgdsmooth.expcli.config", "ExperimentConfig.build_schedule", "config.build", None),
    ("sgdsmooth.expcli.cli", "main", "cli.main", None),
)

# Factories whose Objective carries the scalar value/grad closures.
OBJECTIVE_FACTORIES = (
    ("sgdsmooth.objectives", "make_spiky"),
    ("sgdsmooth.objectives", "make_quadratic"),
)


class Tracer:
    """In-memory spans and counters; records only while ``active``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(int)
        self.active = False

    # ---- recording ----

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, perf_counter_ns(), 0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    count(self, name, args, kwargs, out)
            finally:
                rec[2] = perf_counter_ns()
                self.stack.pop()
            return out

        return traced

    def counted_objective(self, factory):
        """Wrap a factory so the scalar closures of its Objective count calls."""

        @functools.wraps(factory)
        def make(*args, **kwargs):
            obj = factory(*args, **kwargs)
            value, grad = obj.value, obj.grad

            def counted_value(x):
                if self.active:
                    self.counts["objectives.value.calls"] += 1
                return value(x)

            def counted_grad(x):
                if self.active:
                    self.counts["objectives.grad.calls"] += 1
                return grad(x)

            return dataclasses.replace(obj, value=counted_value, grad=counted_grad)

        return make

    # ---- patching ----

    def install(self):
        """Patch every traced name where its callers look it up."""
        for module_name, attr, span_name, count in TRACED:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(span_name, raw.__func__, count)))
                else:
                    setattr(cls, meth, self.wrap(span_name, raw, count))
            else:
                fn = getattr(module, attr)
                _rebind(fn, self.wrap(span_name, fn, count))
        for module_name, attr in OBJECTIVE_FACTORIES:
            fn = getattr(importlib.import_module(module_name), attr)
            _rebind(fn, self.counted_objective(fn))

    # ---- reduction ----

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, plus the counters."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        per_name: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = per_name.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["incl_s"] += (end - start) / 1e9
            agg["self_s"] += (end - start - child_ns[i]) / 1e9
        return {"spans": per_name, "counts": dict(self.counts)}

    def dump(self, path) -> None:
        """Write the raw spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


def _rebind(original, replacement) -> None:
    """Point every sgdsmooth module global bound to `original` at `replacement`."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "sgdsmooth" or mod_name.startswith("sgdsmooth.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
