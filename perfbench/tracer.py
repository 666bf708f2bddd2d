"""Span tracing for the traced benchmark run, installed from outside telkit.

The tracer replaces each public telkit function at every module binding
that refers to it (``from .hosvd import hosvd`` makes one binding per
importing module, and ``telkit.hosvd`` on the package is the function,
not the module) and wraps the ``predict`` method of the four learner
model classes.  Each call records a span ``(name, start, end, parent)``
in memory; ``uninstall`` restores every original binding so untraced
passes run the unmodified program.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# Modules whose public functions are layer boundaries, with the layer
# name used in metric names.  Learner kinds are reached through the
# ``learners.fit`` dispatcher (a dict of fitters, not module globals), so
# the learners layer is traced at ``fit``, the CV helpers and ``predict``.
LAYER_MODULES = {
    "telkit.tensor": "tensor",
    "telkit.linalg": "linalg",
    "telkit.hosvd": "hosvd",
    "telkit.learners": "learners",
    "telkit.learners.grid": "learners",
    "telkit.ensemble": "ensemble",
    "telkit.io": "io",
    "telkit.model_io": "model_io",
    "telkit.canonical": "canonical",
    "telkit.synth": "synth",
    "telkit.experiment": "experiment",
    "telkit.cli": "cli",
}

# Private functions that are layer boundaries all the same: the CLI
# subcommands, looked up through module globals on every ``main`` call.
EXTRA_FUNCTIONS = {
    ("telkit.cli", "_cmd_train"): "cli.train",
    ("telkit.cli", "_cmd_predict"): "cli.predict",
}

# ``learners.predict`` is a pass-through to the model method traced below.
SKIPPED = {("telkit.learners", "predict")}

MODEL_CLASSES = ("KnnModel", "TreeModel", "LogitModel", "SvmModel")

# Spans below these are prediction-time or rank-search decompositions.
NON_TRAINING_ANCESTORS = {"ensemble.telvi_votes", "hosvd.rank_search"}

# Operations whose nested call counts the run summary reports, so that
# the fixed counts of each operation can be checked from run to run.
SCOPES = {
    "experiment.run_experiment", "hosvd.rank_search", "cli.train", "cli.predict",
}


class Tracer:
    """Record call spans at telkit layer boundaries while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.predict_rows = 0
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.predict_rows = 0

    def _span(self, name, func, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _wrap_function(self, name, func):
        if name == "learners.fit":
            @functools.wraps(func)
            def traced(spec, *args, **kwargs):
                return self._span(
                    f"learners.fit.{spec.kind}", func, (spec,) + args, kwargs
                )
        else:
            @functools.wraps(func)
            def traced(*args, **kwargs):
                return self._span(name, func, args, kwargs)
        return traced

    def _wrap_predict(self, method):
        @functools.wraps(method)
        def traced(model, X):
            self.predict_rows += len(X)
            return self._span("learners.predict", method, (model, X), {})
        return traced

    def install(self) -> None:
        """Wrap every layer function at each of its bindings."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        targets: dict[int, tuple[object, str]] = {}
        for module_name, layer in LAYER_MODULES.items():
            module = sys.modules[module_name]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module_name
                    and not attr.startswith("_")
                    and (module_name, attr) not in SKIPPED
                ):
                    targets[id(value)] = (value, f"{layer}.{attr}")
        for (module_name, attr), name in EXTRA_FUNCTIONS.items():
            value = getattr(sys.modules[module_name], attr)
            targets[id(value)] = (value, name)

        telkit_modules = [
            module for module_name, module in list(sys.modules.items())
            if module is not None
            and (module_name == "telkit" or module_name.startswith("telkit."))
        ]
        for func, name in targets.values():
            wrapper = self._wrap_function(name, func)
            for module in telkit_modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        self._bindings.append((module, attr, func))
                        setattr(module, attr, wrapper)

        learners = sys.modules["telkit.learners"]
        for class_name in MODEL_CLASSES:
            cls = getattr(learners, class_name)
            method = cls.__dict__["predict"]
            self._bindings.append((cls, "predict", method))
            setattr(cls, "predict", self._wrap_predict(method))

    def uninstall(self) -> None:
        """Restore every binding ``install`` replaced."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings = []

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time in seconds.

        Self time is the span's duration minus the durations of its
        direct children; spans nest strictly because the run is
        single-threaded.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time[index]
        return dict(out)

    def _marked_ancestors(self, names) -> list[tuple[str, ...]]:
        """For each span, the names in ``names`` along its ancestor chain.

        A span is appended when its call starts, so a parent's index is
        always below its children's.
        """
        above: list[tuple[str, ...]] = []
        for _, _, _, parent in self.spans:
            if parent < 0:
                above.append(())
                continue
            parent_name = self.spans[parent][0]
            mark = (parent_name,) if parent_name in names else ()
            above.append(above[parent] + mark)
        return above

    def training_decompositions(self) -> int:
        """``hosvd`` calls made while training, not predicting or searching."""
        above = self._marked_ancestors(NON_TRAINING_ANCESTORS)
        return sum(
            1 for (name, *_), marks in zip(self.spans, above)
            if name == "hosvd.hosvd" and not marks
        )

    def scoped_counts(self) -> dict[str, dict[str, int]]:
        """Call counts of the spans nested in each span named in SCOPES."""
        above = self._marked_ancestors(SCOPES)
        out: dict[str, dict[str, int]] = {}
        for (name, *_), marks in zip(self.spans, above):
            for scope in set(marks):
                counts = out.setdefault(scope, {})
                counts[name] = counts.get(name, 0) + 1
        return out

    def write_jsonl(self, path) -> None:
        """Write the recorded spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    f'{{"id":{index},"parent":{parent},"name":"{name}",'
                    f'"start":{start!r},"end":{end!r}}}\n'
                )
