"""Per-layer spans recorded by wrapping the package's public functions.

The package source stays unedited: :meth:`Tracer.install` replaces every
module-level binding of a traced function inside ``artcluster.*`` with a
timing wrapper -- the defining module and each module that imported the
name (``artcluster.cli.ingest``, ``artcluster.randtest.fit_per_cluster``,
...) -- so calls are seen however the caller reached the function.  A
traced name that no longer exists is reported as an absent layer.

Spans stay in memory; :meth:`Tracer.end_pass` folds one pass's spans
into per-layer self time (span duration minus the time its child spans
cover), call counts and computed counts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "artcluster"

# Traced layers, named ``<module>.<function>`` after the package modules.
LAYERS = (
    "cli.main",
    "io.ingest",
    "io.render_report",
    "model.canonicalize",
    "blocks.blockify",
    "groups.enumerate_group",
    "estimation.fit_per_cluster",
    "randtest.run_test",
    "randtest.run_test_from_scores",
    "randtest.critical_value",
    "randtest.pvalue_from_statistics",
    "kernels.group_means",
    "kernels.interval_bounds",
    "intervals.interval_inputs",
    "intervals.interval",
    "intervals.inversion_scan",
    "simulation.generate",
)


# Counts computed from a traced call's arguments and result, not read
# from a counter inside the program.  Each maps a layer to
# (count name, function of (args, result)).
COMPUTED_COUNTS = {
    "io.ingest": ("io.ingest.rows", lambda args, result: result[0].n),
    # m * q: equals the int8 bytes of the sign groups built
    "groups.enumerate_group": (
        "groups.sign_entries_built",
        lambda args, result: result.size * result.q,
    ),
    "kernels.group_means": (
        "kernels.group_means.sign_entries",
        lambda args, result: args[0].shape[0] * args[0].shape[1],
    ),
    "estimation.fit_per_cluster": ("estimation.clusters_fit", lambda args, result: result.q),
}


class Tracer:
    """Installs span-recording wrappers and summarizes them per pass."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {name: 0 for name, _ in COMPUTED_COUNTS.values()}
        self.absent: list = []
        self.count_errors: set = set()
        self._stack: list = []
        self._patched: list = []

    # -- wrappers ------------------------------------------------------

    def _wrap(self, index: int, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counted = COMPUTED_COUNTS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span] = (index, start, end, parent)
            if counted is not None:
                name, count = counted
                try:
                    self.counts[name] += int(count(args, result))
                except (AttributeError, IndexError, TypeError):
                    self.count_errors.add(name)
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for index, layer in enumerate(LAYERS):
            module_name, func_name = layer.split(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(index, layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- per-pass summary ----------------------------------------------

    def end_pass(self, keep_spans: bool = False) -> dict:
        """Self time and calls per layer for the spans since the last call,
        plus the computed counts (and the raw spans if asked); clears both."""
        spans = self.spans
        if self._stack or any(span is None for span in spans):
            raise RuntimeError("a traced call is still open at the end of a pass")
        child = [0.0] * len(spans)
        for index, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = [0.0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        for (index, start, end, _), covered in zip(spans, child):
            self_s[index] += (end - start) - covered
            calls[index] += 1
        summary = {"self_s": self_s, "calls": calls, "counts": dict(self.counts)}
        if keep_spans:
            summary["spans"] = [(LAYERS[i], start, end, parent) for i, start, end, parent in spans]
        spans.clear()
        for name in self.counts:
            self.counts[name] = 0
        return summary
