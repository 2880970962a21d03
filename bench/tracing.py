"""Layer tracer for the traced benchmark run.

The tracer replaces each layer's public functions with timing wrappers at the
names the calling modules bind (``golay2d.verify.auto_correlation_table``,
``golay2d.cli.is_gcap``, ``golay2d.formats.load_array`` ...), keeps every
span in memory, and puts the original objects back on ``restore``.  No
source file is changed.

A span is ``[layer, name, start, end, parent]`` where ``parent`` is the index
of the enclosing span or -1.  The run has one thread, so spans nest strictly.
Two very frequent calls, ``CorrelationValue.__init__`` and
``formats.format_correlation_value``, are counted and timed without a span:
they sit inside a layer, not at its boundary, and a span each would hold
hundreds of thousands of records.
"""

from __future__ import annotations

import os
from collections import Counter
from time import perf_counter

import golay2d.boolfunc
import golay2d.cli
import golay2d.constructions
import golay2d.correlation
import golay2d.formats
import golay2d.papr
import golay2d.verify

LAYER, NAME, START, END, PARENT = range(5)

_CORRELATION_TABLES = ("auto_correlation_table", "cross_correlation_table")
_VERIFY = ("is_gcap", "is_gcas", "is_mate", "brute_force_gcaps")
_CONSTRUCTIONS = (
    "construct_gcap_basic", "construct_gcap_general", "construct_mate",
    "construct_gcas", "gdj_pair", "gcs_1d", "enumerate_general_gcaps",
)
_FORMATS = (
    "load_array", "save_array", "array_to_csv", "array_from_csv",
    "array_to_json_dict", "array_from_json_dict", "function_to_json_dict",
    "function_from_json_dict", "parse_correlation_value",
    "correlation_table_to_csv", "correlation_table_from_csv",
    "correlation_table_to_json_dict", "correlation_table_from_json_dict",
    "parse_construction_spec", "spec_to_json_dict",
    "papr_report_to_json_dict", "verification_to_json_dict",
)

# (module, names, layer): every binding a caller can reach.
_BINDINGS = (
    (golay2d.correlation, _CORRELATION_TABLES, "correlation"),
    (golay2d.verify, _CORRELATION_TABLES, "correlation"),
    (golay2d.cli, _CORRELATION_TABLES, "correlation"),
    (golay2d.verify, _VERIFY, "verify"),
    (golay2d.cli, _VERIFY, "verify"),
    (golay2d.constructions, _CONSTRUCTIONS, "constructions"),
    (golay2d.cli, _CONSTRUCTIONS, "constructions"),
    (golay2d.papr, ("papr_report", "papr_sequence"), "papr"),
    (golay2d.cli, ("papr_report",), "papr"),
    (golay2d.formats, _FORMATS, "formats"),
    (golay2d.cli, ("main",), "cli"),
    (golay2d.boolfunc.GeneralizedBooleanFunction, ("to_array",), "boolfunc"),
)


def _shifts(a) -> int:
    return (2 * a.L1 - 1) * (2 * a.L2 - 1)


class Tracer:
    """Wraps the layer boundaries of golay2d; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        for owner, names, layer in _BINDINGS:
            for name in names:
                self._wrap(owner, name, layer)
        self._wrap_counted(golay2d.correlation.CorrelationValue, "__init__", "correlation.value")
        self._wrap_counted(golay2d.formats, "format_correlation_value", "formats.format_cell")
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _open(self, layer, name) -> tuple[int, bool]:
        """Open a span; the flag says whether it enters its layer from outside."""
        parent = self._stack[-1] if self._stack else -1
        entry = parent < 0 or self.spans[parent][LAYER] != layer
        self.spans.append([layer, name, perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1, entry

    def _close(self, index):
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    def _wrap(self, owner, name, layer):
        original = getattr(owner, name)
        tracer = self

        def wrapper(*args, **kwargs):
            index, entry = tracer._open(layer, name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer._count(layer, name, entry, args, kwargs, result)
            if name == "enumerate_general_gcaps":
                return tracer._traced_stream(result)
            return result

        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap_counted(self, owner, name, key):
        original = getattr(owner, name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                counts[key + ".busy_s"] += perf_counter() - start
                counts[key + ".calls"] += 1

        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _traced_stream(self, stream):
        """Attribute the time spent producing each streamed item to constructions."""
        while True:
            index, _ = self._open("constructions", "enumerate_general_gcaps.next")
            try:
                item = next(stream)
            except StopIteration:
                return
            finally:
                self._close(index)
            yield item

    def _count(self, layer, name, entry, args, kwargs, result):
        """Counters derived from the arguments and result of one call."""
        c = self.counts
        if layer == "correlation":
            c["correlation.table.calls"] += 1
            c["correlation.shifts"] += _shifts(args[0])
        elif layer == "verify" and entry:
            if name == "brute_force_gcaps":
                q, L1, L2 = args[:3]
                tested = q ** (2 * L1 * L2)
                c["verify.pairs_tested"] += tested
                c["verify.pairs_found"] += len(result)
                c["verify.shifts_checked"] += tested * ((2 * L1 - 1) * (2 * L2 - 1) - 1)
            else:
                first = args[0] if name == "is_gcap" else args[0][0]
                # is_mate checks both pairs and then the cross sum.
                c["verify.shifts_checked"] += _shifts(first) * (3 if name == "is_mate" else 1)
                c["verify.pairs_tested"] += 1
                c["verify.pairs_found"] += int(result.passed)
        elif layer == "boolfunc":
            c["boolfunc.cells"] += 1 << (args[0].n + args[0].m)
        elif name == "papr_sequence":
            L = len(args[0])
            oversampling = args[2] if len(args) > 2 else kwargs.get(
                "oversampling", golay2d.papr.DEFAULT_OVERSAMPLING)
            c["papr.fft_points"] += oversampling * L
        elif name == "load_array":
            c["formats.bytes_read"] += os.path.getsize(args[0])
        elif name == "save_array":
            c["formats.bytes_written"] += os.path.getsize(args[1])
        elif name == "correlation_table_to_csv":
            c["formats.bytes_written"] += len(result.encode())
        elif name == "correlation_table_to_json_dict":
            c["formats.cells_formatted"] += _shifts(args[0])

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans and counters recorded so far."""
        spans, c = self.spans, self.counts
        busy: Counter = Counter()      # outermost span of each layer
        calls: Counter = Counter()     # layer entries, stream resumptions excluded
        foreign: Counter = Counter()   # time in other layers' spans directly below an entry
        by_name: Counter = Counter()
        by_name_calls: Counter = Counter()
        entry_of: list[int] = []       # index of the entry span each span belongs to
        for i, (layer, name, start, end, parent) in enumerate(spans):
            duration = end - start
            by_name[name] += duration
            by_name_calls[name] += 1
            if parent >= 0 and spans[parent][LAYER] == layer:
                entry_of.append(entry_of[parent])
                continue
            entry_of.append(i)
            if parent >= 0:
                foreign[entry_of[parent]] += duration
            if not name.endswith(".next"):
                calls[layer] += 1
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][LAYER] != layer:
                ancestor = spans[ancestor][PARENT]
            if ancestor < 0:
                busy[layer] += duration
        self_time: Counter = Counter()
        for i, (layer, _, start, end, _) in enumerate(spans):
            if entry_of[i] == i:
                self_time[layer] += (end - start) - foreign[i]

        tested = c["verify.pairs_tested"]
        return {
            "correlation.table.calls": c["correlation.table.calls"],
            "correlation.table.busy_s": busy["correlation"],
            "correlation.shifts": c["correlation.shifts"],
            "correlation.values": c["correlation.value.calls"],
            "correlation.value.busy_s": c["correlation.value.busy_s"],
            "verify.calls": calls["verify"],
            "verify.busy_s": busy["verify"],
            "verify.self_s": self_time["verify"],
            "verify.shifts_checked": c["verify.shifts_checked"],
            "verify.pairs_tested": tested,
            "verify.pairs_found": c["verify.pairs_found"],
            "verify.useful_ratio": c["verify.pairs_found"] / tested if tested else 0.0,
            "constructions.calls": calls["constructions"],
            "constructions.busy_s": busy["constructions"],
            "boolfunc.to_array.calls": by_name_calls["to_array"],
            "boolfunc.to_array.busy_s": busy["boolfunc"],
            "boolfunc.cells": c["boolfunc.cells"],
            "papr.report.calls": calls["papr"],
            "papr.report.busy_s": busy["papr"],
            "papr.sequences": by_name_calls["papr_sequence"],
            "papr.sequence.busy_s": by_name["papr_sequence"],
            "papr.fft_points": c["papr.fft_points"],
            "formats.calls": calls["formats"],
            "formats.busy_s": busy["formats"],
            "formats.bytes_read": c["formats.bytes_read"],
            "formats.bytes_written": c["formats.bytes_written"],
            "formats.cells_formatted": c["formats.format_cell.calls"] + c["formats.cells_formatted"],
            "cli.calls": calls["cli"],
            "cli.busy_s": busy["cli"],
            "cli.self_s": self_time["cli"],
        }
