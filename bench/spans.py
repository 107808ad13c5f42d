"""Span recorder for the traced benchmark run.

The traced run replaces chosen functions of the program's modules with
wrappers that record one span per call: its name, start, end and the span
that caused it.  A span's self time is its duration minus the time covered
by its direct children, so time spent in a wrapped callee is charged to the
callee and not to its caller.  The program itself is not edited; the
wrappers are installed from here and removed again after each traced round.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Callable

# Layer boundaries, as dotted paths below the program package.  A path with
# three parts names a method on a class.
BOUNDARIES = (
    "cyclotomic.CycloSum.is_zero",
    "cyclotomic.cyclotomic_poly",
    "intervals.in_zero_set",
    "intervals.level_function",
    "spectra.check_orthogonality",
    "spectra.completeness_matrix",
    "spectra.ap_extension_check",
    "spectra.spectrum_ap_extension",
    "spectra.rank_case",
    "ztiling.newman_tiles",
    "ztiling.brute_force_tile_period",
    "ztiling.pattern_search",
    "vansum.classify",
    "vansum.enumerate_type2_type2",
    "vansum.enumerate_type3_type3",
    "vansum.enumerate_type3_type2",
    "vansum.verify_weight6_classification",
    "cli.main",
)

# Spans of these boundaries are reported under one layer name.
ALIASES = {
    "cyclotomic.CycloSum.is_zero": "cyclotomic.is_zero",
    "vansum.enumerate_type2_type2": "vansum.enumerate",
    "vansum.enumerate_type3_type3": "vansum.enumerate",
    "vansum.enumerate_type3_type2": "vansum.enumerate",
}

# At most this many raw spans are kept per run; aggregates cover every span.
RAW_SPAN_LIMIT = 200_000


class SpanRecorder:
    """Spans and per-name aggregates for calls made through wrappers.

    `clock` returns integer nanoseconds; tests pass a fake clock.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.max_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack: list[list] = []  # [name, span index or -1, child ns]

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             observe: Callable | None = None):
        parent = self._stack[-1] if self._stack else None
        index = -1
        if len(self.spans) < RAW_SPAN_LIMIT:
            index = len(self.spans)
            self.spans.append([name, 0, 0, parent[1] if parent else -1])
        else:
            self.dropped += 1
        frame = [name, index, 0]
        self._stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - start
            own = duration - frame[2]
            if parent is not None:
                parent[2] += duration
            if index >= 0:
                self.spans[index][1] = start
                self.spans[index][2] = end
            self.calls[name] += 1
            self.self_ns[name] += own
            self.max_ns[name] = max(self.max_ns[name], duration)
        if observe is not None:
            observe(self, args, result, own, parent[0] if parent else None)
        return result


def _order_bucket(order: int) -> str:
    if order <= 60:
        return "order_le_60"
    if order <= 1024:
        return "order_61_1024"
    return "order_gt_1024"


def _observe_is_zero(rec, args, result, own, parent) -> None:
    order = math.lcm(*(root.exponent.denominator for _, root in args[0].terms))
    rec.self_ns["cyclotomic.is_zero.self_ms." + _order_bucket(order)] += own
    rec.distinct["cyclotomic.is_zero.orders"].add(order)


def _observe_in_zero_set(rec, args, result, own, parent) -> None:
    lam = args[1]
    key = (args[0], lam if isinstance(lam, Fraction) else Fraction(lam))
    rec.distinct["intervals.in_zero_set.keys"].add(key)
    if parent == "spectra.check_orthogonality":
        rec.counts["spectra.check_orthogonality.pairs"] += 1


def _observe_level_function(rec, args, result, own, parent) -> None:
    rec.counts["intervals.level_function.cells"] += len(result.values)


def _observe_pattern_search(rec, args, result, own, parent) -> None:
    rec.counts["ztiling.pattern_search.patterns"] += len(result)


def _observe_enumerate(rec, args, result, own, parent) -> None:
    rec.counts["vansum.enumerate.vertices"] += result.vertex_count
    rec.counts["vansum.enumerate.edges"] += result.edge_count


def _observe_weight6(rec, args, result, own, parent) -> None:
    rec.counts["vansum.verify_weight6_classification.checked"] += result.checked


OBSERVERS = {
    "cyclotomic.is_zero": _observe_is_zero,
    "intervals.in_zero_set": _observe_in_zero_set,
    "intervals.level_function": _observe_level_function,
    "ztiling.pattern_search": _observe_pattern_search,
    "vansum.enumerate": _observe_enumerate,
    "vansum.verify_weight6_classification": _observe_weight6,
}


def install(recorder: SpanRecorder, modules: dict) -> Callable[[], None]:
    """Wrap every boundary; returns a function that restores the originals.

    `modules` maps short module names ("intervals", ...) to module objects,
    plus "" for the package.  A wrapped function is replaced in every one of
    these namespaces that holds it, so calls made through names imported
    into another module are traced too.
    """
    undo: list[tuple[object, str, object]] = []
    for path in BOUNDARIES:
        parts = path.split(".")
        owner = modules[parts[0]]
        if len(parts) == 3:
            owner = getattr(owner, parts[1])
        original = getattr(owner, parts[-1])
        name = ALIASES.get(path, path)
        wrapper = _wrap(recorder, name, original)
        holders = [owner] if len(parts) == 3 else [
            m for m in modules.values() if getattr(m, parts[-1], None) is original
        ]
        for holder in holders:
            undo.append((holder, parts[-1], original))
            setattr(holder, parts[-1], wrapper)

    def restore() -> None:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)

    return restore


def _wrap(recorder: SpanRecorder, name: str, original: Callable) -> Callable:
    observe = OBSERVERS.get(name)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return recorder.call(name, original, args, kwargs, observe)

    return wrapper


def layer_metrics(recorder: SpanRecorder, rounds: int) -> dict[str, float]:
    """Per-layer figures for one traced round (sums divided by `rounds`)."""
    ms = 1e-6 / rounds
    calls = recorder.calls
    keys = recorder.distinct["intervals.in_zero_set.keys"]
    izs_calls = calls["intervals.in_zero_set"]
    return {
        "cyclotomic.is_zero.calls": calls["cyclotomic.is_zero"] / rounds,
        "cyclotomic.is_zero.self_ms.order_le_60":
            recorder.self_ns["cyclotomic.is_zero.self_ms.order_le_60"] * ms,
        "cyclotomic.is_zero.self_ms.order_61_1024":
            recorder.self_ns["cyclotomic.is_zero.self_ms.order_61_1024"] * ms,
        "cyclotomic.is_zero.self_ms.order_gt_1024":
            recorder.self_ns["cyclotomic.is_zero.self_ms.order_gt_1024"] * ms,
        "cyclotomic.is_zero.distinct_orders":
            len(recorder.distinct["cyclotomic.is_zero.orders"]),
        "cyclotomic.cyclotomic_poly.self_ms":
            recorder.self_ns["cyclotomic.cyclotomic_poly"] * ms,
        "intervals.in_zero_set.calls": izs_calls / rounds,
        "intervals.in_zero_set.self_ms": recorder.self_ns["intervals.in_zero_set"] * ms,
        "intervals.in_zero_set.repeat_ratio":
            1 - len(keys) * rounds / izs_calls if izs_calls else 0.0,
        "intervals.level_function.self_ms":
            recorder.self_ns["intervals.level_function"] * ms,
        "intervals.level_function.cells":
            recorder.counts["intervals.level_function.cells"] / rounds,
        "spectra.check_orthogonality.self_ms":
            recorder.self_ns["spectra.check_orthogonality"] * ms,
        "spectra.check_orthogonality.pairs":
            recorder.counts["spectra.check_orthogonality.pairs"] / rounds,
        "spectra.completeness_matrix.self_ms":
            recorder.self_ns["spectra.completeness_matrix"] * ms,
        "spectra.ap_extension_check.self_ms":
            recorder.self_ns["spectra.ap_extension_check"] * ms,
        "spectra.spectrum_ap_extension.self_ms":
            recorder.self_ns["spectra.spectrum_ap_extension"] * ms,
        "spectra.rank_case.self_ms": recorder.self_ns["spectra.rank_case"] * ms,
        "ztiling.brute_force_tile_period.self_ms":
            recorder.self_ns["ztiling.brute_force_tile_period"] * ms,
        "ztiling.brute_force_tile_period.max_ms":
            recorder.max_ns["ztiling.brute_force_tile_period"] * 1e-6,
        "ztiling.newman_tiles.self_ms": recorder.self_ns["ztiling.newman_tiles"] * ms,
        "ztiling.pattern_search.self_ms": recorder.self_ns["ztiling.pattern_search"] * ms,
        "ztiling.pattern_search.patterns":
            recorder.counts["ztiling.pattern_search.patterns"] / rounds,
        "vansum.enumerate.self_ms": recorder.self_ns["vansum.enumerate"] * ms,
        "vansum.enumerate.vertices": recorder.counts["vansum.enumerate.vertices"] / rounds,
        "vansum.enumerate.edges": recorder.counts["vansum.enumerate.edges"] / rounds,
        "vansum.classify.calls": calls["vansum.classify"] / rounds,
        "vansum.classify.self_ms": recorder.self_ns["vansum.classify"] * ms,
        "vansum.verify_weight6_classification.self_ms":
            recorder.self_ns["vansum.verify_weight6_classification"] * ms,
        "vansum.verify_weight6_classification.checked":
            recorder.counts["vansum.verify_weight6_classification.checked"] / rounds,
        "cli.main.calls": calls["cli.main"] / rounds,
        "cli.main.self_ms": recorder.self_ns["cli.main"] * ms,
        "cli.main.report_bytes": recorder.counts["cli.main.report_bytes"] / rounds,
    }
