"""Span tracing of accpair's layers from outside the package.

``Tracer.install`` replaces the public functions and methods listed in
``TRACED`` with wrappers that record one span per call: a name, a start,
an end and the index of the enclosing span.  Module-level functions are
replaced under every name an ``accpair`` module binds them to, because a
caller looks a function up in its own module (``slots`` calls the
``slot_bounds`` it imported from ``timing``).  ``Tracer.uninstall`` puts
the originals back.

Spans live in flat arrays, so an operation that makes a million calls
costs about 24 bytes per call, and are written out with ``save``.  Self
time is a span's duration minus the durations of its direct children;
calls are strictly nested in this single-threaded program, so the
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: (module, attribute path, span name, span stats reported) of every wrapped
#: function.  Each stat becomes the per-layer metric ``<span>.<stat>``.
TRACED: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("cli", "main", "cli.main", ("self_s",)),
    ("traceio", "read_trace", "traceio.read_trace", ("self_s",)),
    ("traceio", "write_trace", "traceio.write_trace", ("self_s",)),
    ("simulate", "generate_trace", "simulate.generate_trace", ("self_s",)),
    ("simulate", "replay", "simulate.replay", ("self_s",)),
    ("simulate", "simulate_false_detection", "simulate.simulate_false_detection", ("self_s",)),
    ("engine", "PairingEngine.__init__", "engine.PairingEngine.init", ("calls", "self_s")),
    ("engine", "PairingEngine.on_arrival", "engine.on_arrival", ("calls", "self_s")),
    ("slots", "candidate_accs", "slots.candidate_accs", ("self_s",)),
    ("slots", "SlotStore.create_slots", "slots.create_slots", ("calls", "self_s")),
    ("slots", "SlotStore.advance_expired", "slots.advance_expired", ("calls", "self_s")),
    ("slots", "SlotStore.slots_containing", "slots.slots_containing", ("calls", "self_s")),
    ("slots", "SlotStore.remove_base", "slots.remove_base", ("self_s",)),
    ("timing", "slot_bounds", "timing.slot_bounds", ("calls", "self_s")),
    ("timing", "nominal_interval", "timing.nominal_interval", ("calls", "self_s")),
    ("analytic", "build_timebins", "analytic.build_timebins", ("calls", "self_s")),
    ("analytic", "qM", "analytic.qM", ("calls",)),
    ("analytic", "mean_qM", "analytic.mean_qM", ("calls",)),
    ("analytic", "max_distinguishable_meters", "analytic.max_distinguishable_meters",
     ("self_s",)),
)

#: Unit of each span stat.
STAT_UNITS = {"calls": "count", "self_s": "s"}

#: Metrics derived from span durations and the wrapped calls' results.
DERIVED: Tuple[Tuple[str, str], ...] = (
    ("traceio.read_trace.rows_per_s", "1/s"),
    ("engine.on_arrival.p50_us", "us"),
    ("engine.on_arrival.p99_us", "us"),
    ("engine.live_slots.peak", "count"),
    ("engine.pair_ratio", "pairs/arrival"),
    ("engine.useful_lookup_ratio", "pairs/slot"),
    ("slots.create_slots.slots_created", "count"),
    ("slots.advance_expired.advanced", "count"),
    ("slots.advance_expired.expired", "count"),
    ("slots.slots_containing.hits_per_call", "hits/call"),
    ("trace.overhead_frac", "frac"),
)

#: Per-layer metrics, in output order, with their units.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    (f"{span}.{stat}", STAT_UNITS[stat]) for _, _, span, stats in TRACED for stat in stats
) + DERIVED

#: Metrics that count work; they repeat exactly for a given seed.
COUNT_METRICS = frozenset(name for name, unit in PER_LAYER if unit == "count")


# Counters taken from the wrapped calls' return values, keyed by span name.


def _count_created(counters, args, created) -> None:
    counters["slots_created"] += created


def _count_advanced(counters, args, result) -> None:
    counters["advanced"] += result[0]
    counters["expired"] += result[1]


def _count_hits(counters, args, hits) -> None:
    counters["lookup_hits"] += len(hits)


def _count_arrival(counters, args, outcome) -> None:
    if outcome.kind == "pair":
        counters["pairs"] += 1
    live = getattr(args[0], "live_slots", 0)
    if live > counters["live_peak"]:
        counters["live_peak"] = live


def _count_rows(counters, args, trace) -> None:
    counters["rows_read"] += len(trace)


_AFTER = {
    "slots.create_slots": _count_created,
    "slots.advance_expired": _count_advanced,
    "slots.slots_containing": _count_hits,
    "engine.on_arrival": _count_arrival,
    "traceio.read_trace": _count_rows,
}


class Tracer:
    """In-memory span recorder plus the result counters of the wrapped calls."""

    def __init__(self) -> None:
        self.names: List[str] = [span for _, _, span, _ in TRACED]
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = [-1]
        self.counters: Dict[str, float] = defaultdict(float)
        self._patches: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop recorded spans and counters; wrappers stay installed."""
        for buf in (self.name_ids, self.parents, self.starts, self.ends):
            del buf[:]
        self._stack[:] = [-1]
        self.counters.clear()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for name_id, (module, path, span, _) in enumerate(TRACED):
            mod = importlib.import_module(f"accpair.{module}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, attr, None)
            if original is None:
                continue  # layer function renamed or removed: its metrics read 0
            wrapped = self._wrap(name_id, original, _AFTER.get(span))
            if owner_name:
                self._patch(owner, attr, wrapped)
                continue
            for modname, other in list(sys.modules.items()):
                if modname == "accpair" or modname.startswith("accpair."):
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: object, attr: str, wrapped: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def _wrap(self, name_id: int, fn: Callable, after: Optional[Callable]) -> Callable:
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(counters, args, result)
            return result

        return traced

    # -- reduction --------------------------------------------------------

    def _arrays(self):
        return (
            np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            np.frombuffer(self.parents, dtype=np.int32).copy(),
            np.frombuffer(self.starts, dtype=np.float64).copy(),
            np.frombuffer(self.ends, dtype=np.float64).copy(),
        )

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the spans and counters recorded since ``reset``.

        ``trace.overhead_frac`` is filled in by the caller, which knows the
        untraced time of the same operation.
        """
        names, parents, starts, ends = self._arrays()
        n_names = len(self.names)
        dur = ends - starts
        nested = parents >= 0
        self_time = dur - np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(names, minlength=n_names)
        self_s = np.bincount(names, weights=self_time, minlength=n_names)
        total = np.bincount(names, weights=dur, minlength=n_names)
        index = {span: i for i, span in enumerate(self.names)}
        metrics: Dict[str, float] = {
            f"{span}.{stat}": int(calls[i]) if stat == "calls" else float(self_s[i])
            for i, (_, _, span, stats) in enumerate(TRACED) for stat in stats
        }
        arrivals = int(calls[index["engine.on_arrival"]])
        arrival_us = dur[names == index["engine.on_arrival"]] * 1e6
        lookups = int(calls[index["slots.slots_containing"]])
        read_total = float(total[index["traceio.read_trace"]])
        counters = self.counters
        metrics.update({
            "traceio.read_trace.rows_per_s": counters["rows_read"] / read_total if read_total else 0.0,
            "engine.on_arrival.p50_us": float(np.percentile(arrival_us, 50)) if arrivals else 0.0,
            "engine.on_arrival.p99_us": float(np.percentile(arrival_us, 99)) if arrivals else 0.0,
            "engine.live_slots.peak": int(counters["live_peak"]),
            "engine.pair_ratio": counters["pairs"] / arrivals if arrivals else 0.0,
            "engine.useful_lookup_ratio": (
                counters["pairs"] / counters["lookup_hits"] if counters["lookup_hits"] else 0.0
            ),
            "slots.create_slots.slots_created": int(counters["slots_created"]),
            "slots.advance_expired.advanced": int(counters["advanced"]),
            "slots.advance_expired.expired": int(counters["expired"]),
            "slots.slots_containing.hits_per_call": counters["lookup_hits"] / lookups if lookups else 0.0,
        })
        return metrics

    def save(self, path: str) -> None:
        """Write the recorded spans (name, start, end, parent) as ``.npz``."""
        names, parents, starts, ends = self._arrays()
        np.savez(path, span_names=np.array(self.names), name=names, parent=parents,
                 start=starts, end=ends)


def combine(per_op: List[Dict[str, float]]) -> Dict[str, float]:
    """Counts from the first traced operation, everything else as a median."""
    return {
        name: per_op[0][name] if name in COUNT_METRICS
        else statistics.median(op[name] for op in per_op)
        for name in per_op[0]
    }
