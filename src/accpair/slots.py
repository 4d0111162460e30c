"""Virtual-slot storage: creation, time-indexed lookup, advancement, expiry.

A virtual slot predicts a future reception window for the next packet from
the meter that sent some erroneous base packet, under one hypothesis about
the base's true ACC.  The store keeps one record per base packet: its live
candidate slots, all at the same step, and the envelope ``[start, end)``
that spans their windows.  One list sorted by envelope start indexes the
records, so a query reads only the prefix whose envelope starts by then.

``ProtocolParams.max_timeout`` bounds the timeout so that every step-j
window of a base closes before any of its step-(j+1) windows opens.  A
candidate whose window has ended can therefore wait for its base's
envelope to end before moving to the next step: until then its next
window cannot hold an arrival, and its own ended window holds none either.
So a record is touched only once its envelope has ended, and then advanced
as a whole.

Each query walks that prefix once.  A record whose envelope has ended is
swept and re-indexed (so it is met again if its next envelope has begun);
an open one is scanned for windows holding the query time.  An open
record's windows are narrow next to its envelope, so it keeps a skip time
before which none of them holds a time: its envelope start when created or
swept, then after each scan the query time if a window holds it, else the
earliest later window start.  The walk passes a record whose skip time is
still ahead with one comparison.  That is exact only because query times
never decrease: the query, the one method that moves the store's time,
raises ``TraceOrderError`` on a time that is not finite or precedes the
last query's.  A base may be created at any time, as its skip time starts
at its envelope start.

Candidates that leave instead of advancing, because their window held an
arrival or because they are at the final step, leave at their own window
end, so that ``len(store)`` stays exact; the scan drops them.  That takes
no other expiry path: a skip time is never later than the query after a
hit, nor than any window start still ahead, so a record is scanned (or
swept) at the first query at or after each of its windows ends.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .timing import LARGEST_FLOAT, ProtocolParams, check_acc, check_count, hamming_ball, shown
from .timing import window_row
# slot_bounds is not called here, but perfbench's tracer test reads it under this name
from .timing import slot_bounds  # noqa: F401


class TraceOrderError(ValueError):
    """Raised when arrivals are fed out of time order."""


@dataclass
class PacketArrival:
    """One reception event.

    ``meter_id``/``true_acc`` are ground truth carried only for post-hoc
    validation; they never influence pairing decisions.  A ``true_acc``
    needs a ``meter_id``, and a ``meter_id`` may come alone but not as ``""``,
    which a trace reads back as None; ``iter_trace`` relies on this check.
    The ACC range depends on the protocol's ``L``, so the engine checks it.
    """

    time: float
    acc: int
    erroneous: bool
    meter_id: Optional[str] = None
    true_acc: Optional[int] = None

    def __post_init__(self) -> None:
        if self.meter_id is None and self.true_acc is not None:
            raise ValueError("a true_acc needs a meter_id")
        if self.meter_id == "":
            raise ValueError("a meter_id may not be empty; None means no ground truth")


@dataclass(slots=True)
class VirtualSlot:
    """A predicted reception window tied to one erroneous base packet."""

    start: float
    width: float
    base_ref: int
    b: int          # bit errors in the base ACC implied by choosing this slot
    xi: int         # ACC expected for a packet arriving in the slot
    step: int       # transmissions since the base packet
    base: PacketArrival  # the base packet: its time anchors every step's window
    seq: int = 0    # creation order, used for deterministic tie-breaks
    saw_arrival: bool = False

    @property
    def end(self) -> float:
        return self.start + self.width


@lru_cache(maxsize=None, typed=True)
def _candidates(y: int, M: int, L: int) -> Tuple[Tuple[int, int, int], ...]:
    """``(base ACC, bit errors, expected ACC)`` of every candidate for ``y``.

    Ordered by expected ACC, which fixes the ``seq`` tie-break.  The cache is
    typed and checks ``y``, since a negative base ACC would read a window row
    from its end; it holds at most ``L * (log2(L) + 1)`` layouts per ``L``.
    """
    check_acc(y, L)
    masks = sorted(hamming_ball(M, L), key=lambda m: ((y ^ m) + 1) % L)
    return tuple((y ^ m, m.bit_count(), ((y ^ m) + 1) % L) for m in masks)


@dataclass(slots=True, eq=False)
class _Base:
    """The live candidate slots of one base packet, all at one step."""

    slots: List[VirtualSlot]
    start: float  # envelope [start, end) of their windows
    end: float
    skip: float   # no window holds a time before this


class SlotStore:
    """Time-indexed container of live virtual slots for one receiver.

    ``peak`` is the largest ``len(store)`` so far; only ``create_slots`` raises it.
    """

    def __init__(self, params: ProtocolParams, timeout: int = 10) -> None:
        check_count("timeout", timeout, 1)
        if timeout > params.max_timeout:
            raise ValueError(f"timeout {timeout} exceeds {params.max_timeout}, the largest "
                             "at which one base's windows close step by step")
        self.params = params
        self.timeout = timeout
        self._row1 = window_row(params, 1)
        # (envelope start, ref, record) sorted by start; a live ref is unique,
        # so no comparison ever reaches the record itself
        self._by_start: List[Tuple[float, int, _Base]] = []
        self._by_base: Dict[int, _Base] = {}
        self._live = 0
        self.peak = 0
        self._next_seq = 0
        self._now = -LARGEST_FLOAT  # time of the last query

    def __len__(self) -> int:
        return self._live

    # -- mutation ---------------------------------------------------------

    def create_slots(self, pkt: PacketArrival, M: int, ref: int) -> int:
        """Register one step-1 slot for every candidate base ACC of ``pkt``.

        The candidates are ``pkt.acc ^ m`` for every mask ``m`` of at most
        ``M`` bits.  ``ref`` identifies the base packet in the slots'
        ``base_ref`` and must not name a live base.  Returns the number of
        slots created.
        """
        if ref in self._by_base:
            raise ValueError(f"base ref {ref} already has live slots")
        time, row = pkt.time, self._row1
        seq = self._next_seq
        slots = []
        lo, hi = math.inf, -math.inf
        for x, b, xi in _candidates(pkt.acc, M, self.params.L):
            tnom, theta, width = row[x]
            start = time + tnom - theta  # slot_bounds' expression: the same bits
            slots.append(VirtualSlot(start, width, ref, b, xi, 1, pkt, seq))
            seq += 1
            if start < lo:
                lo = start
            if start + width > hi:
                hi = start + width
        self._next_seq = seq
        rec = self._by_base[ref] = _Base(slots, lo, hi, lo)
        insort(self._by_start, (lo, ref, rec))
        self._live += len(slots)
        if self._live > self.peak:
            self.peak = self._live
        return len(slots)

    def remove_base(self, base_ref: int) -> int:
        """Drop every live slot created by the given base packet."""
        rec = self._by_base.pop(base_ref, None)
        if rec is None:
            return 0
        # (start, ref) sorts just before its own (start, ref, rec) entry
        i = bisect_left(self._by_start, (rec.start, base_ref))
        assert self._by_start[i][2] is rec
        del self._by_start[i]
        self._live -= len(rec.slots)
        return len(rec.slots)

    # -- lookup -----------------------------------------------------------

    def slots_containing(self, time: float) -> List[VirtualSlot]:
        """Live slots whose half-open window [start, start+width) holds ``time``.

        First moves the store to ``time``: each base whose windows have all
        ended drops its seen slots and moves the rest to the next step, with
        bounds recomputed from the base packet, or drops them past the
        timeout, as often as needed.  Marks each hit ``saw_arrival``: once
        its window ends it is dropped instead of advanced.  Raises
        ``TraceOrderError``, before any change, if ``time`` is not finite or
        precedes the previous query's.
        """
        if not self._now <= time <= LARGEST_FLOAT:
            raise TraceOrderError(f"time {time} precedes the previous query at {self._now}"
                                  if abs(time) <= LARGEST_FLOAT
                                  else f"time {shown(time)} is not finite")
        self._now = time
        hits: List[VirtualSlot] = []
        expired = 0
        by_start = self._by_start
        timeout, L, params = self.timeout, self.params.L, self.params
        i, n = 0, bisect_right(by_start, (time, math.inf))
        while i < n:  # a while loop is the fastest scan on Python 3.11
            rec = by_start[i][2]
            if rec.end > time:
                i += 1
                if time < rec.skip:
                    continue
                skip = math.inf
                slots = rec.slots
                final = slots[0].step == timeout
                gone = 0
                for slot in slots:
                    start = slot.start
                    if start > time:
                        if start < skip:
                            skip = start
                    elif time < start + slot.width:  # slot.end, inlined
                        skip = time
                        hits.append(slot)
                        slot.saw_arrival = True
                    elif final or slot.saw_arrival:
                        gone += 1
                rec.skip = skip
                if gone:
                    # a window that ended by now holds no hit, so dropping
                    # it leaves every skip time a lower bound; the slot whose
                    # window ends at rec.end > time stays, so rec.slots is not empty
                    expired += gone
                    rec.slots = [slot for slot in slots if time < slot.start + slot.width
                                 or not (final or slot.saw_arrival)]
                continue
            ref = by_start[i][1]
            del by_start[i]
            n -= 1
            slots = rec.slots
            step = slots[0].step + 1
            kept = [slot for slot in slots if not slot.saw_arrival] if step <= timeout else []
            expired += len(slots) - len(kept)
            if not kept:
                del self._by_base[ref]
                continue
            row = window_row(params, step)
            lo, hi = math.inf, -math.inf
            for slot in kept:
                xi = slot.xi = (slot.xi + 1) % L
                slot.step = step
                # xi is the base ACC plus step
                tnom, theta, width = row[(xi - step) % L]
                start = slot.base.time + tnom - theta
                slot.start = start
                slot.width = width
                if start < lo:
                    lo = start
                if start + width > hi:
                    hi = start + width
            rec.slots, rec.start, rec.end, rec.skip = kept, lo, hi, lo
            # the next envelope starts after this one ended, so the record
            # lands at or after position i and is met again if it is due
            insort(by_start, (lo, ref, rec), i)
            if lo <= time:
                n += 1
        self._live -= expired
        return hits

    def windows(self) -> List[Tuple[float, float]]:
        """Live windows, merged where they overlap or touch, as (start, end) in time order.

        A slot that saw an arrival or sits at the final step leaves at the
        first query at or after its window end; any other slot whose window
        has ended keeps it here until its base's envelope ends and a query
        moves it on.
        """
        merged: List[Tuple[float, float]] = []
        for start, end in sorted((s.start, s.start + s.width) for rec in self._by_base.values()
                                 for s in rec.slots):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged
