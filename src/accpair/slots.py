"""Virtual-slot storage: creation, time-indexed lookup, advancement, expiry.

A virtual slot predicts a future reception window for the next packet from
the meter that sent some erroneous base packet.  The store keeps its live
slots in one list sorted by window start.  A window that has ended has also
started, so both containment queries and expiry sweeps read a prefix found
by binary search.  A store instance is single-writer.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .timing import ProtocolParams, hamming_ball, slot_bounds


class TraceOrderError(ValueError):
    """Raised when arrivals are fed out of time order."""


@dataclass
class PacketArrival:
    """One reception event.

    ``meter_id``/``true_acc`` are ground truth carried only for post-hoc
    validation; they never influence pairing decisions.  A ``true_acc``
    needs a ``meter_id``; a ``meter_id`` alone is allowed.  The ACC range
    depends on the protocol's ``L``, so the engine checks it on arrival.
    """

    time: float
    acc: int
    erroneous: bool
    meter_id: Optional[str] = None
    true_acc: Optional[int] = None

    def __post_init__(self) -> None:
        if self.true_acc is not None and self.meter_id is None:
            raise ValueError("a true_acc needs a meter_id")


@dataclass
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


class SlotStore:
    """Time-indexed container of live virtual slots for one receiver."""

    def __init__(self, params: ProtocolParams, timeout: int = 10) -> None:
        if not isinstance(timeout, int) or isinstance(timeout, bool) or timeout < 1:
            raise ValueError(f"timeout must be an integer >= 1, got {timeout!r}")
        if timeout > params.max_timeout:
            raise ValueError(f"timeout {timeout} exceeds {params.max_timeout}, the largest "
                             "at which one base's windows close step by step")
        self.params = params
        self.timeout = timeout
        # (start, seq, slot) sorted by start; seq is unique, so no comparison
        # ever reaches the slot itself
        self._by_start: List[Tuple[float, int, VirtualSlot]] = []
        self._by_base: Dict[int, Dict[int, VirtualSlot]] = {}  # base_ref -> seq -> slot
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._by_start)

    def iter_slots(self) -> List[VirtualSlot]:
        """Snapshot of live slots in creation order."""
        return sorted((slot for _, _, slot in self._by_start), key=lambda s: s.seq)

    # -- mutation ---------------------------------------------------------

    def create_slots(self, pkt: PacketArrival, M: int, ref: int) -> int:
        """Register one step-1 slot for every candidate base ACC of ``pkt``.

        The candidates are ``pkt.acc ^ m`` for every mask ``m`` of at most
        ``M`` bits.  ``ref`` identifies the base packet in the slots'
        ``base_ref``.  Returns the number of slots created.
        """
        y, L = pkt.acc, self.params.L
        # in order of expected ACC, which fixes the seq tie-break
        masks = sorted(hamming_ball(M, L), key=lambda m: ((y ^ m) + 1) % L)
        peers = self._by_base.setdefault(ref, {})
        for m in masks:
            start, width = slot_bounds(y ^ m, 1, pkt.time, self.params)
            slot = VirtualSlot(
                start=start,
                width=width,
                base_ref=ref,
                b=m.bit_count(),
                xi=((y ^ m) + 1) % L,
                step=1,
                base=pkt,
                seq=self._next_seq,
            )
            self._next_seq += 1
            peers[slot.seq] = slot
            self._index(slot)
        return len(masks)

    def remove_base(self, base_ref: int) -> int:
        """Drop every live slot created by the given base packet."""
        peers = self._by_base.pop(base_ref, {})
        for slot in peers.values():
            self._unindex(slot)
        return len(peers)

    def advance_expired(self, now: float) -> Tuple[int, int]:
        """Advance or drop every slot whose window has fully passed.

        Only the prefix of the start index with ``start <= now`` can hold
        such a slot.  A slot whose window contained an arrival is dropped;
        any other moves to the next step (expected ACC and bounds recomputed
        from its base packet) and is dropped once the step count exceeds
        the timeout.  A moved slot is re-indexed by its new start, so one
        call catches it up through every window that ended by ``now``.
        Returns ``(advanced, expired)`` counts.
        """
        advanced = 0
        expired = 0
        by_start = self._by_start
        i = 0
        while i < len(by_start) and by_start[i][0] <= now:
            slot = by_start[i][2]
            if slot.end > now:
                i += 1
                continue
            del by_start[i]
            if slot.saw_arrival or slot.step + 1 > self.timeout:
                peers = self._by_base[slot.base_ref]
                del peers[slot.seq]
                if not peers:
                    del self._by_base[slot.base_ref]
                expired += 1
                continue
            slot.xi = (slot.xi + 1) % self.params.L
            slot.step += 1
            base = (slot.xi - slot.step) % self.params.L  # slot.xi was base + step
            slot.start, slot.width = slot_bounds(base, slot.step, slot.base.time, self.params)
            slot.saw_arrival = False
            # the next window starts after this one, so the slot lands at or
            # after position i and is met again if it is still due
            self._index(slot)
            advanced += 1
        return advanced, expired

    # -- lookup -----------------------------------------------------------

    def slots_containing(self, time: float) -> List[VirtualSlot]:
        """Live slots whose half-open window [start, start+width) holds ``time``."""
        hits: List[VirtualSlot] = []  # a while loop is the fastest scan on Python 3.11
        i, hi = 0, bisect_right(self._by_start, (time, float("inf")))
        while i < hi:
            slot = self._by_start[i][2]
            if time < slot.end:  # after advance_expired(time), always true
                hits.append(slot)
            i += 1
        return hits

    def windows(self) -> List[Tuple[float, float]]:
        """Live windows, merged where they overlap or touch, as (start, end) in time order."""
        merged: List[Tuple[float, float]] = []
        for start, _, slot in self._by_start:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], slot.end))
            else:
                merged.append((start, slot.end))
        return merged

    # -- internals --------------------------------------------------------

    def _index(self, slot: VirtualSlot) -> None:
        entry = (slot.start, slot.seq, slot)
        self._by_start.insert(bisect_right(self._by_start, entry), entry)

    def _unindex(self, slot: VirtualSlot) -> None:
        # (start, seq) sorts just before its own (start, seq, slot) entry
        i = bisect_left(self._by_start, (slot.start, slot.seq))
        assert self._by_start[i][2] is slot
        del self._by_start[i]
