"""Virtual-slot storage: creation, time-indexed lookup, advancement, expiry.

A virtual slot predicts a future reception window for the next packet from
the meter that sent some erroneous base packet.  The store keeps live slots
in a start-time index (binary search lookup) and an end-time heap (expiry),
so both containment queries and expiry sweeps are logarithmic plus output
in the number of live slots.  A store instance is single-writer.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .timing import ProtocolParams, acc_sub, check_acc, hamming, hamming_ball, slot_bounds


class TraceOrderError(ValueError):
    """Raised when arrivals are fed out of time order."""


@dataclass
class PacketArrival:
    """One reception event.

    ``meter_id``/``true_acc`` are ground truth carried only for post-hoc
    validation; they never influence pairing decisions.  The ACC range
    depends on the protocol's ``L``, so the engine checks it on arrival.
    """

    time: float
    acc: int
    erroneous: bool
    meter_id: Optional[str] = None
    true_acc: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.meter_id is None) != (self.true_acc is None) and self.true_acc is not None:
            # a bare true_acc without a meter id is meaningless ground truth
            raise ValueError("ground-truth fields must be absent or both present")


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
    version: int = 0

    @property
    def end(self) -> float:
        return self.start + self.width


def candidate_accs(y: int, j: int, M: int, L: int = 256) -> Set[int]:
    """Expected ACCs ``xi`` after ``j`` steps compatible with observation ``y``.

    A candidate admits at most ``M`` bit errors in ``y``:
    ``H(y, xi - j) <= M``, with ``M`` in 0..log2(L).  The result has
    ``sum_{b<=M} C(log2 L, b)`` members.
    """
    if j < 1:
        raise ValueError(f"step count must be >= 1, got {j}")
    check_acc(y, L)
    return {((y ^ m) + j) % L for m in hamming_ball(M, L)}


class SlotStore:
    """Time-indexed container of live virtual slots for one receiver."""

    def __init__(
        self,
        params: ProtocolParams,
        timeout: int = 10,
        expire_on_arrival: bool = True,
    ) -> None:
        self.params = params
        self.timeout = timeout
        self.expire_on_arrival = expire_on_arrival
        self._slots: Dict[int, VirtualSlot] = {}
        self._by_start: List[Tuple[float, int]] = []
        self._heap: List[Tuple[float, int, int]] = []  # (end, seq, version)
        self._by_base: Dict[int, Set[int]] = {}
        self._max_width = 0.0
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._slots)

    def iter_slots(self) -> List[VirtualSlot]:
        """Snapshot of live slots in creation order."""
        return [self._slots[k] for k in sorted(self._slots)]

    # -- mutation ---------------------------------------------------------

    def create_slots(self, pkt: PacketArrival, M: int, ref: int) -> int:
        """Register step-1 slots for every candidate ACC of ``pkt``.

        ``ref`` identifies the base packet in the slots' ``base_ref``.
        Returns the number of slots created.
        """
        cands = sorted(candidate_accs(pkt.acc, 1, M, self.params.L))
        for xi in cands:
            base = acc_sub(xi, 1, self.params.L)
            start, width = slot_bounds(base, 1, pkt.time, self.params)
            slot = VirtualSlot(
                start=start,
                width=width,
                base_ref=ref,
                b=hamming(pkt.acc, base),
                xi=xi,
                step=1,
                base=pkt,
                seq=self._next_seq,
            )
            self._next_seq += 1
            self._insert(slot)
        return len(cands)

    def remove_base(self, base_ref: int) -> int:
        """Drop every live slot created by the given base packet."""
        seqs = self._by_base.get(base_ref, set())
        removed = 0
        for seq in list(seqs):
            self._remove(self._slots[seq])
            removed += 1
        return removed

    def advance_expired(self, now: float) -> Tuple[int, int]:
        """Advance or drop every slot whose window has fully passed.

        A slot whose window contained an arrival is dropped when the
        expire-on-arrival policy is active; otherwise it moves to the next
        step (expected ACC and bounds recomputed from its base packet) and
        is dropped once the step count exceeds the timeout.  Returns
        ``(advanced, expired)`` counts.
        """
        advanced = 0
        expired = 0
        while self._heap and self._heap[0][0] <= now:
            _, seq, version = heapq.heappop(self._heap)
            slot = self._slots.get(seq)
            if slot is None or slot.version != version:
                continue  # stale heap entry
            if (self.expire_on_arrival and slot.saw_arrival) or slot.step + 1 > self.timeout:
                self._remove(slot)
                expired += 1
                continue
            self._unindex(slot)
            slot.xi = (slot.xi + 1) % self.params.L
            slot.step += 1
            base = acc_sub(slot.xi, slot.step, self.params.L)
            slot.start, slot.width = slot_bounds(base, slot.step, slot.base.time, self.params)
            slot.saw_arrival = False
            slot.version += 1
            self._index(slot)
            advanced += 1
        return advanced, expired

    # -- lookup -----------------------------------------------------------

    def slots_containing(self, time: float) -> List[VirtualSlot]:
        """Live slots whose half-open window [start, start+width) holds ``time``.

        Sorted by (b, step, creation sequence) so downstream tie-breaking is
        deterministic.
        """
        hits: List[VirtualSlot] = []
        i = bisect_right(self._by_start, (time, float("inf")))
        cutoff = time - self._max_width
        while i > 0:
            i -= 1
            start, seq = self._by_start[i]
            if start < cutoff:
                break
            slot = self._slots[seq]
            if slot.start <= time < slot.end:
                hits.append(slot)
        hits.sort(key=lambda s: (s.b, s.step, s.seq))
        return hits

    # -- internals --------------------------------------------------------

    def _insert(self, slot: VirtualSlot) -> None:
        self._slots[slot.seq] = slot
        self._by_base.setdefault(slot.base_ref, set()).add(slot.seq)
        self._index(slot)

    def _index(self, slot: VirtualSlot) -> None:
        insort(self._by_start, (slot.start, slot.seq))
        heapq.heappush(self._heap, (slot.end, slot.seq, slot.version))
        if slot.width > self._max_width:
            self._max_width = slot.width

    def _unindex(self, slot: VirtualSlot) -> None:
        i = bisect_right(self._by_start, (slot.start, slot.seq)) - 1
        assert self._by_start[i] == (slot.start, slot.seq)
        self._by_start.pop(i)
        # matching heap entry is dropped lazily via the version counter

    def _remove(self, slot: VirtualSlot) -> None:
        self._unindex(slot)
        del self._slots[slot.seq]
        peers = self._by_base[slot.base_ref]
        peers.discard(slot.seq)
        if not peers:
            del self._by_base[slot.base_ref]
