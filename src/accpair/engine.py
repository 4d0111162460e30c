"""On-arrival pairing: match against live slots, advance/expire, create.

Each arrival is processed in two steps.  One store lookup brings the store
up to the arrival's time (windows whose end time has passed are advanced or
dropped) and returns the slots whose windows hold it; the arrival is
matched against them using the total Hamming distance threshold.  Then new
slots are created according to the configured policy.  The lookup also
rejects an arrival out of time order.  One engine processes one trace
serially, and ``reset`` readies it for another; distinct engine instances
are fully independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .slots import PacketArrival, SlotStore, VirtualSlot
from .timing import ProtocolParams, check_acc, check_threshold, hamming

#: Slot-creation policies.  ANALYSIS creates slots only for erroneous
#: packets; DEPLOYMENT creates slots for every arrival.
ANALYSIS = "analysis"
DEPLOYMENT = "deployment"

#: Pairing classes, base then arrival: C is a CRC-clean packet, E an
#: erroneous one.  Class ``k`` is ``2 * (base erroneous) + (arrival erroneous)``.
PAIR_CLASSES = ("CC", "CE", "EC", "EE")


@dataclass
class PairingOutcome:
    """Decision for one processed arrival."""

    kind: str                       # "pair" | "no-pair"
    arrival_ref: int
    base_ref: Optional[int] = None
    step: Optional[int] = None
    distance: Optional[int] = None
    pair_class: Optional[str] = None  # one of PAIR_CLASSES (base -> arrival)
    is_false: Optional[bool] = None   # set only when ground truth is available


def classify(base: PacketArrival, arrival: PacketArrival) -> Tuple[int, Optional[bool]]:
    """Correct/Erroneous class of a pairing, plus ground-truth validity.

    Returns ``(k, is_false)`` where ``PAIR_CLASSES[k]`` is the class and
    ``is_false`` is None unless both packets carry a meter id.
    """
    k = 2 * bool(base.erroneous) + bool(arrival.erroneous)
    if base.meter_id is None or arrival.meter_id is None:
        return k, None
    return k, base.meter_id != arrival.meter_id


class PairingEngine:
    """Serial pairing of a time-sorted arrival stream.

    Args:
        params: protocol timing constants.
        M: maximum tolerated total Hamming distance for a pairing, in
            0..log2(params.L).
        policy: ``ANALYSIS`` or ``DEPLOYMENT`` slot-creation policy.
        timeout: maximum step count a slot may reach, an int in
            1..``params.max_timeout``.

    A slot whose window contained an arrival that did not pair is dropped
    when the window ends instead of advancing to the next step.

    Arrivals are numbered in processing order from 0; ``PairingOutcome``
    carries those numbers, ``arrivals`` counts the arrivals accepted so
    far, and the caller's packets are never modified.  ``store.peak`` is
    the most slots ever live at once.

    ``pairs`` is one flat list of ``8 * timeout`` ints, so a pairing
    allocates nothing: ``pairs[8 * (step - 1) + k]`` counts the pairings
    of class ``PAIR_CLASSES[k]`` made at ``step``, and the slot 4 later
    the false ones among them.  ``unverified`` counts the pairings without
    ground truth on both packets.
    """

    def __init__(
        self,
        params: Optional[ProtocolParams] = None,
        M: int = 0,
        policy: str = ANALYSIS,
        timeout: int = 10,
    ) -> None:
        if policy not in (ANALYSIS, DEPLOYMENT):
            raise ValueError(f"unknown slot-creation policy {policy!r}")
        self.params = params if params is not None else ProtocolParams()
        self.M = check_threshold(M, self.params.L)
        self.policy = policy
        self.store = SlotStore(self.params, timeout=timeout)
        self.reset()

    def reset(self) -> None:
        """Forget every arrival, slot and pairing: the engine is as freshly built."""
        self.store.clear()
        self.arrivals = 0
        self.pairs = [0] * (8 * self.store.timeout)
        self.unverified = 0

    def on_arrival(self, pkt: PacketArrival) -> PairingOutcome:
        """Process one arrival and decide pair / no-pair.

        A single ``slots_containing`` call advances the store to the
        arrival's time and finds the slots whose windows hold it; the best
        one within the threshold pairs, by (distance, step, creation order).

        An arrival whose ACC is not an int in 0..L-1 raises ``ValueError``,
        and one whose time is not finite or precedes the previous arrival
        raises ``TraceOrderError``, before any engine state changes.
        """
        check_acc(pkt.acc, self.params.L)
        candidates = self.store.slots_containing(pkt.time)
        ref = self.arrivals
        self.arrivals += 1

        best: Optional[VirtualSlot] = None
        best_key = None
        for slot in candidates:
            d = slot.b + hamming(slot.xi, pkt.acc)  # the base's errors plus the arrival's
            if d > self.M:
                continue
            key = (d, slot.step, slot.seq)
            if best_key is None or key < best_key:
                best, best_key = slot, key

        if best is not None:
            k, is_false = classify(best.base, pkt)
            i = 8 * (best.step - 1) + k
            self.pairs[i] += 1
            if is_false is None:
                self.unverified += 1
            elif is_false:
                self.pairs[i + 4] += 1
            outcome = PairingOutcome(kind="pair", arrival_ref=ref, base_ref=best.base_ref,
                                     step=best.step, distance=best_key[0],
                                     pair_class=PAIR_CLASSES[k], is_false=is_false)
            self.store.remove_base(best.base_ref)
        else:
            outcome = PairingOutcome(kind="no-pair", arrival_ref=ref)

        if self.policy == DEPLOYMENT or pkt.erroneous:
            self.store.create_slots(pkt, self.M, ref)

        return outcome

    @property
    def live_slots(self) -> int:
        return len(self.store)
