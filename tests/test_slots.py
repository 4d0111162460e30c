import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accpair.engine import PairingEngine
from accpair.slots import PacketArrival, SlotStore, TraceOrderError
from accpair.timing import ProtocolParams, hamming, hamming_ball, slot_bounds

PARAMS = ProtocolParams()

TABLE_XIS = {0x41, 0x42, 0x43, 0x45, 0x49, 0x51, 0x61, 0x01, 0xC1}


def make_store(**kw):
    return SlotStore(PARAMS, **kw)


def erroneous(time, acc):
    return PacketArrival(time=time, acc=acc, erroneous=True)


def live_slots(store):
    """The store's live slots in creation order."""
    return sorted((slot for rec in store._by_base.values() for slot in rec.slots),
                  key=lambda s: s.seq)


class TestPacketArrival:
    def test_true_acc_needs_meter_id(self):
        with pytest.raises(ValueError, match="a true_acc needs a meter_id"):
            PacketArrival(time=0.0, acc=0x40, erroneous=False, true_acc=0x40)
        # iter_trace and the fd simulator build packets with only a meter id
        assert PacketArrival(time=0.0, acc=0x40, erroneous=False, meter_id="m").true_acc is None

    @pytest.mark.parametrize("true_acc", [None, 0x40])
    def test_meter_id_may_not_be_empty(self, true_acc):
        # a trace's empty meter_id column reads back as None
        with pytest.raises(ValueError, match="a meter_id may not be empty"):
            PacketArrival(1.0, 0x40, False, meter_id="", true_acc=true_acc)


def expected_accs(y, M):
    """Expected ACCs of the step-1 slots ``create_slots`` makes for ``y``."""
    store = make_store()
    assert store.create_slots(erroneous(0.0, y), M, ref=0) == len(store)
    return [s.xi for s in live_slots(store)]


class TestCandidateAccs:
    def test_zero_threshold_unique_successor(self):
        assert expected_accs(0x40, 0) == [0x41]

    def test_one_bit_budget_table(self):
        # created in order of expected ACC
        assert expected_accs(0x40, 1) == sorted(TABLE_XIS)

    def test_full_ball(self):
        assert expected_accs(0x93, 8) == list(range(256))

    @given(st.integers(0, 255), st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    def test_cardinality(self, y, m):
        # a slot expecting xi admits H(y, xi - 1) <= m bit errors in y
        brute = [xi for xi in range(256) if hamming(y, (xi - 1) % 256) <= m]
        assert expected_accs(y, m) == brute
        assert len(brute) == sum(math.comb(8, b) for b in range(m + 1))
        for L in (2, 16, 256):
            bits = L.bit_length() - 1
            if m <= bits:
                brute = tuple(u for u in range(L) if hamming(0, u) <= m)
                assert hamming_ball(m, L) == brute
                assert len(brute) == sum(math.comb(bits, b) for b in range(m + 1))
            else:
                with pytest.raises(ValueError, match=f"0..{bits}"):
                    hamming_ball(m, L)

    def test_rejects_bad_threshold(self):
        store = make_store()
        with pytest.raises(ValueError, match="0..8"):
            store.create_slots(erroneous(0.0, 0x40), 9, ref=0)
        assert len(store) == 0

    def test_warm_candidate_cache_keeps_the_threshold_check(self):
        store = make_store()
        assert store.create_slots(erroneous(0.0, 0x40), 1, ref=0) == 9
        for ref, M in enumerate((True, 1.0, np.int64(1)), start=1):
            with pytest.raises(ValueError, match="threshold M must be an integer"):
                store.create_slots(erroneous(1.0, 0x40), M, ref=ref)
        assert len(store) == 9


class TestCreateSlots:
    def test_single_slot_for_zero_threshold(self):
        store = make_store()
        assert store.create_slots(erroneous(0.0, 0x13), 0, ref=0) == 1
        (slot,) = live_slots(store)
        assert slot.xi == 0x14
        assert slot.b == 0
        assert slot.step == 1

    def test_table_bounds(self):
        store = make_store()
        assert store.create_slots(erroneous(5.0, 0x40), 1, ref=0) == 9
        slots = {s.xi: s for s in live_slots(store)}
        assert set(slots) == TABLE_XIS
        for xi, slot in slots.items():
            start, width = slot_bounds((xi - 1) % 256, 1, 5.0, PARAMS)
            assert slot.start == start
            assert slot.width == width
            assert slot.b == hamming(0x40, (xi - 1) % 256)

    def test_shared_timebin_rows(self):
        # xi=0x41 and xi=0xC1 describe the same window at step 1
        store = make_store()
        store.create_slots(erroneous(0.0, 0x40), 1, ref=0)
        by_xi = {s.xi: s for s in live_slots(store)}
        assert by_xi[0x41].start == by_xi[0xC1].start
        assert by_xi[0x41].width == by_xi[0xC1].width

    @pytest.mark.parametrize("acc", [-1, 256])
    def test_acc_outside_the_range_is_rejected_without_change(self, acc):
        store = make_store()
        store.create_slots(erroneous(0.0, 0x40), 1, ref=0)
        before = copy.deepcopy(live_slots(store))
        with pytest.raises(ValueError, match="outside 0..255"):
            store.create_slots(erroneous(1.0, acc), 1, ref=1)
        assert len(store) == 9
        assert live_slots(store) == before

    def test_slots_carry_the_given_ref_and_base(self):
        store = make_store()
        pkt = erroneous(0.0, 0x40)
        store.create_slots(pkt, 1, ref=7)
        assert {(s.base_ref, id(s.base)) for s in live_slots(store)} == {(7, id(pkt))}


class TestSlotsContaining:
    def test_empty_store(self):
        assert make_store().slots_containing(100.0) == []

    def test_window_hit(self):
        store = make_store()
        store.create_slots(erroneous(0.0, 0x40), 0, ref=0)
        hits = store.slots_containing(16.0)
        assert [s.xi for s in hits] == [0x41]

    def test_half_open_end_excluded(self):
        store = make_store()
        store.create_slots(erroneous(0.0, 0x40), 0, ref=0)
        (slot,) = live_slots(store)
        assert store.slots_containing(slot.start) != []
        assert store.slots_containing(slot.end) == []

    def test_ended_windows_excluded_without_advance(self):
        # at the own window's start the six earlier windows of base 0x40
        # have ended, but stay live until the base's envelope ends
        store = make_store()
        store.create_slots(erroneous(0.0, 0x40), 1, ref=0)
        own = next(s for s in live_slots(store) if s.xi == 0x41)
        assert {s.xi for s in store.slots_containing(own.start)} == {0x41, 0xC1}
        assert store.slots_containing(own.end + 1.0) == []


def merged(intervals):
    """Union of half-open intervals by sorting and merging touching ones."""
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


class TestWindows:
    def test_shared_window_merges(self):
        # 0x40 and 0xC0 have the same jitter index, so slots 0x41 and 0xC1
        # share one window; the other seven windows are apart
        store = make_store()
        store.create_slots(erroneous(0.0, 0x40), 1, ref=0)
        own = next(s for s in live_slots(store) if s.xi == 0x41)
        assert len(store) == 9
        assert len(store.windows()) == 8
        assert (own.start, own.end) in store.windows()

    def test_empty_store(self):
        assert make_store().windows() == []

    @given(st.integers(0, 255), st.integers(0, 2), st.integers(0, 6),
           st.sampled_from([PARAMS, ProtocolParams(gamma_a=0.02, gamma_b=0.02),
                            ProtocolParams(nu_a=1e-3, nu_b=1e-3)]))
    @settings(max_examples=60, deadline=None)
    def test_disjoint_ordered_union_of_slot_windows(self, y, M, rounds, params):
        store = SlotStore(params, timeout=10)
        store.create_slots(erroneous(0.0, y), M, ref=0)
        store.create_slots(erroneous(8.0, y ^ 0x11), M, ref=1)
        store.slots_containing(16.0 * rounds)
        pairs = store.windows()
        for (_, end), (start, _) in zip(pairs, pairs[1:]):
            assert end < start
        assert pairs == merged((s.start, s.end) for s in live_slots(store))



class TestAdvanceExpired:
    def test_noop_when_nothing_expired(self):
        store = make_store()
        store.create_slots(erroneous(0.0, 0x40), 0, ref=0)
        assert store.slots_containing(1.0) == []
        (slot,) = live_slots(store)
        assert slot.step == 1

    def test_advance_recomputes_from_base_path(self):
        store = make_store()
        store.create_slots(erroneous(0.0, 0x40), 0, ref=0)
        assert store.slots_containing(17.0) == []
        (slot,) = live_slots(store)
        assert slot.xi == 0x42
        assert slot.step == 2
        assert (slot.start, slot.width) == slot_bounds(0x40, 2, 0.0, PARAMS)

    def test_shared_window_diverges_after_advance(self):
        store = make_store()
        store.create_slots(erroneous(0.0, 0x40), 1, ref=0)
        store.slots_containing(18.0)
        by_xi = {s.xi: s for s in live_slots(store)}
        assert by_xi[0x42].start != by_xi[0xC2].start

    def test_timeout_removal(self):
        store = make_store(timeout=3)
        store.create_slots(erroneous(0.0, 0x40), 0, ref=0)
        removed_at = None
        for step in range(1, 6):
            assert store.slots_containing(1000.0 * step) == []
            if not len(store):
                removed_at = step
                break
        assert removed_at is not None

    def test_seen_arrival_removed_instead_of_advanced(self):
        store = make_store()
        store.create_slots(erroneous(0.0, 0x40), 0, ref=0)
        store.slots_containing(16.0)[0].saw_arrival = True
        assert store.slots_containing(17.0) == []
        assert len(store) == 0

    def test_multi_window_catchup(self):
        # a long silent gap advances a slot through several windows at once
        store = make_store()
        store.create_slots(erroneous(0.0, 0x40), 0, ref=0)
        assert store.slots_containing(50.0) == []
        (slot,) = live_slots(store)
        assert slot.step == 4

    def test_timeout_limited_to_disjoint_windows(self):
        # 3 ms intervals are shorter than the 4 ms jitter allowance, so a
        # step-2 window would overlap the step-1 window
        params = ProtocolParams(L=16, t=0.003)
        PairingEngine(params, timeout=1)
        with pytest.raises(ValueError, match="timeout 2 exceeds 1"):
            PairingEngine(params, timeout=2)
        make_store(timeout=16)
        with pytest.raises(ValueError, match="exceeds 16"):
            make_store(timeout=17)

    @pytest.mark.parametrize("timeout", [0, -1, 2.5, True])
    def test_timeout_must_be_a_positive_integer(self, timeout):
        with pytest.raises(ValueError, match="timeout must be an integer"):
            make_store(timeout=timeout)
        with pytest.raises(ValueError, match="timeout must be an integer"):
            PairingEngine(PARAMS, timeout=timeout)

    @given(st.integers(0, 255), st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_bounds_invariant_after_advances(self, y, rounds):
        store = make_store(timeout=16)
        store.create_slots(erroneous(0.0, y), 1, ref=0)
        for k in range(rounds):
            store.slots_containing(20.0 * (k + 1))
        for slot in live_slots(store):
            base = (slot.xi - slot.step) % 256
            assert (slot.start, slot.width) == slot_bounds(base, slot.step, 0.0, PARAMS)
            assert slot.step <= store.timeout

    def test_remove_base_drops_everything(self):
        store = make_store()
        store.create_slots(erroneous(0.0, 0x40), 1, ref=7)
        assert store.remove_base(7) == 9
        assert len(store) == 0
        assert store.remove_base(7) == 0

    def test_remove_base_counts_the_live_candidates(self):
        store = make_store()
        store.create_slots(erroneous(0.0, 0x40), 1, ref=7)
        store.create_slots(erroneous(1.0, 0x13), 0, ref=8)
        first = arrive_in_earliest_window(store)
        assert store.slots_containing(first.end) == []
        assert store.remove_base(7) == 8
        assert len(store) == 1

    def test_live_ref_must_be_new(self):
        store = make_store()
        store.create_slots(erroneous(0.0, 0x40), 1, ref=7)
        with pytest.raises(ValueError, match="base ref 7"):
            store.create_slots(erroneous(1.0, 0x13), 1, ref=7)
        assert len(store) == 9


def arrive_in_earliest_window(store):
    """An arrival at the start of the earliest live window; returns its slot.

    Marks the hits itself as well, so the drop rules are tested apart from
    the code that sets ``saw_arrival``.
    """
    first = min(live_slots(store), key=lambda s: s.end)
    hits = store.slots_containing(first.start)
    assert [s.seq for s in hits] == [first.seq]
    for slot in hits:
        slot.saw_arrival = True
    return first


class TestLeavingAtOwnEnd:
    """``len(store)`` counts a slot until its own window end, not its base's."""

    def test_seen_candidate_leaves_at_its_end(self):
        store = make_store()
        store.create_slots(erroneous(0.0, 0x40), 1, ref=0)
        first = arrive_in_earliest_window(store)
        assert store.slots_containing(math.nextafter(first.end, 0.0)) == [first]
        assert len(store) == 9
        assert store.slots_containing(first.end) == []
        assert len(store) == 8
        assert all(s.end > first.end for s in live_slots(store))
        assert all(s.step == 1 for s in live_slots(store))

    @pytest.mark.parametrize("timeout", [1, 3])
    def test_final_step_candidates_leave_one_by_one(self, timeout):
        store = make_store(timeout=timeout)
        store.create_slots(erroneous(0.0, 0x40), 1, ref=0)
        assert store.slots_containing(16.0 * timeout - 8.0) == []
        slots = live_slots(store)
        assert {s.step for s in slots} == {timeout} and len(slots) == 9
        for end in sorted({s.end for s in slots}):
            assert store.slots_containing(end) == []
            assert len(store) == sum(s.end > end for s in slots)

    def test_catch_up_into_the_final_step(self):
        # one call moves every slot to step 2 and drops the step-2 slots
        # whose windows have also ended
        store = make_store(timeout=2)
        store.create_slots(erroneous(0.0, 0x40), 1, ref=0)
        ends = sorted(sum(slot_bounds(x, 2, 0.0, PARAMS))
                      for x in (0x40 ^ m for m in hamming_ball(1, 256)))
        now = ends[4]
        gone = sum(end <= now for end in ends)
        assert 0 < gone < 9
        assert store.slots_containing(now) == []
        assert len(store) == 9 - gone
        assert all(s.step == 2 and s.end > now for s in live_slots(store))


class TestSawArrival:
    def test_slots_containing_marks_its_hits(self):
        store = make_store()
        store.create_slots(erroneous(0.0, 0x40), 1, ref=0)
        first = min(live_slots(store), key=lambda s: s.end)
        hits = store.slots_containing(first.start)
        assert [s.saw_arrival for s in hits] == [True]
        assert sum(s.saw_arrival for s in live_slots(store)) == 1


# op codes for the store-contract test; every time is a multiple of params.t
_CREATE, _REMOVE, _QUERY, _AT_WINDOW = range(4)
_GAPS = st.one_of(st.sampled_from([0.0, 1e-4, 0.01, 0.3, 1.0]), st.floats(0.0, 3.0))
_OPS = st.lists(st.one_of(
    st.tuples(st.just(_CREATE), _GAPS, st.integers(0, 255), st.integers(0, 2)),
    st.tuples(st.just(_REMOVE), st.integers(0, 40)),
    st.tuples(st.just(_QUERY), _GAPS),
    # a query at the start, middle or end of a live window, or at the same time again
    st.tuples(st.just(_AT_WINDOW), st.integers(0, 10**6), st.sampled_from([0.0, 0.5, 1.0, None])),
), max_size=80)


class TestStoreContract:
    """``slots_containing`` at non-decreasing times, against brute force.

    After every op each live slot is checked against the definitions: its
    step is within the timeout and its window is the one ``slot_bounds``
    gives for its base at that step.  After every query, no slot that saw an
    arrival or sits at the final step has a window that ended by then.
    """

    @given(st.sampled_from([PARAMS, ProtocolParams(gamma_a=0.02, gamma_b=0.02),
                            ProtocolParams(L=16, t=1.0)]),
           st.sampled_from([1, 3, 10]), _OPS)
    @settings(max_examples=300, deadline=None)
    def test_queries_match_brute_force_and_slot_bounds(self, params, timeout, ops):
        store = SlotStore(params, timeout=timeout)
        now, refs, peak = 0.0, 0, 0
        for op in ops:
            if op[0] == _CREATE:
                now += op[1] * params.t
                store.create_slots(erroneous(now, op[2] % params.L), op[3], refs)
                refs += 1
                peak = max(peak, len(store))
            elif op[0] == _REMOVE:
                store.remove_base(op[1])
            else:
                if op[0] == _QUERY:
                    now += op[1] * params.t
                elif op[2] is not None:
                    live = [s for s in live_slots(store) if s.end > now]
                    if live:
                        slot = live[op[1] % len(live)]
                        now = max(now, slot.start + op[2] * slot.width)
                hits = store.slots_containing(now)
                assert sorted(s.seq for s in hits) == [
                    s.seq for s in live_slots(store) if s.start <= now < s.end]
                assert all(s.saw_arrival for s in hits)
                # seen and final-step slots leave at the first query at or after their end
                assert all(s.end > now for s in live_slots(store)
                           if s.saw_arrival or s.step == timeout)
            slots = live_slots(store)
            assert len(store) == len(slots)
            assert store.peak == peak
            for s in slots:
                assert s.step <= timeout
                assert (s.start, s.width) == slot_bounds(
                    (s.xi - s.step) % params.L, s.step, s.base.time, params)

    def _snapshot(self, store):
        return [copy.copy(s) for s in live_slots(store)]

    def test_query_before_the_last_one_is_rejected(self):
        # the skip time would make the earlier query miss the earliest window
        store = make_store()
        store.create_slots(erroneous(0.0, 0x40), 1, 0)
        starts = sorted(s.start for s in live_slots(store))
        hits = store.slots_containing(starts[-1])
        assert hits
        before = self._snapshot(store)
        with pytest.raises(TraceOrderError, match="precedes"):
            store.slots_containing(starts[0])
        assert len(store) == 9
        assert live_slots(store) == before
        # the same time again still finds its hits
        assert store.slots_containing(starts[-1]) == hits

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400, -10**400],
                             ids=["nan", "inf", "-inf", "huge", "minus-huge"])
    def test_time_that_is_not_finite_is_rejected(self, bad):
        store = make_store()
        store.create_slots(erroneous(0.0, 0x40), 1, 0)
        before = self._snapshot(store)
        with pytest.raises(TraceOrderError, match="not finite"):
            store.slots_containing(bad)
        assert len(store) == 9
        assert live_slots(store) == before
        assert store.slots_containing(0.0) == []
