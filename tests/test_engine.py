import copy
import hashlib
import math

import pytest

from accpair.engine import ANALYSIS, DEPLOYMENT, PAIR_CLASSES, PairingEngine, classify
from accpair.simulate import SimConfig, generate_trace, replay, simulate_memory
from accpair.slots import PacketArrival, TraceOrderError
from accpair.timing import ProtocolParams, nominal_interval

PARAMS = ProtocolParams()


def pkt(time, acc, erroneous=False, meter=None, true_acc=None):
    return PacketArrival(
        time=time, acc=acc, erroneous=erroneous, meter_id=meter, true_acc=true_acc
    )


class TestClassify:
    def test_both_erroneous_same_meter(self):
        k, false = classify(pkt(0, 1, True, "m1"), pkt(1, 2, True, "m1"))
        assert (PAIR_CLASSES[k], false) == ("EE", False)

    def test_mixed_different_meters(self):
        k, false = classify(pkt(0, 1, False, "m1"), pkt(1, 2, True, "m2"))
        assert (PAIR_CLASSES[k], false) == ("CE", True)

    def test_no_ground_truth(self):
        k, false = classify(pkt(0, 1, False), pkt(1, 2, False))
        assert (PAIR_CLASSES[k], false) == ("CC", None)


class TestOnArrival:
    def test_empty_store_creates_slots(self):
        engine = PairingEngine(PARAMS, M=1)
        out = engine.on_arrival(pkt(0.0, 0x40, erroneous=True))
        assert out.kind == "no-pair"
        assert engine.live_slots == 9

    def test_pairs_at_nominal_time(self):
        engine = PairingEngine(PARAMS, M=0)
        engine.on_arrival(pkt(0.0, 0x40, erroneous=True))
        out = engine.on_arrival(pkt(16.0, 0x41))
        assert out.kind == "pair"
        assert out.step == 1
        assert out.distance == 0

    def test_no_pair_outside_window(self):
        engine = PairingEngine(PARAMS, M=0)
        engine.on_arrival(pkt(0.0, 0x40, erroneous=True))
        # window for 0x41 ends at 15.99752 + 6.24 ms = 16.00376 s
        out = engine.on_arrival(pkt(16.010, 0x41))
        assert out.kind == "no-pair"

    def test_pair_removes_all_slots_of_base(self):
        engine = PairingEngine(PARAMS, M=1)
        engine.on_arrival(pkt(0.0, 0x40, erroneous=True))
        assert engine.live_slots == 9
        out = engine.on_arrival(pkt(16.0, 0x41))
        assert out.kind == "pair"
        assert engine.live_slots == 0

    def test_never_pairs_beyond_threshold(self):
        engine = PairingEngine(PARAMS, M=0)
        engine.on_arrival(pkt(0.0, 0x40, erroneous=True))
        out = engine.on_arrival(pkt(16.0, 0x43))  # D = 1 > M
        assert out.kind == "no-pair"

    def test_analysis_mode_ignores_correct_packets(self):
        engine = PairingEngine(PARAMS, M=1, policy=ANALYSIS)
        engine.on_arrival(pkt(0.0, 0x40, erroneous=False))
        assert engine.live_slots == 0

    def test_deployment_mode_tracks_all_arrivals(self):
        engine = PairingEngine(PARAMS, M=0, policy=DEPLOYMENT)
        engine.on_arrival(pkt(0.0, 0x40, erroneous=False))
        assert engine.live_slots == 1

    def test_out_of_order_rejected(self):
        engine = PairingEngine(PARAMS)
        engine.on_arrival(pkt(10.0, 0x40, erroneous=True))
        with pytest.raises(TraceOrderError):
            engine.on_arrival(pkt(9.0, 0x41))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 10**400, -10**400],
                             ids=["nan", "inf", "huge", "minus-huge"])
    def test_non_finite_time_rejected(self, bad):
        engine = PairingEngine(PARAMS)
        engine.on_arrival(pkt(1.0, 0x40, erroneous=True))
        with pytest.raises(TraceOrderError, match="not finite"):
            engine.on_arrival(pkt(bad, 0x41))
        assert engine.arrivals == 1
        with pytest.raises(TraceOrderError, match="precedes"):
            engine.on_arrival(pkt(0.5, 0x41))

    @pytest.mark.parametrize("bad", [10**5000, -10**5000], ids=["huge", "minus-huge"])
    def test_time_too_long_for_str_is_a_trace_order_error(self, bad):
        # the message gives the bit length: str() of the int would raise a bare ValueError
        engine = PairingEngine(PARAMS)
        with pytest.raises(TraceOrderError, match="^time (an|a negative) int of 16610 bits is "
                                                  "not finite$"):
            engine.on_arrival(pkt(bad, 0x40, erroneous=True))
        assert engine.arrivals == 0

    def test_minimum_distance_wins(self):
        # two bases predict the same arrival; the exact-ACC one must win
        engine = PairingEngine(PARAMS, M=1)
        first = engine.on_arrival(pkt(0.0, 0xC0, erroneous=True, meter="far"))
        engine.on_arrival(pkt(0.001, 0x40, erroneous=True, meter="near"))
        out = engine.on_arrival(pkt(16.0, 0xC1, meter="x"))
        assert out.kind == "pair"
        assert out.distance == 0
        assert out.base_ref == first.arrival_ref
        assert engine.live_slots == 9  # only the losing base remains

    def test_ground_truth_false_pairing_flagged(self):
        engine = PairingEngine(PARAMS, M=0)
        engine.on_arrival(pkt(0.0, 0x40, erroneous=True, meter="m1", true_acc=0x40))
        out = engine.on_arrival(pkt(16.0, 0x41, meter="m2", true_acc=0x41))
        assert out.kind == "pair"
        assert out.is_false is True

    def test_determinism(self):
        trace = [
            pkt(0.0, 0x40, erroneous=True),
            pkt(0.002, 0x44, erroneous=True),
            pkt(16.0, 0x41),
            pkt(16.01, 0x45),
        ]
        def run():
            engine = PairingEngine(PARAMS, M=1)
            return [
                (o.kind, o.base_ref, o.step, o.distance)
                for o in (engine.on_arrival(pkt(p.time, p.acc, p.erroneous)) for p in trace)
            ]
        assert run() == run()

    def test_threshold_monotone_on_simple_trace(self):
        # a pair produced at M=0 is still a qualifying candidate at M=1
        base = pkt(0.0, 0x40, erroneous=True)
        follow = pkt(16.0, 0x41)
        e0 = PairingEngine(PARAMS, M=0)
        e0.on_arrival(pkt(base.time, base.acc, base.erroneous))
        out0 = e0.on_arrival(pkt(follow.time, follow.acc))
        e1 = PairingEngine(PARAMS, M=1)
        e1.on_arrival(pkt(base.time, base.acc, base.erroneous))
        out1 = e1.on_arrival(pkt(follow.time, follow.acc))
        assert out0.kind == "pair"
        assert out1.kind == "pair"
        assert out1.distance <= 1

    def test_zero_noise_chain_pairs_each_step(self):
        from accpair.simulate import SimConfig, generate_trace

        cfg = SimConfig(n=3, horizon=100.0, rng_seed=11)
        engine = PairingEngine(PARAMS, M=0, policy=DEPLOYMENT)
        seen = set()
        for arrival in generate_trace(cfg):
            out = engine.on_arrival(arrival)
            if arrival.meter_id in seen:
                assert out.kind == "pair"
                assert out.step == 1
                assert out.distance == 0
                assert out.is_false is False
            seen.add(arrival.meter_id)


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown slot-creation policy 'x'"):
        PairingEngine(policy="x")


class TestAccDomain:
    SMALL = ProtocolParams(L=16)

    def test_threshold_limited_to_acc_bits(self):
        PairingEngine(self.SMALL, M=4)
        with pytest.raises(ValueError, match="0..4"):
            PairingEngine(self.SMALL, M=5)

    def test_out_of_range_acc_leaves_engine_untouched(self):
        engine = PairingEngine(self.SMALL, M=0)
        engine.on_arrival(pkt(0.0, 0x4, erroneous=True))
        assert engine.live_slots == 1
        # a valid arrival this late would advance the slot and move the
        # previous-time check past the genuine next packet
        with pytest.raises(ValueError, match="outside 0..15"):
            engine.on_arrival(pkt(100.0, 200, erroneous=True))
        assert engine.live_slots == 1
        assert engine.arrivals == 1
        out = engine.on_arrival(pkt(nominal_interval(0x4, 1, self.SMALL), 0x5))
        assert out.kind == "pair"
        assert out.base_ref == 0

    @pytest.mark.parametrize("acc", [65.5, 65.0, True])
    def test_non_integer_acc_leaves_engine_untouched(self, acc):
        # 16.0 s after 0x40 lies inside the slot expecting 0x41
        later = [pkt(16.0, 0x43), pkt(16.0, 0x41), pkt(40.0, 0x20, erroneous=True)]
        engine, fresh = PairingEngine(PARAMS, M=1), PairingEngine(PARAMS, M=1)
        engine.on_arrival(pkt(0.0, 0x40, erroneous=True))
        fresh.on_arrival(pkt(0.0, 0x40, erroneous=True))
        with pytest.raises(ValueError, match="ACC value"):
            engine.on_arrival(pkt(16.0, acc))
        assert [engine.on_arrival(p) for p in later] == [fresh.on_arrival(p) for p in later]
        assert engine.live_slots == fresh.live_slots


def test_replay_leaves_the_callers_packets_unchanged():
    cfg = SimConfig(n=5, M=1, epsilon=1 / 32, horizon=200.0, rng_seed=3)
    trace = generate_trace(cfg)
    before = copy.deepcopy(trace)
    first, second = PairingEngine(cfg.params, M=cfg.M), PairingEngine(cfg.params, M=cfg.M)
    replay(trace, first)
    replay(trace, second)
    assert sum(first.pairs) > 0
    assert first.pairs == second.pairs
    assert trace == before


#: SHA-256 of the per-arrival ``repr((kind, base_ref, step, distance,
#: live_slots))`` on the noisy trace below, recorded before the slot store
#: kept one record per base packet.
DECISION_DIGESTS = {
    (0, ANALYSIS): "49b7e047943c4c99aa17aaa694115560307821c83cbd49119e134bdf072f36e5",
    (0, DEPLOYMENT): "f64342f58da34aebf5528bf8b44466936e804fcac79929496b719b0b700b3e83",
    (1, ANALYSIS): "3d2901eaec95097c78ad34dc6e585606506fdb404c75914aa0d5a54e3223818a",
    (1, DEPLOYMENT): "8d137d1adb2c780e2f292d0a0a4271e4dd38eee713f88e01d277fdf594217d37",
    (2, ANALYSIS): "cb21899b07e720581893f88b70dbaa81ab3f9b46d94ae9f64ac96ca55f68e461",
    (2, DEPLOYMENT): "2c6a704cc7c65462a73f45264a2be74d1588139260bdeb97b27e56d1bb3b84b3",
}


@pytest.fixture(scope="module")
def noisy_trace():
    # the replay-noisy-m1 benchmark trace at seed 0: 3,759 arrivals, nearly
    # all failing CRC, so most bases advance through several steps
    return generate_trace(SimConfig(n=200, epsilon=1 / 32, horizon=300.0, rng_seed=0))


@pytest.mark.parametrize("M, policy", sorted(DECISION_DIGESTS))
def test_decisions_match_recorded_digest(noisy_trace, M, policy):
    engine = PairingEngine(PARAMS, M=M, policy=policy, timeout=10)
    digest = hashlib.sha256()
    for arrival in noisy_trace:
        out = engine.on_arrival(arrival)
        decision = (out.kind, out.base_ref, out.step, out.distance, engine.live_slots)
        digest.update(repr(decision).encode())
    assert digest.hexdigest() == DECISION_DIGESTS[M, policy]


def test_memory_matches_recorded_value():
    assert simulate_memory(
        SimConfig(n=20, M=1, epsilon=2 / 32, trials=3, horizon=200.0, rng_seed=3)
    ) == (27.616666666666664, 0.7822687801800888)
