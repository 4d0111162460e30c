"""The pairing engine against a brute-force reference written from the
definitions.

The reference keeps no slot objects: a candidate is a base arrival ``k``
and a hypothesised base ACC ``c`` within ``M`` bit errors of the observed
one, and its windows are ``slot_bounds(c, j, t_k)`` for steps 1..timeout.
A candidate is live in step ``j`` when no earlier arrival fell in one of
its windows of steps before ``j``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from accpair.engine import ANALYSIS, DEPLOYMENT, PAIR_CLASSES, PairingEngine
from accpair.simulate import SimConfig, generate_trace
from accpair.slots import PacketArrival
from accpair.timing import ProtocolParams, slot_bounds

NEVER = float("inf")


def bits(x):
    return bin(x).count("1")


def reference_pairing(trace, params, M, policy, timeout):
    """Per-arrival ``(kind, base_ref, step, distance, pair_class, is_false, live_slots)``."""
    L = params.L
    windows = {}     # (k, c) -> [(start, end) of steps 1..timeout], unretired bases only
    first_seen = {}  # (k, c) -> lowest step whose window held an arrival
    decisions = []
    for i, pkt in enumerate(trace):
        T, y = pkt.time, pkt.acc
        best = None
        for (k, c), wins in windows.items():
            for j, (start, end) in enumerate(wins, start=1):
                if start <= T < end and j <= first_seen[k, c]:
                    d = bits(trace[k].acc ^ c) + bits(((c + j) % L) ^ y)
                    # ties go to the lower step, then to the earlier-created slot
                    key = (d, j, k, (c + 1) % L)
                    if d <= M and (best is None or key < best):
                        best = key
        for (k, c), wins in windows.items():
            for j, (start, end) in enumerate(wins, start=1):
                if start <= T < end:
                    first_seen[k, c] = min(first_seen[k, c], j)
        if best is not None:
            d, j, k, _ = best
            for key in [key for key in windows if key[0] == k]:
                del windows[key]
            # C for a CRC-clean packet, E for an erroneous one, base first;
            # false when both packets carry a meter id and the ids differ
            base = trace[k]
            pair_class = "CE"[base.erroneous] + "CE"[pkt.erroneous]
            known = base.meter_id is not None and pkt.meter_id is not None
            decision = ("pair", k, j, d, pair_class, base.meter_id != pkt.meter_id if known else None)
        else:
            decision = ("no-pair", None, None, None, None, None)
        if policy == DEPLOYMENT or pkt.erroneous:
            for c in range(L):
                if bits(y ^ c) <= M:
                    wins = []
                    for j in range(1, timeout + 1):
                        start, width = slot_bounds(c, j, T, params)
                        wins.append((start, start + width))
                    windows[i, c] = wins
                    first_seen[i, c] = NEVER
        live = 0
        for (k, c), wins in windows.items():
            pending = [j for j, (_, end) in enumerate(wins, start=1) if end > T]
            if pending and first_seen[k, c] >= pending[0]:
                live += 1
        decisions.append(decision + (live,))
    return decisions


@given(
    n=st.integers(1, 4),
    epsilon=st.sampled_from([0.0, 1 / 16, 1 / 4]),
    p=st.sampled_from([0.0, 0.3]),
    L=st.sampled_from([16, 256]),
    M=st.integers(0, 2),
    policy=st.sampled_from([ANALYSIS, DEPLOYMENT]),
    timeout=st.integers(1, 4),
    body_error_prob=st.sampled_from([None, 0.0]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_engine_matches_reference(n, epsilon, p, L, M, policy, timeout, body_error_prob, seed):
    params = ProtocolParams(L=L)
    cfg = SimConfig(params=params, n=n, epsilon=epsilon, p=p, horizon=100.0,
                    body_error_prob=body_error_prob, rng_seed=seed)
    check_against_reference(generate_trace(cfg), params, M, policy, timeout)


@given(
    L=st.sampled_from([16, 256]),
    M=st.integers(0, 2),
    policy=st.sampled_from([ANALYSIS, DEPLOYMENT]),
    timeout=st.integers(1, 4),
    rows=st.lists(
        st.tuples(st.integers(0, 5), st.integers(-40, 40), st.integers(0, 255), st.booleans(),
                  st.sampled_from([None, "a", "b"])),
        max_size=20,
    ),
)
# a false EE pairing at step 1 and an unverified one at step 2, which
# random rows make only now and then
@example(L=16, M=0, policy=ANALYSIS, timeout=2, rows=[
    (0, 0, 4, True, "a"), (1, 0, 5, True, "b"), (2, 0, 4, True, "a"), (4, -8, 6, False, None),
])
@settings(max_examples=60, deadline=None)
def test_engine_matches_reference_on_crowded_windows(L, M, policy, timeout, rows):
    # arrivals within +-40 ms of multiples of t, so the windows of
    # different bases and steps compete for the same arrival; a few meter
    # ids, some missing, make true, false and unverified pairings
    params = ProtocolParams(L=L)
    trace = sorted(
        (PacketArrival(time=16.0 * k + ms / 1000, acc=acc % L, erroneous=err, meter_id=meter)
         for k, ms, acc, err, meter in rows),
        key=lambda pkt: pkt.time,
    )
    check_against_reference(trace, params, M, policy, timeout)


def reference_tally(decisions, timeout):
    """``(pairs, unverified)`` as the engine keeps them, from the reference's pairings."""
    pairs, unverified = [0] * (8 * timeout), 0
    for kind, _, step, _, pair_class, is_false, _ in decisions:
        if kind == "pair":
            slot = 8 * (step - 1) + PAIR_CLASSES.index(pair_class)
            pairs[slot] += 1
            unverified += is_false is None
            pairs[slot + 4] += is_false is True
    return pairs, unverified


def check_against_reference(trace, params, M, policy, timeout):
    engine = PairingEngine(params, M=M, policy=policy, timeout=timeout)
    got = []
    for pkt in trace:
        out = engine.on_arrival(pkt)
        got.append((out.kind, out.base_ref, out.step, out.distance, out.pair_class, out.is_false,
                    engine.live_slots))
    expected = reference_pairing(trace, params, M, policy, timeout)
    assert got == expected
    assert (engine.pairs, engine.unverified) == reference_tally(expected, timeout)
