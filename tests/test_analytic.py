import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from accpair.analytic import (
    SaturationError,
    _ball_bits,
    _beta_weighted_duration,
    _beta_weighted_durations,
    max_distinguishable_meters,
    mean_qM,
    q0,
    qM,
    sigma,
)
from accpair.engine import ANALYSIS, PairingEngine
from accpair.simulate import (
    MIN_TRIALS_PER_WORKER,
    SimConfig,
    _false_detection_trial,
    _map_trials,
    _trial_rng,
    simulate_false_detection,
)
from accpair.slots import PacketArrival
from accpair.timing import (
    ProtocolParams,
    hamming,
    hamming_ball,
    jitter_index,
    lead_time,
    nominal_interval,
    slot_bounds,
    window_row,
)

PARAMS = ProtocolParams()


def hexset(*values):
    return set(values)


class TestQ0:
    def test_no_interferers(self):
        assert q0(0.0, 2.48e-3) == 0.0

    def test_zero_duration(self):
        assert q0(200 / 16, 0.0) == 0.0

    def test_defaults_value(self):
        assert q0(200 / 16, 2.48e-3) == pytest.approx(1.211e-4, rel=1e-3)

    def test_rejects_negative(self):
        for lam, duration in ((-1.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError):
                q0(lam, duration)

    @pytest.mark.parametrize("lam, duration", [
        (math.inf, 0.0), (1.0, math.inf), (True, 1.0), (1.0, False),
        (10**400, 1.0), (1.0, 10**400)],
        ids=["inf-0.0", "1.0-inf", "True-1.0", "1.0-False", "huge-1.0", "1.0-huge"])
    def test_rejects_infinite_or_boolean(self, lam, duration):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            q0(lam, duration)

    @pytest.mark.parametrize("L", [0, -256, 2.5, True, 16.0])
    def test_rejects_a_counter_size_that_is_not_a_positive_integer(self, L):
        with pytest.raises(ValueError, match="L must be an integer >= 1"):
            q0(1.0, 1.0, L)

    def test_counter_sizes_that_pass(self):
        assert q0(1.0, 1.0, 1) == -math.expm1(-1.0)
        assert q0(1.0, 1.0, 16) == -math.expm1(-1.0 / 16)


def widths(*bases):
    """Summed step-1 window widths of the given base ACCs."""
    return sum(slot_bounds(c, 1, 0.0, PARAMS)[1] for c in bases)


class TestBuildTimebins:
    def test_base_40(self):
        # six earlier windows with one false ACC each; the own window (slots
        # 0x41 and 0xC1) is exposed for its lead time only
        s = sigma(0x40, 1, PARAMS)
        assert set(s) == {1, 9}
        assert s[1] == pytest.approx(widths(0x60, 0x50, 0x48, 0x44, 0x42, 0x41), rel=1e-12)
        assert s[9] == lead_time(0x40, 1, PARAMS)

    def test_base_20(self):
        s = sigma(0x20, 1, PARAMS)
        assert set(s) == {2, 1, 9}
        assert s[2] == pytest.approx(widths(0x60), rel=1e-12)  # slots 0x61 and 0xA1
        assert s[1] == pytest.approx(widths(0x30, 0x28, 0x24, 0x22, 0x21), rel=1e-12)
        assert s[9] == lead_time(0x20, 1, PARAMS)

    def test_zero_threshold(self):
        assert sigma(0x37, 0, PARAMS) == {1: lead_time(0x37, 1, PARAMS)}

    def test_sigma_totals(self):
        # disjoint default windows: the exposed time is the lead time plus
        # every distinct candidate window that starts before the own one
        for y in range(256):
            own = slot_bounds(y, 1, 0.0, PARAMS)[0]
            windows = {slot_bounds(c, 1, 0.0, PARAMS) for c in range(256) if hamming(y, c) <= 1}
            expected = lead_time(y, 1, PARAMS) + sum(w for start, w in windows if start < own)
            assert sum(sigma(y, 1, PARAMS).values()) == pytest.approx(expected, rel=1e-12)


def pairing_accs(y, M, c):
    """ACCs the engine pairs in mid-window of candidate base ``c`` of ``y``."""
    start, width = slot_bounds(c, 1, 0.0, PARAMS)
    accs = set()
    for u in range(256):
        engine = PairingEngine(PARAMS, M=M)
        engine.on_arrival(PacketArrival(time=0.0, acc=y, erroneous=True))
        if engine.on_arrival(PacketArrival(start + width / 2, u, False)).kind == "pair":
            accs.add(u)
    return accs


class TestAllowedCombinations:
    """sigma's allowed sets agree with the engine's pairing rule."""

    def test_full_budget_ball(self):
        # own window: slot 0x41 (b=0) admits its 1-bit ball; 0xC1 (b=1) is inside it
        accs = pairing_accs(0x40, 1, 0x40)
        assert accs == {0x41 ^ m for m in range(256) if m.bit_count() <= 1}
        assert max(sigma(0x40, 1, PARAMS)) == len(accs) == 9

    def test_exhausted_budget_singleton(self):
        # slot 0x42 of base 0x41 spent the one tolerated bit error
        assert pairing_accs(0x40, 1, 0x41) == {0x42}
        assert 1 in sigma(0x40, 1, PARAMS)

    def test_zero_threshold(self):
        assert pairing_accs(0x37, 0, 0x37) == {0x38}
        assert set(sigma(0x37, 0, PARAMS)) == {1}


class TestBinCombinationCount:
    def test_overlapping_balls_merge(self):
        # the own window of 0x40 holds slots 0x41 (ball of 9) and 0xC1 (inside it)
        assert max(sigma(0x40, 1, PARAMS)) == 9

    def test_singleton(self):
        assert 1 in sigma(0x40, 1, PARAMS)

    def test_disjoint_singletons(self):
        assert 2 in sigma(0x20, 1, PARAMS)  # slots 0x61 and 0xA1 share a window


class TestQM:
    def test_reduces_to_q0(self):
        for y in (0x00, 0x20, 0x80, 0xFF):
            expected = q0(200 / 16, lead_time(y, 1, PARAMS))
            assert qM(y, 0, 200, PARAMS) == pytest.approx(expected, rel=1e-12)

    def test_base_40_value(self):
        # sigma_1 = six full windows, sigma_9 = the 2.48 ms lead time
        assert qM(0x40, 1, 200, PARAMS) == pytest.approx(2.9e-3, rel=5e-3)

    def test_no_meters(self):
        assert qM(0x40, 1, 0, PARAMS) == 0.0

    def test_rejects_negative_meter_count(self):
        for n in (-1, math.nan):
            with pytest.raises(ValueError, match="meter count"):
                qM(0x40, 1, n, PARAMS)

    @pytest.mark.parametrize("n", [math.inf, True, False, 10**400],
                             ids=["inf", "True", "False", "huge"])
    def test_rejects_infinite_or_boolean_meter_count(self, n):
        # an infinite count gave nan when every window is empty, and True
        # the value at n=1
        empty = ProtocolParams(nu_a=0, nu_b=0, gamma_a=0, gamma_b=0)
        for call in (lambda: qM(0x40, 1, n, empty), lambda: mean_qM(1, n, empty),
                     lambda: qM(0x40, 1, n, PARAMS)):
            with pytest.raises(ValueError, match="meter count"):
                call()

    def test_finite_meter_counts_pass(self):
        for n in (0, 1e4, np.int64(50), 200.0):
            assert 0.0 <= qM(0x40, 1, n, PARAMS) == qM(0x40, 1, float(n), PARAMS) < 1.0
            assert 0.0 <= mean_qM(1, n, PARAMS) < 1.0

    def test_monotone_in_meters_and_threshold(self):
        values = [qM(0x40, 1, n, PARAMS) for n in (0, 50, 200, 800)]
        assert values == sorted(values)
        for y in (0x10, 0x40, 0x80):
            assert qM(y, 0, 200, PARAMS) <= qM(y, 1, 200, PARAMS) <= qM(y, 2, 200, PARAMS)

    def test_decade_ratio(self):
        assert 10 <= mean_qM(1, 200, PARAMS) / mean_qM(0, 200, PARAMS) <= 40

    @pytest.mark.parametrize("call, match", [
        (lambda y: qM(y, 1, 10, PARAMS), "ACC value"),
        (lambda M: qM(1, M, 10, PARAMS), "threshold M"),
        (lambda M: mean_qM(M, 10, PARAMS), "threshold M"),
        (lambda y: sigma(y, 1, PARAMS), "ACC value"),
        (lambda M: sigma(1, M, PARAMS), "threshold M"),
    ], ids=["qM-acc", "qM-threshold", "mean_qM-threshold", "sigma-acc", "sigma-threshold"])
    def test_warm_caches_keep_the_argument_checks(self, call, match):
        # True, 1.0 and a numpy 1 equal 1 and hash like it: they must not
        # hit any cache entry that the call with 1 filled
        call(1)
        for bad in (True, 1.0, np.int64(1)):
            with pytest.raises(ValueError, match=match):
                call(bad)

    def test_caches_are_bounded_and_rebuild_evicted_tables(self):
        # 16 params' tables at every M of an L=256 counter fit
        assert _beta_weighted_durations.cache_info().maxsize >= 16 * 9
        assert _beta_weighted_duration.cache_info().maxsize >= 16 * 9 * 256
        first = ProtocolParams(t=16.0)
        table = _beta_weighted_durations(0, first)
        mean = mean_qM(0, 200, first)
        for i in range(150):
            mean_qM(0, 200, ProtocolParams(t=16.0 + (i + 1) * 1e-3))
        for cache in (_beta_weighted_duration, _beta_weighted_durations):
            assert cache.cache_info().currsize <= cache.cache_info().maxsize
        rebuilt = _beta_weighted_durations(0, first)
        assert rebuilt is not table
        assert rebuilt == table
        assert mean_qM(0, 200, first) == mean

    def test_mean_bits_pinned(self):
        # the same last bit on every interpreter: sum() of floats is
        # compensated from Python 3.12 on, a += loop is not
        assert repr(mean_qM(1, 200, PARAMS)) == "0.002302079545084635"


class TestBruteForceOracle:
    @pytest.mark.parametrize("y", [0x00, 0x20, 0x40, 0x7F, 0x80, 0xC3, 0xFF])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_layout_matches_enumeration(self, y, m):
        pi = lambda v: abs(v - 128)
        groups = {}
        for c in range(256):
            if hamming(y, c) <= m:
                groups.setdefault(pi(c), set()).add((c + 1) % 256)
        oracle = {}
        for jitter, members in groups.items():
            if jitter > pi(y):
                continue
            would_pair = sum(
                1
                for u in range(256)
                if any(hamming(y, (xi - 1) % 256) + hamming(xi, u) <= m for xi in members)
            )
            duration = (lead_time(y, 1, PARAMS) if jitter == pi(y)
                        else slot_bounds((next(iter(members)) - 1) % 256, 1, 0.0, PARAMS)[1])
            oracle[would_pair] = oracle.get(would_pair, 0.0) + duration
        s = sigma(y, m, PARAMS)
        assert set(s) == set(oracle)
        for beta, duration in oracle.items():
            assert s[beta] == pytest.approx(duration, rel=1e-12)


#: Zero-mean offsets decreasing in the jitter index: a larger index now
#: means an earlier step-1 window.
REVERSED = ProtocolParams(delta_map=tuple(-16.0 * (s - 64) / 2048.0 for s in range(129)))

#: Geometries whose step-1 windows are not the disjoint, start-ordered
#: default: reversed order, and windows of neighbouring jitter indices that
#: overlap through jitter or through clock tolerance.
GEOMETRIES = {
    "reversed": REVERSED,
    "gamma": ProtocolParams(gamma_a=0.02, gamma_b=0.02),
    "nu": ProtocolParams(nu_a=1e-3, nu_b=1e-3),
}


def swept_sigma(y, m, params):
    """sigma_beta by a sweep over the real step-1 windows up to the genuine arrival.

    Every elementary segment between window edges counts the union of the
    ACCs that would pair with any slot active in it.
    """
    L = params.L
    slots = []
    for c in range(L):
        b = hamming(y, c)
        if b <= m:
            xi = (c + 1) % L
            start, width = slot_bounds(c, 1, 0.0, params)
            allowed = frozenset(u for u in range(L) if b + hamming(xi, u) <= m)
            slots.append((start, start + width, allowed))
    cutoff = nominal_interval(y, 1, params)
    edges = sorted({e for s, t, _ in slots for e in (s, t) if e < cutoff} | {cutoff})
    sigma = {}
    for a, b in zip(edges, edges[1:]):
        union = set()
        for s, t, allowed in slots:
            if s <= a and b <= t:
                union |= allowed
        if union:
            sigma[len(union)] = sigma.get(len(union), 0.0) + (b - a)
    return sigma


class TestReversedDeltaMap:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_sigma_matches_window_sweep(self, geometry):
        params = GEOMETRIES[geometry]
        for y in range(256):
            for m in (0, 1, 2):
                s = sigma(y, m, params)
                oracle = swept_sigma(y, m, params)
                assert set(s) == set(oracle), (y, m)
                for beta, duration in oracle.items():
                    assert abs(s[beta] - duration) < 1e-12, (y, m, beta)

    @pytest.mark.parametrize("geometry, y", [
        ("reversed", 0x40), ("reversed", 0x20), ("gamma", 0x40), ("nu", 0x40),
    ])
    def test_per_acc_monte_carlo_agrees(self, geometry, y):
        params = GEOMETRIES[geometry]
        trials, n = 20_000, 2000
        cfg = SimConfig(params=params, n=n, M=1, trials=trials)
        # trial i draws from the same per-index generator on whichever CPU runs it
        hits = sum(_map_trials(
            lambda cfg, i: _false_detection_trial(cfg, y, _trial_rng(7000 + y, i)), cfg,
            MIN_TRIALS_PER_WORKER,
        ))
        expected = qM(y, 1, n, params)
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(hits / trials - expected) <= 3 * se, (hits / trials, expected)


#: Candidate 0x0 of base 0x8 has 0.1 s intervals, so without a bound on the
#: timeout its step-2 window would open at 0.198 s, long before the genuine
#: packet arrives at 1.9 s; sigma models step-1 windows only.
REPRO = ProtocolParams(L=16, t=1.0, delta_map=(0.9,) + (0.15,) * 6 + (-0.9, -0.9))


class TestLateStepWindows:
    def test_timeout_two_rejected(self):
        for timeout in (2, 10):
            cfg = SimConfig(params=REPRO, n=40, M=1, trials=1, timeout=timeout)
            with pytest.raises(ValueError, match=f"timeout {timeout} exceeds 1"):
                simulate_false_detection(cfg)

    def test_full_stream_engine_monte_carlo_agrees(self):
        # Poisson interferers over the whole span up to the genuine arrival,
        # which pairs with its own window unless a false pairing came first
        y, n, trials = 0x8, 40, 5000
        genuine = nominal_interval(y, 1, REPRO)
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(trials):
            engine = PairingEngine(REPRO, M=1, timeout=REPRO.max_timeout)
            engine.on_arrival(PacketArrival(0.0, y, True, meter_id="base"))
            k = rng.poisson(n / REPRO.t * genuine)
            stream = sorted(zip(rng.uniform(0.0, genuine, k).tolist(),
                                rng.integers(0, REPRO.L, k).tolist(), ["bg"] * k))
            for time, acc, meter in stream + [(genuine, (y + 1) % REPRO.L, "base")]:
                out = engine.on_arrival(PacketArrival(time, acc, False, meter_id=meter))
                if out.kind == "pair":
                    hits += out.is_false
                    break
        expected = qM(y, 1, n, REPRO)
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(hits / trials - expected) <= 3 * se, (hits / trials, expected)


def params_or_reject(**fields):
    """``ProtocolParams(**fields)``, or a rejected draw when construction
    refuses them because a step-1 window would open before its base."""
    try:
        return ProtocolParams(**fields)
    except ValueError as exc:
        if "opens before its base" not in str(exc):
            raise
        reject()


@given(
    L=st.sampled_from([4, 8, 16, 32, 64]),
    t=st.floats(0.01, 64.0),
    nu_a=st.floats(0.0, 0.01),
    nu_b=st.floats(0.0, 0.01),
    gamma_a=st.floats(0.0, 0.5),
    gamma_b=st.floats(0.0, 0.5),
)
@settings(max_examples=40, deadline=None)
def test_sigma_matches_window_sweep_on_random_geometry(L, t, nu_a, nu_b, gamma_a, gamma_b):
    params = params_or_reject(L=L, t=t, nu_a=nu_a, nu_b=nu_b, gamma_a=gamma_a, gamma_b=gamma_b)
    for y in range(L):
        for m in range(L.bit_length()):
            s, oracle = sigma(y, m, params), swept_sigma(y, m, params)
            for beta in set(s) | set(oracle):
                assert abs(s.get(beta, 0.0) - oracle.get(beta, 0.0)) < 1e-12, (y, m, beta)


def probed_beta_weighted_duration(y, M, params):
    """sum of beta * sigma_beta for base ACC ``y``, by probing fresh engines.

    The base arrives at ``-I(y)``, so the genuine next packet is due at 0.
    Between consecutive edges of the base's step-1 windows, cut to the span
    from the base to 0, beta is the number of ACCs that a clean arrival at
    the segment's start would pair with.  Every window is half-open and every
    segment edge is a window edge, so the windows that hold the start hold
    the whole segment; a midpoint can round onto the excluded end of a
    segment only a few ulps long.
    """
    base = PacketArrival(time=-params.intervals[y], acc=y, erroneous=True)

    def engine():
        fresh = PairingEngine(params, M=M, policy=ANALYSIS, timeout=1)
        fresh.on_arrival(base)
        return fresh

    edges = sorted({min(max(edge, base.time), 0.0) for rec in engine().store._by_base.values()
                    for slot in rec.slots for edge in (slot.start, slot.end)})
    total = 0.0
    for t0, t1 in zip(edges, edges[1:]):
        beta = sum(engine().on_arrival(PacketArrival(t0, a, False)).kind == "pair"
                   for a in range(params.L))
        total += beta * (t1 - t0)
    return total


def drawn_delta_map(data, L, t):
    """Offsets within 0.45 t, shifted to a zero mean over an ACC cycle."""
    raw = data.draw(st.lists(st.floats(-0.45, 0.45), min_size=L // 2 + 1,
                             max_size=L // 2 + 1))
    index = [jitter_index(x, ProtocolParams(L=L)) for x in range(L)]
    mean = sum(raw[s] for s in index) / L
    return tuple(t * (v - mean) for v in raw)


@given(
    L=st.sampled_from([4, 8, 16, 32]),
    t=st.floats(0.01, 64.0),
    nu_a=st.floats(0.0, 0.01),
    nu_b=st.floats(0.0, 0.01),
    gamma_a=st.floats(0.0, 0.5),
    gamma_b=st.floats(0.0, 0.5),
    with_map=st.booleans(),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_closed_form_matches_engine_probe(L, t, nu_a, nu_b, gamma_a, gamma_b, with_map, data):
    delta_map = drawn_delta_map(data, L, t) if with_map else None
    params = params_or_reject(L=L, t=t, nu_a=nu_a, nu_b=nu_b, gamma_a=gamma_a,
                              gamma_b=gamma_b, delta_map=delta_map)
    M = data.draw(st.integers(0, L.bit_length() - 1), label="M")
    y = data.draw(st.integers(0, L - 1), label="y")
    expected = _beta_weighted_duration(y, M, params)
    got = probed_beta_weighted_duration(y, M, params)
    assert abs(got - expected) <= 1e-12 * expected, (got, expected)


def edge_swept_sigma(y, M, params):
    """``sigma`` by one sweep over the edges of every window, groups or not.

    The bit-exact reference of the grouped sweep: the same windows and ACC
    sets, every segment between consecutive edges counted in time order.
    """
    L = params.L
    origin = -nominal_interval(y, 1, params)
    windows = window_row(params, 1)
    edges = []  # (time, opens, mask of the candidate)
    allowed = {}
    for m in hamming_ball(M, L):
        c = y ^ m
        tnom, theta, tau = windows[c]
        start = origin + tnom - theta
        end = start + tau
        if end > 0.0:
            end = 0.0
        if start < end:
            allowed[m] = _ball_bits((c + 1) % L, M - m.bit_count(), L)
            edges.append((start, True, m))
            edges.append((end, False, m))
    edges.sort()  # at equal times a window ends before another starts
    out = {}
    active = {}
    for (t0, opens, m), (t1, _, _) in zip(edges, edges[1:]):
        if opens:
            active[m] = allowed[m]
        else:
            del active[m]
        if active and t0 < t1:
            union = 0
            for bits in active.values():
                union |= bits
            beta = union.bit_count()
            out[beta] = out.get(beta, 0.0) + (t1 - t0)
    return out


@given(
    L=st.sampled_from([4, 8, 16, 32]),
    t=st.floats(0.01, 64.0),
    nu_a=st.floats(0.0, 0.01),
    nu_b=st.floats(0.0, 0.01),
    gamma_a=st.floats(0.0, 0.5),
    gamma_b=st.floats(0.0, 0.5),
    with_map=st.booleans(),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_grouped_sweep_matches_edge_sweep_bit_for_bit(L, t, nu_a, nu_b, gamma_a, gamma_b,
                                                       with_map, data):
    delta_map = drawn_delta_map(data, L, t) if with_map else None
    params = params_or_reject(L=L, t=t, nu_a=nu_a, nu_b=nu_b, gamma_a=gamma_a,
                              gamma_b=gamma_b, delta_map=delta_map)
    for M in range(L.bit_length()):
        for y in range(L):
            # the same values and the same key order, not equal within 1e-12
            assert list(sigma(y, M, params).items()) == list(
                edge_swept_sigma(y, M, params).items()), (y, M)


#: L=4 windows 0.25 s wide: from base 0, ACC 1's and ACC 3's windows
#: coincide on [-0.375, -0.125), ACC 2's ends at -0.375 where they start,
#: and the own window starts at -0.125 where they end.
TOUCHING = ProtocolParams(L=4, t=1.0, nu_a=0.0, nu_b=0.0, gamma_a=0.125, gamma_b=0.125,
                          delta_map=(-0.25, 0.0, 0.25))


@pytest.mark.parametrize("y, by_M", enumerate([
    [{1: 0.125}, {1: 0.5, 3: 0.125}, {3: 0.5, 4: 0.125}],
    [{1: 0.125}, {3: 0.125}, {1: 0.25, 4: 0.125}],
    [{1: 0.125}, {3: 0.125}, {4: 0.125}],
    [{1: 0.125}, {1: 0.25, 3: 0.125}, {3: 0.25, 4: 0.125}],
]))
def test_sigma_of_touching_and_coinciding_windows(y, by_M):
    for M, expected in enumerate(by_M):
        assert list(sigma(y, M, TOUCHING).items()) == list(expected.items()), M
        assert list(edge_swept_sigma(y, M, TOUCHING).items()) == list(expected.items()), M


#: TOUCHING's map with windows 0.375 s wide: from base 0 at M=1, ACC 2's
#: window A = [-0.6875, -0.3125) pairs with {3}, ACC 1's B = [-0.4375,
#: -0.0625) with {2}, and the own C = [-0.1875, 0) with {0, 1, 3}.  A and
#: C do not overlap, yet B joins them into one group, so the group's reach
#: must pass from A's end to B's before C is seen.
CHAINED = ProtocolParams(L=4, t=1.0, nu_a=0.0, nu_b=0.0, gamma_a=0.1875, gamma_b=0.1875,
                         delta_map=(-0.25, 0.0, 0.25))


def test_sigma_of_a_chained_overlap_group():
    by_M = [
        {1: 0.1875},  # C alone
        # A 0.25 s alone, A+B 0.125 s, B 0.125 s alone, B+C 0.125 s, C 0.0625 s alone
        {1: 0.375, 2: 0.125, 4: 0.125, 3: 0.0625},
        # ACC 3's window coincides with B: 3 values while A or B is alone, 4 elsewhere
        {3: 0.375, 4: 0.3125},
    ]
    base = -nominal_interval(0, 1, CHAINED)  # the genuine next packet at time 0
    (a, a_width), (b, b_width), (c, _) = (slot_bounds(x, 1, base, CHAINED) for x in (2, 1, 0))
    assert b < a + a_width <= c < b + b_width  # A ends before C starts; B overlaps both
    for M, expected in enumerate(by_M):
        assert list(sigma(0, M, CHAINED).items()) == list(expected.items()), M
        assert list(edge_swept_sigma(0, M, CHAINED).items()) == list(expected.items()), M


def test_probe_counts_a_window_one_subnormal_wide():
    # the own window is [-5e-324, 0): its midpoint rounds onto the excluded 0.0
    params = ProtocolParams(L=4, t=1.0, nu_a=0.0, nu_b=0.0, gamma_a=5e-324, gamma_b=0.0)
    assert _beta_weighted_duration(0, 0, params) == 5e-324
    assert probed_beta_weighted_duration(0, 0, params) == 5e-324


def test_params_with_windows_open_before_the_base_are_rejected():
    # a 0.5 s jitter allowance would open every window 0.375 s before a base
    # whose intervals are about 0.125 s: sigma would count all 0.5 s of it,
    # though only the 0.125 s after the base can pair
    with pytest.raises(ValueError, match="opens before its base"):
        ProtocolParams(L=4, t=0.125, nu_a=0.0, nu_b=0.0, gamma_a=0.5, gamma_b=0.0)
    # the earliest window may not open at the base either, only after it
    lo = min(ProtocolParams(L=4, t=0.125, nu_a=0.01).intervals) * (1 - 0.01)
    with pytest.raises(ValueError, match="opens before its base"):
        ProtocolParams(L=4, t=0.125, nu_a=0.01, gamma_a=lo)
    params = ProtocolParams(L=4, t=0.125, nu_a=0.01, gamma_a=lo * (1 - 1e-9))
    assert probed_beta_weighted_duration(0, 0, params) == pytest.approx(
        _beta_weighted_duration(0, 0, params), rel=1e-12)


#: Geometries whose closed-form values the recorded digest pins: the
#: default, other mean intervals (t=8 windows overlap), large jitter,
#: large clock tolerance, the reversed map and the L=16 repro.
DIGEST_GEOMETRIES = (
    PARAMS,
    ProtocolParams(t=32.0),
    ProtocolParams(t=8.0),
    ProtocolParams(gamma_a=0.02, gamma_b=0.02),
    ProtocolParams(nu_a=0.01, nu_b=0.01),
    REVERSED,
    REPRO,
)


def test_closed_form_matches_recorded_digest():
    # every bit of sigma, qM, mean_qM and the sizing bound, recorded from
    # the set-based union that the bitmask sweep replaced
    digest = hashlib.sha256()
    for params in DIGEST_GEOMETRIES:
        for M in range(min(3, params.L.bit_length() - 1) + 1):
            for y in range(params.L):
                digest.update(repr(sigma(y, M, params)).encode())
                digest.update(repr(qM(y, M, 137, params)).encode())
            for n in (1, 50, 400, 1e4):
                digest.update(repr(mean_qM(M, n, params)).encode())
            digest.update(repr(max_distinguishable_meters(1e-3, M, params)).encode())
    assert digest.hexdigest() == "8bb79f53c993196e04224330b5be86199a5d7b8ed2d99699fcb344ee9ee61568"


class TestMaxDistinguishableMeters:
    def test_around_two_thousand(self):
        n = max_distinguishable_meters(0.001, 0, PARAMS)
        assert 1500 <= n <= 2500
        assert mean_qM(0, n, PARAMS) <= 0.001 < mean_qM(0, n + 1, PARAMS)

    def test_tolerant_threshold_distinguishes_fewer(self):
        assert max_distinguishable_meters(0.001, 1, PARAMS) < max_distinguishable_meters(
            0.001, 0, PARAMS
        )

    def test_zero_when_one_meter_exceeds_the_target(self):
        q1 = mean_qM(0, 1, PARAMS)
        assert max_distinguishable_meters(q1 / 2, 0, PARAMS) == 0
        assert max_distinguishable_meters(q1, 0, PARAMS) >= 1

    def test_saturation_flagged(self):
        # without clock tolerance or jitter every window is empty, so no
        # meter count reaches the target
        exact = ProtocolParams(nu_a=0, nu_b=0, gamma_a=0, gamma_b=0)
        with pytest.raises(SaturationError, match="up to n=1099511627776"):
            max_distinguishable_meters(0.001, 0, exact)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            max_distinguishable_meters(1.5, 0, PARAMS)
