import math

import pytest

from accpair.analytic import (
    SaturationError,
    allowed_combinations,
    bin_combination_count,
    build_timebins,
    max_distinguishable_meters,
    mean_qM,
    q0,
    qM,
)
from accpair.simulate import SimConfig, _false_detection_trial, _trial_rng
from accpair.timing import (
    ProtocolParams,
    hamming,
    lead_time,
    nominal_interval,
    slot_bounds,
    slot_width,
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
        with pytest.raises(ValueError):
            q0(-1.0, 1.0)


class TestBuildTimebins:
    def test_base_40(self):
        layout = build_timebins(0x40, 1, PARAMS)
        assert [set(b.members) for b in layout.bins_a] == [
            {0x61}, {0x51}, {0x49}, {0x45}, {0x43}, {0x42},
        ]
        assert set(layout.bin_b.members) == {0x41, 0xC1}
        assert layout.bin_b.d == 9
        assert all(b.d == 1 for b in layout.bins_a)

    def test_base_20(self):
        layout = build_timebins(0x20, 1, PARAMS)
        assert [set(b.members) for b in layout.bins_a] == [
            {0x61, 0xA1}, {0x31}, {0x29}, {0x25}, {0x23}, {0x22},
        ]
        assert set(layout.bin_b.members) == {0x21}

    def test_zero_threshold(self):
        layout = build_timebins(0x37, 0, PARAMS)
        assert layout.bins_a == ()
        assert set(layout.bin_b.members) == {0x38}
        assert layout.bin_b.d == 1

    def test_sigma_totals(self):
        layout = build_timebins(0x40, 1, PARAMS)
        total = sum(layout.sigma().values())
        expected = layout.theta1 + sum(b.width for b in layout.bins_a)
        assert total == pytest.approx(expected, rel=1e-12)


class TestAllowedCombinations:
    def test_full_budget_ball(self):
        assert len(allowed_combinations(0x41, 0x40, 1)) == 9

    def test_exhausted_budget_singleton(self):
        assert allowed_combinations(0x42, 0x40, 1) == {0x42}

    def test_zero_threshold(self):
        assert allowed_combinations(0x38, 0x37, 0) == {0x38}

    def test_rejects_non_candidate(self):
        with pytest.raises(ValueError):
            allowed_combinations(0x44, 0x40, 0)


class TestBinCombinationCount:
    def test_overlapping_balls_merge(self):
        assert bin_combination_count([0x41, 0xC1], 0x40, 1) == 9

    def test_singleton(self):
        assert bin_combination_count([0x42], 0x40, 1) == 1

    def test_disjoint_singletons(self):
        assert bin_combination_count([0x61, 0xA1], 0x20, 1) == 2


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

    def test_monotone_in_meters_and_threshold(self):
        values = [qM(0x40, 1, n, PARAMS) for n in (0, 50, 200, 800)]
        assert values == sorted(values)
        for y in (0x10, 0x40, 0x80):
            assert qM(y, 0, 200, PARAMS) <= qM(y, 1, 200, PARAMS) <= qM(y, 2, 200, PARAMS)

    def test_decade_ratio(self):
        assert 10 <= mean_qM(1, 200, PARAMS) / mean_qM(0, 200, PARAMS) <= 40


class TestBruteForceOracle:
    @pytest.mark.parametrize("y", [0x00, 0x20, 0x40, 0x7F, 0x80, 0xC3, 0xFF])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_layout_matches_enumeration(self, y, m):
        layout = build_timebins(y, m, PARAMS)
        pi = lambda v: abs(v - 128)
        groups = {}
        for c in range(256):
            if hamming(y, c) <= m:
                groups.setdefault(pi(c), set()).add((c + 1) % 256)
        pi_y = pi(y)
        assert [set(b.members) for b in layout.bins_a] == [
            groups[s] for s in sorted(groups) if s < pi_y
        ]
        assert set(layout.bin_b.members) == groups[pi_y]
        for b in list(layout.bins_a) + [layout.bin_b]:
            would_pair = sum(
                1
                for u in range(256)
                if any(hamming(y, (xi - 1) % 256) + hamming(xi, u) <= m for xi in b.members)
            )
            assert b.d == would_pair
            assert b.width == pytest.approx(slot_width((b.members[0] - 1) % 256, 1, PARAMS))


#: Zero-mean offsets decreasing in the jitter index: a larger index now
#: means an earlier step-1 window.
REVERSED = ProtocolParams(delta_map=tuple(-16.0 * (s - 64) / 2048.0 for s in range(129)))


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
    def test_sigma_matches_window_sweep(self):
        for y in range(256):
            for m in (0, 1, 2):
                sigma = build_timebins(y, m, REVERSED).sigma()
                oracle = swept_sigma(y, m, REVERSED)
                assert set(sigma) == set(oracle), (y, m)
                for beta, duration in oracle.items():
                    assert abs(sigma[beta] - duration) < 1e-12, (y, m, beta)

    @pytest.mark.parametrize("y", [0x40, 0x20])
    def test_per_acc_monte_carlo_agrees(self, y):
        trials, n = 20_000, 2000
        cfg = SimConfig(params=REVERSED, n=n, M=1)
        hits = sum(
            _false_detection_trial(cfg, y, _trial_rng(7000 + y, i)) for i in range(trials)
        )
        expected = qM(y, 1, n, REVERSED)
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(hits / trials - expected) <= 3 * se, (hits / trials, expected)


class TestMaxDistinguishableMeters:
    def test_around_two_thousand(self):
        n = max_distinguishable_meters(0.001, 0, PARAMS)
        assert 1500 <= n <= 2500
        assert mean_qM(0, n, PARAMS) <= 0.001 < mean_qM(0, n + 1, PARAMS)

    def test_tolerant_threshold_distinguishes_fewer(self):
        assert max_distinguishable_meters(0.001, 1, PARAMS) < max_distinguishable_meters(
            0.001, 0, PARAMS
        )

    def test_saturation_flagged(self):
        with pytest.raises(SaturationError):
            max_distinguishable_meters(1 - 1e-12, 0, PARAMS, n_cap=10**6)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            max_distinguishable_meters(1.5, 0, PARAMS)
