import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accpair.analytic import qM
from accpair.engine import PairingEngine
from accpair.simulate import SimConfig, generate_trace, replay
from accpair.timing import (
    LARGEST_FLOAT,
    ProtocolParams,
    _window,
    check_count,
    check_finite_nonnegative,
    hamming,
    hamming_ball,
    jitter_index,
    lead_time,
    nominal_interval,
    slot_bounds,
    window_row,
)

PARAMS = ProtocolParams()

#: an int that no float can hold: converting it raises OverflowError
HUGE = 10**400

accs = st.integers(min_value=0, max_value=255)


class TestProtocolParams:
    def test_defaults(self):
        assert PARAMS.L == 256
        assert PARAMS.t == 16.0
        assert PARAMS.delta(64) == 0.0
        assert PARAMS.delta(0) == pytest.approx(-0.5)
        assert PARAMS.delta(128) == pytest.approx(0.5)

    def test_delta_spacing(self):
        # one jitter step moves the nominal instant by 7.8125 ms
        assert PARAMS.delta(65) - PARAMS.delta(64) == pytest.approx(16.0 / 2048)

    def test_rejects_non_power_of_two_modulus(self):
        with pytest.raises(ValueError, match="power of two"):
            ProtocolParams(L=100)

    @pytest.mark.parametrize("L, message", [
        (2**20, "needs a delta_map"),  # refused before its table of 2**20 intervals
        (8192, "needs a delta_map"),   # the interval after jitter index 0 would be 0 s
        (4.0, "integer power of two"),
    ])
    def test_modulus_is_checked_before_the_interval_table(self, L, message):
        with pytest.raises(ValueError, match=message):
            ProtocolParams(L=L)

    def test_rejects_negative_tolerance(self):
        for name in ("nu_a", "nu_b", "gamma_a", "gamma_b"):
            for value in (-1e-6, math.inf, math.nan, True, False, HUGE):
                with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
                    ProtocolParams(**{name: value})

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan, True, HUGE],
                             ids=["0.0", "-1.0", "inf", "nan", "True", "huge"])
    def test_rejects_bad_mean_interval(self, t):
        with pytest.raises(ValueError, match="t must be finite and positive"):
            ProtocolParams(t=t)

    def test_delta_map_entries_are_converted_to_floats(self):
        params = ProtocolParams(L=2, t=1.0, delta_map=("0.5", -0.5))
        assert params.delta_map == (0.5, -0.5)

    def test_rejects_biased_delta_map(self):
        with pytest.raises(ValueError, match="zero-mean"):
            ProtocolParams(delta_map=(1.0,) * 129)

    def test_rejects_nonpositive_interval(self):
        # intervals alternate 2.5 s and -0.5 s
        with pytest.raises(ValueError, match="nonpositive"):
            ProtocolParams(L=2, t=1.0, delta_map=(-1.5, 1.5))
        for bad in (math.nan, math.inf, -math.inf, HUGE, -HUGE):
            with pytest.raises(ValueError, match="not finite"):
                ProtocolParams(L=2, t=1.0, delta_map=(bad, 0.0))

    @pytest.mark.parametrize("params", [
        PARAMS,
        ProtocolParams(delta_map=tuple(-16.0 * (s - 64) / 2048.0 for s in range(129))),
    ])
    def test_interval_table_is_the_interval_law(self, params):
        assert params.intervals == tuple(
            params.t + params.delta(jitter_index(x, params)) for x in range(params.L)
        )

    def test_table_delta_map(self):
        table = tuple(16.0 * (s - 64) / 2048.0 for s in range(129))
        p = ProtocolParams(delta_map=table)
        assert p.delta(10) == PARAMS.delta(10)

    @pytest.mark.parametrize("s", [-1, 129])
    def test_delta_rejects_jitter_index_outside_the_table(self, s):
        with pytest.raises(ValueError, match=f"jitter index {s} outside 0..128"):
            PARAMS.delta(s)

    def test_delta_map_length_checked(self):
        with pytest.raises(ValueError, match="cover jitter"):
            ProtocolParams(delta_map=[0.0] * 10)


#: Candidate 0x0 has 0.1 s intervals, so a step-2 window of it would open
#: at 0.198 s, long before the step-1 windows of base 0x8 close near 1.9 s;
#: only timeout 1 orders the steps.
REPRO = ProtocolParams(L=16, t=1.0, delta_map=(0.9,) + (0.15,) * 6 + (-0.9, -0.9))


def assert_windows_close_step_by_step(params):
    """Every step-j window ends before any step-(j+1) window opens, j < max_timeout.

    The full Hamming ball of any base is every ACC, so the check runs over
    all candidates at once; the cap of 20 steps keeps it fast.
    """
    for j in range(1, min(params.max_timeout, 20)):
        last_end = max(sum(slot_bounds(c, j, 0.0, params)) for c in range(params.L))
        first_start = min(slot_bounds(c, j + 1, 0.0, params)[0] for c in range(params.L))
        assert last_end <= first_start, j


class TestMaxTimeout:
    @pytest.mark.parametrize("params", [
        PARAMS,
        ProtocolParams(delta_map=tuple(-16.0 * (s - 64) / 2048.0 for s in range(129))),
        ProtocolParams(gamma_a=0.02, gamma_b=0.02),
        ProtocolParams(nu_a=1e-3, nu_b=1e-3),
        REPRO,
    ], ids=["default", "reversed", "gamma", "nu", "repro"])
    def test_windows_close_step_by_step(self, params):
        assert_windows_close_step_by_step(params)

    @given(L=st.sampled_from([4, 8, 16, 32, 64]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_windows_close_step_by_step_on_random_tables(self, L, data):
        raw = data.draw(st.lists(st.floats(-0.4, 0.4), min_size=L // 2 + 1, max_size=L // 2 + 1))
        # jitter indices 0 and L/2 each select one ACC's interval, the others two
        mean = (sum(raw) + sum(raw[1:-1])) / L
        params = ProtocolParams(L=L, t=1.0, delta_map=tuple(v - mean for v in raw))
        assert params.max_timeout >= 1
        assert_windows_close_step_by_step(params)


def test_threshold_must_be_an_integer():
    for M in (1.5, 0.5, True):
        with pytest.raises(ValueError, match="integer"):
            PairingEngine(M=M)
        with pytest.raises(ValueError, match="integer"):
            SimConfig(M=M)
        with pytest.raises(ValueError, match="integer"):
            hamming_ball(M, 256)


def test_warm_ball_cache_keeps_the_threshold_check():
    # True, 1.0 and a numpy 1 equal 1 and hash like it: they must not hit
    # the cached ball of 1
    assert len(hamming_ball(1, 256)) == 9
    for M in (True, 1.0, np.int64(1)):
        with pytest.raises(ValueError, match="threshold M must be an integer"):
            hamming_ball(M, 256)


class TestNumberRules:
    def test_largest_float_is_the_largest_finite_float(self):
        assert LARGEST_FLOAT == -math.nextafter(-math.inf, 0.0)
        assert math.isinf(math.nextafter(LARGEST_FLOAT, math.inf))

    @pytest.mark.parametrize("value", [0, 0.0, 2.5, LARGEST_FLOAT, 10**300],
                             ids=["0", "0.0", "2.5", "largest-float", "1e300-int"])
    def test_finite_nonnegative_passes(self, value):
        assert check_finite_nonnegative("x", value) is value

    @pytest.mark.parametrize("value", [-1e-300, math.nan, math.inf, HUGE, -HUGE, True, False],
                             ids=["negative", "nan", "inf", "huge", "minus-huge", "True", "False"])
    def test_finite_nonnegative_refuses(self, value):
        with pytest.raises(ValueError, match=r"^x must be finite and nonnegative, got "):
            check_finite_nonnegative("x", value)

    @pytest.mark.parametrize("value, least", [(0, 0), (1, 1), (HUGE, 1), (7, -3)],
                             ids=["0", "1", "huge", "above-a-negative-least"])
    def test_count_passes(self, value, least):
        assert check_count("k", value, least) is value

    @pytest.mark.parametrize("value", [True, False, 1.0, np.int64(1), "1", None, 0, -1])
    def test_count_refuses(self, value):
        message = f"k must be an integer >= 1, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            check_count("k", value, 1)

    @pytest.mark.parametrize("check, value, message", [
        (check_count, -10**5000, "n must be an integer >= 0, got a negative int of 16610 bits"),
        (check_finite_nonnegative, 10**5000, "n must be finite and nonnegative, got an int of "
                                             "16610 bits"),
    ], ids=["count", "finite-nonnegative"])
    def test_an_int_too_long_for_str_is_named_by_its_bit_length(self, check, value, message):
        # str() of an int of more than 4,300 digits raises its own ValueError
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check("n", value)

    def test_count_is_at_least_zero_by_default(self):
        assert check_count("k", 0) == 0
        with pytest.raises(ValueError, match=r"^k must be an integer >= 0, got -1$"):
            check_count("k", -1)


class TestJitterIndex:
    def test_examples(self):
        assert jitter_index(0x80, PARAMS) == 0
        assert jitter_index(0x40, PARAMS) == 64
        assert jitter_index(0xC0, PARAMS) == 64
        assert jitter_index(0x00, PARAMS) == 128

    @given(accs.filter(lambda x: x != 0))
    def test_symmetry(self, x):
        assert jitter_index(x, PARAMS) == jitter_index((256 - x) % 256, PARAMS)


class TestHamming:
    def test_examples(self):
        assert hamming(0x40, 0x41) == 1
        assert hamming(0x37, 0x37) == 0
        assert hamming(0x00, 0xFF) == 8


class TestNominalInterval:
    def test_single_step(self):
        assert nominal_interval(0x40, 1, PARAMS) == pytest.approx(16.0, abs=0)
        assert nominal_interval(0x80, 1, PARAMS) == pytest.approx(15.5)

    def test_zero_steps(self):
        assert nominal_interval(0x13, 0, PARAMS) == 0.0

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError, match="step count must be nonnegative, got -1"):
            nominal_interval(0, -1, PARAMS)

    def test_two_steps(self):
        assert nominal_interval(0x40, 2, PARAMS) == pytest.approx(31.9921875)

    @given(accs, st.integers(0, 20))
    def test_prefix_sum(self, x, j):
        nxt = (x + j) % 256
        expected = nominal_interval(x, j, PARAMS) + PARAMS.t + PARAMS.delta(
            jitter_index(nxt, PARAMS)
        )
        assert nominal_interval(x, j + 1, PARAMS) == pytest.approx(expected, rel=1e-12)


class TestSlotBounds:
    def test_step_one_defaults(self):
        start, width = slot_bounds(0x40, 1, 0.0, PARAMS)
        assert start == pytest.approx(15.99752, abs=1e-12)
        assert width == pytest.approx(6.24e-3, abs=1e-12)

    def test_step_two(self):
        start, width = slot_bounds(0x40, 2, 0.0, PARAMS)
        tnom = 31.9921875
        assert start == pytest.approx(tnom - (tnom * 30e-6 + 2e-3))
        assert width == pytest.approx(tnom * 140e-6 + 4e-3)

    def test_degenerate_tolerances(self):
        p = ProtocolParams(nu_a=0.0, nu_b=0.0, gamma_a=0.0, gamma_b=0.0)
        start, width = slot_bounds(0x37, 1, 0.0, p)
        assert width == 0.0
        assert start == pytest.approx(nominal_interval(0x37, 1, p))

    def test_rejects_step_zero(self):
        with pytest.raises(ValueError):
            slot_bounds(0x40, 0, 0.0, PARAMS)

    @given(accs, st.integers(1, 10))
    @settings(max_examples=200)
    def test_nominal_sits_lead_time_into_slot(self, x, j):
        start, width = slot_bounds(x, j, 0.0, PARAMS)
        tnom = nominal_interval(x, j, PARAMS)
        theta = lead_time(x, j, PARAMS)
        assert start + theta == pytest.approx(tnom, rel=1e-12)
        assert theta < width

    @given(
        accs,
        st.integers(1, 10),
        st.floats(-30e-6, 110e-6),
        st.floats(-2e-3, 2e-3),
    )
    @settings(max_examples=300)
    def test_drift_coverage(self, x, j, drift, jitter):
        start, width = slot_bounds(x, j, 0.0, PARAMS)
        arrival = nominal_interval(x, j, PARAMS) * (1.0 + drift) + jitter
        slack = 1e-9
        assert start - slack <= arrival <= start + width + slack

    def test_adjacent_jitter_slots_disjoint(self):
        # step-1 slots for neighbouring jitter indices never overlap under
        # default parameters (offset spacing 7.8125 ms > width 6.24 ms)
        for s in range(128):
            lo_start, lo_width = slot_bounds(128 + s, 1, 0.0, PARAMS)
            hi_start, _ = slot_bounds(128 + s + 1 if s < 127 else 0, 1, 0.0, PARAMS)
            assert lo_start + lo_width < hi_start


class TestWindowRow:
    @pytest.mark.parametrize("params", [
        ProtocolParams(),
        ProtocolParams(delta_map=tuple(-16.0 * (s - 64) / 2048.0 for s in range(129))),
        ProtocolParams(gamma_a=0.02, gamma_b=0.02),
    ], ids=["default", "reversed", "gamma"])
    def test_rows_are_the_uncached_windows(self, params):
        for j in range(1, min(params.max_timeout, 20) + 1):
            row = window_row(params, j)
            assert row == tuple(_window(x, j, params) for x in range(params.L))
            for x, (tnom, theta, tau) in enumerate(row):
                assert slot_bounds(x, j, 5.0, params) == (5.0 + tnom - theta, tau)

    def test_cache_is_bounded_and_rebuilds_evicted_rows(self):
        first = ProtocolParams(t=16.0)
        row = window_row(first, 1)
        for i in range(200):
            params = ProtocolParams(t=16.0 + (i + 1) * 1e-3)
            for j in range(1, 11):
                window_row(params, j)
        assert window_row.cache_info().currsize <= 256
        rebuilt = window_row(first, 1)
        assert rebuilt is not row
        assert rebuilt == row

    def test_argument_checks_survive_cached_rows(self):
        params = ProtocolParams()
        assert lead_time(0x40, 0, params) == params.gamma_a
        replay(generate_trace(SimConfig(params=params, n=3, epsilon=1 / 16, horizon=100.0)),
               PairingEngine(params, M=1))
        slot_bounds(1, 1, 0.0, params)
        with pytest.raises(ValueError, match="step must be >= 1"):
            slot_bounds(0x40, 0, 0.0, params)
        # values equal to a cached ACC or step that are not a plain int ACC
        for x in (256, -1, True, 1.0):
            with pytest.raises(ValueError, match="outside 0..255"):
                slot_bounds(x, 1, 0.0, params)
        with pytest.raises(TypeError):
            slot_bounds(1, 1.0, 0.0, params)

    def test_geometry_calls_leave_the_params_as_they_were(self):
        params = ProtocolParams()
        before = dict(vars(params))
        replay(generate_trace(SimConfig(params=params, n=3, epsilon=1 / 16, horizon=100.0)),
               PairingEngine(params, M=1))
        slot_bounds(0x40, 3, 0.0, params)
        qM(0x40, 1, 200, params)
        assert vars(params) == before
        assert set(vars(params)) == {f.name for f in fields(params)} | {"intervals", "max_timeout"}
