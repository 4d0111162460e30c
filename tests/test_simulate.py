import hashlib
import itertools
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import accpair
from accpair import simulate
from accpair.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from accpair.engine import DEPLOYMENT, PairingEngine
from accpair.simulate import (
    SIZED_ACC_DRAW,
    SimConfig,
    _false_detection_trial,
    _fd_trial,
    _flip_mask,
    _map_trials,
    _trial_rng,
    generate_trace,
    replay,
    simulate_false_detection,
    simulate_memory,
)
from accpair.slots import PacketArrival
from accpair.timing import ProtocolParams, jitter_index, nominal_interval

PARAMS = ProtocolParams()


class TestSimConfig:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            SimConfig(epsilon=1.5)
        with pytest.raises(ValueError):
            SimConfig(p=-0.1)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            SimConfig(trials=0)

    def test_body_error_prob_default(self):
        cfg = SimConfig(epsilon=1 / 32)
        assert cfg.effective_body_error_prob == pytest.approx(1 - (1 - 1 / 32) ** 232)
        assert SimConfig(epsilon=0.0).effective_body_error_prob == 0.0

    def test_body_error_prob_at_certain_bit_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert SimConfig(epsilon=1.0).effective_body_error_prob == 1.0

    def test_body_error_prob_override(self):
        assert SimConfig(epsilon=0.5, body_error_prob=0.0).effective_body_error_prob == 0.0

    @pytest.mark.parametrize(
        "bad",
        [
            {"horizon": float("inf")},
            {"horizon": float("nan")},
            {"horizon": -1.0},
            {"emission_jitter": float("inf")},
            {"emission_jitter": float("nan")},
            {"body_error_prob": 2.0},
            {"body_error_prob": -0.5},
            {"n": 2.5},
            {"n": -1},
            {"timeout": 0},
            {"trials": 10.0},
            {"timeout": True},
            {"rng_seed": 1.0},
            {"rng_seed": -1},
            {"epsilon": True},
            {"p": False},
            {"horizon": True},
            {"emission_jitter": False},
            {"body_error_prob": True},
            {"horizon": 10**400},  # an int no float can hold, refused as inf is
            {"emission_jitter": 10**400},
            {"epsilon": None},  # only body_error_prob may be None
            {"p": None},
        ],
    )
    def test_rejects_values_that_hang_or_crash_later(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SimConfig(**bad)


@pytest.mark.parametrize("run, cfg, message", [
    (simulate_false_detection, SimConfig(n=10**15, trials=1000), "interferers in a trial's"),
    (simulate_memory, SimConfig(n=5, trials=1000, horizon=1e12), "trace rows over horizon"),
    (generate_trace, SimConfig(n=10**15, horizon=0.0), "for n = 1000000000000000 meters"),
    (generate_trace, SimConfig(n=10**400), "for n = 1" + "0" * 400 + " meters"),
], ids=["fd", "memory", "trace", "trace-of-1e400-meters"])
def test_work_beyond_physical_memory_is_refused_before_any_fork(monkeypatch, run, cfg, message):
    def refuse(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(simulate, "_map_trials", refuse)
    with pytest.raises(ValueError, match=message):
        run(cfg)


def test_trial_count_beyond_physical_memory_is_refused_before_any_trial():
    def trial(cfg, i):
        raise AssertionError("a trial ran")

    message = "^trial results: about 8 bytes per trial for trials = 1000"
    with pytest.raises(ValueError, match=message):
        simulate._map_trials(trial, SimConfig(trials=10**400), simulate.MIN_TRIALS_PER_WORKER)


class TestTransmissionTimes:
    def test_interval_law(self):
        # without erasures, bit errors or jitter each row is the one before
        # it plus that row's interval, as the float sum the schedule makes
        trace = generate_trace(SimConfig(n=1, epsilon=0.0, p=0.0, horizon=300.0, rng_seed=3))
        assert len(trace) >= 18
        for a, b in zip(trace, trace[1:]):
            assert b.time == a.time + PARAMS.intervals[a.true_acc]
            assert b.true_acc == (a.true_acc + 1) % PARAMS.L


class TestGenerateTrace:
    def test_all_erased(self):
        assert generate_trace(SimConfig(n=5, p=1.0, horizon=100.0)) == []

    def test_deterministic(self):
        cfg = SimConfig(n=2, epsilon=0.1, p=0.2, horizon=120.0, rng_seed=42)
        assert generate_trace(cfg) == generate_trace(cfg)

    def test_follows_interval_law(self):
        cfg = SimConfig(n=1, horizon=100.0, rng_seed=9)
        trace = generate_trace(cfg)
        assert len(trace) >= 3
        for prev, cur in zip(trace, trace[1:]):
            expected = PARAMS.t + PARAMS.delta(jitter_index(prev.true_acc, PARAMS))
            assert cur.time - prev.time == pytest.approx(expected, rel=1e-12)
            assert cur.true_acc == (prev.true_acc + 1) % 256

    def test_zero_noise_packets_correct(self):
        trace = generate_trace(SimConfig(n=3, horizon=100.0, rng_seed=1))
        assert all(not a.erroneous and a.acc == a.true_acc for a in trace)

    def test_emission_jitter_stays_within_schedule(self):
        jitter = 0.05
        cfg = SimConfig(n=4, horizon=200.0, emission_jitter=jitter, rng_seed=6)
        trace = generate_trace(cfg)
        assert all(a.time <= b.time for a, b in zip(trace, trace[1:]))
        spreads = []
        for meter in {a.meter_id for a in trace}:
            rows = [a for a in trace if a.meter_id == meter]
            assert len(rows) >= 12
            # offset of each packet from its meter's schedule, up to the phase
            offsets = [
                a.time - nominal_interval(rows[0].true_acc, k, PARAMS)
                for k, a in enumerate(rows)
            ]
            spreads.append(max(offsets) - min(offsets))
        assert max(spreads) <= 2 * jitter + 1e-9
        assert min(spreads) > jitter  # the jitter is really applied

    def test_bit_errors_stay_within_a_small_counter(self):
        params = ProtocolParams(L=16)
        trace = generate_trace(SimConfig(params=params, n=4, epsilon=0.5, horizon=100.0))
        assert trace and all(a.acc < 16 and a.true_acc < 16 for a in trace)
        assert any(a.acc != a.true_acc for a in trace)

    def test_time_sorted_with_ground_truth(self):
        trace = generate_trace(SimConfig(n=4, horizon=100.0, rng_seed=2))
        assert all(a.time <= b.time for a, b in zip(trace, trace[1:]))
        assert all(a.meter_id is not None and a.true_acc is not None for a in trace)


class TestReplay:
    def test_single_meter_chain(self):
        trace = [
            PacketArrival(time=0.0, acc=0x40, erroneous=False, meter_id="m", true_acc=0x40),
            PacketArrival(time=16.0, acc=0x41, erroneous=False, meter_id="m", true_acc=0x41),
            PacketArrival(time=31.9921875, acc=0x42, erroneous=False, meter_id="m", true_acc=0x42),
        ]
        engine = PairingEngine(PARAMS, policy=DEPLOYMENT)
        assert replay(trace, engine) is None
        assert engine.arrivals == 3
        assert engine.pairs[0] == 2  # step 1, cc
        assert sum(engine.pairs) == 2  # both pairings, none of them false
        assert engine.unverified == 0

    def test_empty_trace(self):
        engine = PairingEngine(PARAMS)
        replay([], engine)
        assert engine.arrivals == 0
        assert not any(engine.pairs)

    def test_colliding_meters_yield_false_detection(self):
        # a second meter's packet lands in the slot set up by the first
        trace = [
            PacketArrival(time=0.0, acc=0x40, erroneous=True, meter_id="a", true_acc=0x40),
            PacketArrival(time=16.0, acc=0x41, erroneous=True, meter_id="b", true_acc=0x41),
        ]
        engine = PairingEngine(PARAMS, policy=DEPLOYMENT)
        replay(trace, engine)
        assert engine.pairs[:8] == [0, 0, 0, 1, 0, 0, 0, 1]  # one ee pairing, and it is false
        assert sum(engine.pairs) == 2
        assert engine.unverified == 0

    def test_counts_are_consistent(self):
        cfg = SimConfig(n=10, epsilon=1 / 32, horizon=300.0, rng_seed=3)
        engine = PairingEngine(cfg.params, policy=DEPLOYMENT)
        replay(generate_trace(cfg), engine)
        assert any(engine.pairs) and engine.unverified == 0
        for j in range(0, len(engine.pairs), 8):
            counts, false = engine.pairs[j:j + 4], engine.pairs[j + 4:j + 8]
            assert all(f <= c for c, f in zip(counts, false))  # each class's false ones among it


class TestSimulateFalseDetection:
    def test_no_interferers(self):
        assert simulate_false_detection(SimConfig(n=0, trials=200, rng_seed=1)) == (0.0, 0.0)

    def test_small_counter_with_bit_errors(self):
        cfg = SimConfig(params=ProtocolParams(L=16), n=400, M=1, epsilon=0.5, trials=50)
        rate, _ = simulate_false_detection(cfg)
        assert 0.0 <= rate <= 1.0

    def test_rate_sane_and_deterministic(self):
        cfg = SimConfig(n=400, M=1, trials=3000, rng_seed=5)
        first = simulate_false_detection(cfg)
        second = simulate_false_detection(cfg)
        assert first == second
        rate, se = first
        assert 0.0 < rate < 0.05
        assert se == pytest.approx((rate * (1 - rate) / cfg.trials) ** 0.5)


#: Candidate 0x0 of base 0x8 has 0.1 s intervals; only timeout 1 orders its steps.
REPRO = ProtocolParams(L=16, t=1.0, delta_map=(0.9,) + (0.15,) * 6 + (-0.9, -0.9))

#: fd settings whose per-trial outcomes the recorded digest pins; each n is
#: large enough that some trials pair falsely
FD_DIGEST_SETTINGS = (
    SimConfig(n=20000, M=0, rng_seed=1),
    SimConfig(n=2000, M=1, epsilon=1 / 32, rng_seed=2),
    SimConfig(n=400, M=2, p=0.3, rng_seed=3),
    SimConfig(n=2000, M=1, emission_jitter=0.01, rng_seed=4),
    SimConfig(params=ProtocolParams(gamma_a=0.02, gamma_b=0.02), n=2000, M=1, rng_seed=5),
    SimConfig(params=REPRO, n=40, M=1, timeout=1, rng_seed=6),
)


def test_false_detection_outcomes_match_recorded_digest():
    # every trial's outcome, drawn as simulate_false_detection draws it
    digest = hashlib.sha256()
    for cfg in FD_DIGEST_SETTINGS:
        outcomes = bytes(
            _false_detection_trial(cfg, i % cfg.params.L, _trial_rng(cfg.rng_seed, i))
            for i in range(500)
        )
        assert 0 < sum(outcomes) < len(outcomes)
        digest.update(outcomes)
    assert digest.hexdigest() == "6312518d6747a49808c7274913ae0863caae85ca5172b4a33c424f559a95f760"


def test_false_detection_draws_match_recorded_digest():
    # the generator state after every trial pins what a trial draws and in
    # which order, not just the outcome; at n=20000, M=1 most merged windows
    # draw two or more interferers.  200 trials per setting keep it fast.
    settings = FD_DIGEST_SETTINGS + (SimConfig(n=20000, M=1, epsilon=1 / 32, rng_seed=7),)
    digest = hashlib.sha256()
    for cfg in settings:
        for i in range(200):
            rng = _trial_rng(cfg.rng_seed, i)
            outcome = _false_detection_trial(cfg, i % cfg.params.L, rng)
            digest.update(repr((outcome, rng.bit_generator.state)).encode())
    assert digest.hexdigest() == "42a4bde957d1e23571543da02bcc8d092536a9e502ef7ef31f7cc13c5e691d49"


class CountingGenerator:
    """Forwards every call to ``rng`` and counts its sized and scalar ``integers`` calls."""

    def __init__(self, rng):
        self.rng, self.sized, self.scalar = rng, 0, 0

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def integers(self, *args):
        if len(args) > 2:
            self.sized += 1
        else:
            self.scalar += 1
        return self.rng.integers(*args)


def test_draws_digest_covers_both_acc_draws():
    # the draws digest's n=20000, M=1 setting has windows with fewer than
    # SIZED_ACC_DRAW arrivals and windows with more, so it pins both ways
    # the trial draws interferer ACCs
    cfg = SimConfig(n=20000, M=1, epsilon=1 / 32, rng_seed=7)
    counted = CountingGenerator(None)
    for i in range(200):
        counted.rng, raw = _trial_rng(cfg.rng_seed, i), _trial_rng(cfg.rng_seed, i)
        outcome = _false_detection_trial(cfg, i % cfg.params.L, counted)
        assert outcome == _false_detection_trial(cfg, i % cfg.params.L, raw), i
        assert counted.rng.bit_generator.state == raw.bit_generator.state, i
    assert counted.sized and counted.scalar, (counted.sized, counted.scalar)


#: trace settings whose rows the recorded digest pins: erasures, jitter, a
#: fixed body-error probability, every ACC bit flipped, a 16-value counter,
#: and single meters whose draws span several of generate_trace's blocks
GEN_DIGEST_SETTINGS = (
    SimConfig(n=7, epsilon=1 / 32, p=0.1, emission_jitter=0.01, horizon=300.0, rng_seed=1),
    SimConfig(n=7, epsilon=1 / 32, p=0.7, body_error_prob=0.3, horizon=300.0, rng_seed=2),
    SimConfig(n=7, epsilon=1 / 32, p=1.0, emission_jitter=0.01, horizon=300.0, rng_seed=3),
    SimConfig(n=7, p=0.1, emission_jitter=0.01, horizon=300.0, rng_seed=4),
    SimConfig(n=7, epsilon=1.0, body_error_prob=0.0, emission_jitter=0.01, horizon=300.0,
              rng_seed=5),
    SimConfig(params=ProtocolParams(L=16), n=7, epsilon=0.25, p=0.1, body_error_prob=0.3,
              horizon=300.0, rng_seed=6),
    SimConfig(n=1, epsilon=1 / 32, emission_jitter=0.01, horizon=20000.0, rng_seed=7),
    SimConfig(n=1, epsilon=1 / 32, p=0.1, horizon=70000.0, rng_seed=8),
)


def test_generated_rows_match_recorded_digest():
    # every row, and the generator state after the trace, so a change in
    # what generate_trace draws or in which order shows here
    digest = hashlib.sha256()
    for cfg in GEN_DIGEST_SETTINGS:
        rng = _trial_rng(cfg.rng_seed, 0)
        trace = generate_trace(cfg, rng)
        for a in trace:
            digest.update(repr((a.time, a.acc, a.erroneous, a.meter_id, a.true_acc)).encode())
        digest.update(repr(rng.bit_generator.state).encode())
    assert digest.hexdigest() == "2ba0a7e4e511e4ad450d0ecd4123a71e114301f7a1f95ce92e35972c57a875f9"



def scalar_trace(cfg, rng):
    """generate_trace with one scalar call per draw: the reference for its blocks."""
    params, body_p = cfg.params, cfg.effective_body_error_prob
    arrivals = []
    for m in range(cfg.n):
        acc = int(rng.integers(params.L))
        scheduled = float(rng.uniform(0.0, params.t))
        while scheduled <= cfg.horizon:
            if cfg.p == 0 or rng.random() >= cfg.p:
                time = scheduled
                if cfg.emission_jitter > 0:
                    time += float(rng.uniform(-cfg.emission_jitter, cfg.emission_jitter))
                mask = _flip_mask(rng, cfg.epsilon, params.L)
                body_error = body_p > 0 and rng.random() < body_p
                arrivals.append(PacketArrival(time, acc ^ mask, mask != 0 or body_error,
                                              f"m{m:03d}", acc))
            scheduled += params.intervals[acc]
            acc = (acc + 1) % params.L
    arrivals.sort(key=lambda a: (a.time, a.meter_id))
    return arrivals


def test_blocks_draw_what_scalar_calls_draw():
    grid = itertools.product((16, 256), (0.0, 1 / 32, 1.0), (0.0, 0.3, 1.0), (0.0, 0.01),
                             (None, 0.0, 0.3))
    configs = [SimConfig(params=ProtocolParams(L=L), n=5, epsilon=eps, p=p, emission_jitter=jit,
                         body_error_prob=body, horizon=200.0, rng_seed=11)
               for L, eps, p, jit, body in grid]
    configs += [SimConfig(n=1, epsilon=1 / 32, p=p, horizon=70000.0, rng_seed=12) for p in (0, 0.1)]
    for cfg in configs:
        blocks, scalar = _trial_rng(cfg.rng_seed, 0), _trial_rng(cfg.rng_seed, 0)
        assert generate_trace(cfg, blocks) == scalar_trace(cfg, scalar), cfg
        assert blocks.bit_generator.state == scalar.bit_generator.state, cfg


@pytest.mark.parametrize("L", (2, 16, 256, 4096))
def test_scalar_integers_draw_what_one_sized_call_draws(L):
    # numpy buffers the upper half of a uint32 word between bounded-int
    # calls; the fd trial's few-ACC windows rely on k scalar calls reading
    # the same words as one sized call of k, across a random() in between
    assert SIZED_ACC_DRAW <= 8  # every k the trial draws by scalar calls is covered
    scalar, sized = np.random.default_rng(L), np.random.default_rng(L)
    scalar.random()
    sized.random()
    for k in range(9):
        assert [int(scalar.integers(L)) for _ in range(k)] == sized.integers(0, L, k).tolist(), k
        assert scalar.bit_generator.state == sized.bit_generator.state, k
        scalar.random()
        sized.random()


class TestSimulateMemory:
    def test_exact_slot_counts_without_noise(self):
        for m, expected in ((0, 1.0), (1, 9.0)):
            cfg = SimConfig(n=5, M=m, trials=2, horizon=120.0, rng_seed=3)
            assert simulate_memory(cfg)[0] == expected

    def test_bit_errors_inflate_memory(self):
        cfg = SimConfig(n=5, M=1, epsilon=2 / 32, trials=2, horizon=120.0, rng_seed=3)
        assert simulate_memory(cfg)[0] > 9.0


def use_cpus(monkeypatch, count):
    """Make the trial helper see ``count`` CPUs and fork for a single trial."""
    monkeypatch.setattr(simulate, "MIN_TRIALS_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the trials run serially without os.fork")
class TestParallelTrials:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_ranges_run_in_workers_and_come_back_in_index_order(self, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        cfg = SimConfig(trials=1001)
        results = _map_trials(lambda cfg, i: (i, os.getpid()), cfg, 1)
        assert [i for i, _ in results] == list(range(1001))
        pids = list(dict.fromkeys(pid for _, pid in results))
        assert len(pids) == cpus
        assert pids[0] == os.getpid()  # this process runs the first range
        assert_no_child_left()

    def test_fd_report_is_the_same_for_any_cpu_count(self, monkeypatch):
        cfg = SimConfig(n=400, M=1, trials=1001, rng_seed=9)
        reports = []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            reports.append(simulate_false_detection(cfg))
        assert reports[0][0] > 0
        assert reports[1] == reports[0] and reports[2] == reports[0]
        assert _map_trials(_fd_trial, cfg, 1) == [_fd_trial(cfg, i) for i in range(cfg.trials)]

    def test_memory_matches_recorded_value_on_three_workers(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        assert simulate_memory(
            SimConfig(n=20, M=1, epsilon=2 / 32, trials=3, horizon=200.0, rng_seed=3)
        ) == (27.616666666666664, 0.7822687801800888)

    def test_cli_writes_the_same_bytes_for_any_cpu_count(self, monkeypatch, tmp_path):
        outputs = []
        for cpus in (1, 3):
            use_cpus(monkeypatch, cpus)
            out = tmp_path / f"fd{cpus}.csv"
            assert main(["simulate", "--kind", "fd", "--n", "400", "--M", "1",
                         "--trials", "600", "--seed", "4", "--out", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("exc, code", [(ValueError, EXIT_USAGE), (MemoryError, EXIT_INTERNAL)])
    def test_worker_error_is_raised_with_its_type(self, monkeypatch, tmp_path, exc, code):
        use_cpus(monkeypatch, 3)

        def trial(cfg, i):
            if i == 2 and os.getpid() != parent:  # in the last worker's range
                raise exc("trial 2 failed")
            return False

        parent = os.getpid()
        monkeypatch.setattr(simulate, "_fd_trial", trial)
        with pytest.raises(exc, match="trial 2 failed"):
            simulate_false_detection(SimConfig(trials=3))
        assert_no_child_left()
        assert main(["simulate", "--kind", "fd", "--trials", "3",
                     "--out", str(tmp_path / "fd.csv")]) == code
        assert not (tmp_path / "fd.csv").exists()
        assert_no_child_left()

    def test_error_in_the_first_range_reaps_every_worker(self, monkeypatch):
        use_cpus(monkeypatch, 3)

        def trial(cfg, i):
            if i == 1:  # in this process's range, after the forks
                raise ValueError("trial 1 failed")
            return False

        monkeypatch.setattr(simulate, "_fd_trial", trial)
        with pytest.raises(ValueError, match="trial 1 failed"):
            simulate_false_detection(SimConfig(trials=6))
        assert_no_child_left()

    @pytest.mark.parametrize("die, status", [
        (lambda: os._exit(3), "3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "-9"),
    ], ids=["exit-3", "sigkill"])
    def test_worker_that_dies_without_a_result_names_its_status(self, monkeypatch, die, status):
        use_cpus(monkeypatch, 2)
        parent = os.getpid()

        def trial(cfg, i):
            if os.getpid() != parent:
                die()
            return False

        monkeypatch.setattr(simulate, "_fd_trial", trial)
        with pytest.raises(RuntimeError, match=f"status {status}"):
            simulate_false_detection(SimConfig(trials=2))
        assert_no_child_left()

    def test_worker_results_larger_than_a_pipe_buffer(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        results = _map_trials(lambda cfg, i: bytes(1000), SimConfig(trials=300), 1)
        assert results == [bytes(1000)] * 300
        assert_no_child_left()

    def test_buffered_output_is_written_once(self):
        script = (
            "import os, sys\n"
            "from accpair import simulate\n"
            "simulate.MIN_TRIALS_PER_WORKER = 1\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "sys.stdout = open(1, 'w', buffering=65536, closefd=False)  # block-buffered\n"
            "sys.stdout.write('unflushed\\n')\n"
            "simulate.simulate_false_detection(simulate.SimConfig(n=400, M=1, trials=30))\n"
        )
        src = str(Path(accpair.__file__).resolve().parents[1])
        child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert (child.returncode, child.stderr) == (0, "")
        assert child.stdout == "unflushed\n"

    def test_serial_trials_do_not_import_multiprocessing(self):
        script = (
            "import os, sys\n"
            "from accpair import simulate\n"
            "os.sched_getaffinity = lambda pid: {0}\n"
            "simulate.simulate_false_detection(simulate.SimConfig(n=400, M=1, trials=600))\n"
            "print('multiprocessing' in sys.modules)\n"
        )
        src = str(Path(accpair.__file__).resolve().parents[1])
        child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert (child.returncode, child.stderr, child.stdout) == (0, "", "False\n")
