"""Monte-Carlo machinery: false-detection trials, memory footprint,
synthetic trace generation and trace replay.

All randomness flows through per-trial substreams derived from a single
seed, so trials are reproducible independently of execution order.  The
Monte-Carlo trials therefore run on every CPU in the process's affinity
mask, in forked workers, and the result does not depend on how many there
are: ``taskset -c 0`` runs them serially, with the same output.

numpy is imported inside the functions that draw or summarise with it, not
at module level: ``import accpair``, ``analytic`` and ``replay`` never use
it, and loading it would be most of their start-up time and memory.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, List, NoReturn, Optional, Tuple, TypeVar

from .engine import ANALYSIS, DEPLOYMENT, PairingEngine
from .slots import PacketArrival
from .timing import ProtocolParams, check_acc, check_finite_nonnegative, check_threshold
from .timing import nominal_interval

if TYPE_CHECKING:
    import numpy as np

#: Bit count of the modeled non-ACC packet remainder; a CRC failure can be
#: caused by any of these bits even when the ACC itself survives.
BODY_BITS = 232

#: Fewest trials worth a forked worker.  A fork, exit and waitpid round trip
#: costs about 2 ms with numpy loaded, some 26 fd trials of 80 us, so 256
#: trials keep it to about 10% of a worker's time.
MIN_TRIALS_PER_WORKER = 256

T = TypeVar("T")


@dataclass
class SimConfig:
    """Configuration shared by all simulation entry points."""

    params: ProtocolParams = field(default_factory=ProtocolParams)
    n: int = 200                  # meters in range of the receiver
    M: int = 0                    # pairing threshold, total tolerated bit errors, 0..log2(L)
    epsilon: float = 0.0          # per-bit error probability on received ACCs
    p: float = 0.0                # packet erasure probability
    trials: int = 1000
    horizon: float = 600.0        # seconds of trace generate_trace makes
    timeout: int = 10             # maximum virtual-slot step count
    emission_jitter: float = 0.0  # half-range of per-packet send-time jitter
    rng_seed: int = 0
    body_error_prob: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("n", "trials", "timeout", "rng_seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("epsilon", "p", "horizon", "emission_jitter", "body_error_prob"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be nonnegative, got {self.rng_seed}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.n < 0:
            raise ValueError(f"meter count must be nonnegative, got {self.n}")
        check_threshold(self.M, self.params.L)
        if self.timeout < 1:
            raise ValueError(f"timeout must be >= 1, got {self.timeout}")
        check_finite_nonnegative("horizon", self.horizon)
        check_finite_nonnegative("emission_jitter", self.emission_jitter)
        if self.body_error_prob is not None and not 0.0 <= self.body_error_prob <= 1.0:
            raise ValueError(f"body_error_prob must be in [0, 1], got {self.body_error_prob}")

    @property
    def effective_body_error_prob(self) -> float:
        if self.body_error_prob is not None:
            return self.body_error_prob
        if not 0 < self.epsilon < 1:  # log1p(-1) warns; 1 - (1 - eps)**BODY_BITS is eps
            return float(self.epsilon)
        import numpy as np

        return -np.expm1(BODY_BITS * np.log1p(-self.epsilon))


@dataclass
class StepCounts:
    """Pairing tallies for one step value, Correct/Erroneous by class."""

    step: int
    cc: int = 0
    ce: int = 0
    ec: int = 0
    ee: int = 0
    ee_false: int = 0
    false_pairs: int = 0

    @property
    def pairings(self) -> int:
        return self.cc + self.ce + self.ec + self.ee

    @property
    def fd_percent(self) -> float:
        """False pairings as a percentage of all pairings at this step."""
        return 100.0 * self.false_pairs / self.pairings if self.pairings else 0.0


@dataclass
class SimReport:
    """Aggregated result of a simulation or replay run."""

    trials: int = 1
    fd_rate: Optional[float] = None
    fd_std_error: Optional[float] = None
    memory_per_meter: Optional[float] = None
    memory_std_error: Optional[float] = None
    per_step: Optional[List[StepCounts]] = None
    truth_available: bool = False

    @property
    def total_pairings(self) -> int:
        return sum(s.pairings for s in self.per_step) if self.per_step else 0


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _map_trials(trial: Callable[[SimConfig, int], T], cfg: SimConfig) -> List[T]:
    """``trial(cfg, i)`` for every ``i`` in ``range(cfg.trials)``, in index order.

    Contiguous index ranges go to one process per CPU in the affinity mask,
    at most one per ``MIN_TRIALS_PER_WORKER`` trials.  This process runs the
    first range, and its first trial before any fork, so the workers inherit
    what that trial loads (numpy, the window rows).  Each other range runs in
    a forked child that pickles its results, or its exception, to a pipe; the
    exception is re-raised here with its own type.  With one worker (one
    CPU, fewer than ``2 * MIN_TRIALS_PER_WORKER`` trials, or no ``os.fork``)
    the one range is the plain serial loop and nothing is forked.

    The workers are forked by hand because a ``multiprocessing`` fork
    ``Pool`` waits forever for a worker that dies, and was no faster.
    """
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = max(1, min(len(os.sched_getaffinity(0)), cfg.trials // MIN_TRIALS_PER_WORKER))
    import pickle
    import signal

    bounds = [cfg.trials * w // workers for w in range(workers + 1)]
    results = [trial(cfg, 0)]
    pids: List[int] = []  # children not yet reaped, in range order
    pipes = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _trial_worker(trial, cfg, range(lo, hi), write_fd)
            finally:
                os.close(write_fd)  # only the child writes
            pids.append(pid)
        results.extend(trial(cfg, i) for i in range(1, bounds[1]))
        for pipe in pipes:
            data = pipe.read()  # all of it before waitpid: it can exceed the pipe buffer
            code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]
            if code != 0:
                raise RuntimeError(f"trial worker exited with status {code} and sent no result")
            kind, value = pickle.loads(data)
            if kind == "error":
                raise value
            results.extend(value)
        return results
    finally:
        for pid in pids:  # unreaped, so at worst a zombie: kill cannot miss
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _trial_worker(trial: Callable[[SimConfig, int], T], cfg: SimConfig,
                  indices: range, write_fd: int) -> NoReturn:
    """A forked child's whole life: run ``indices``, pickle the outcome, exit.

    It leaves through ``os._exit`` whatever happens, so it never returns into
    the parent's frames nor flushes a buffer the parent also holds.
    """
    import pickle

    status = 1
    try:
        try:
            payload = ("ok", [trial(cfg, i) for i in indices])
        except Exception as exc:
            payload = ("error", exc)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(payload, pipe)
        status = 0
    finally:
        os._exit(status)


def _flip_mask(rng: np.random.Generator, epsilon: float, L: int) -> int:
    """Random error pattern over the log2(L) ACC bits, each flipped independently."""
    if epsilon <= 0.0:
        return 0
    bits = rng.random(L.bit_length() - 1) < epsilon
    return sum(1 << i for i, flip in enumerate(bits.tolist()) if flip)


# ---------------------------------------------------------------------------
# trace generation and replay


def transmission_times(acc0: int, start: float, horizon: float, params: ProtocolParams):
    """Yield (time, acc) of scheduled transmissions up to ``horizon``.

    Follows the interval law exactly: each interval is the mean interval
    plus the jitter offset selected by the current ACC.
    """
    time, acc = start, check_acc(acc0, params.L)
    while time <= horizon:
        yield time, acc
        time += params.intervals[acc]
        acc = (acc + 1) % params.L


def generate_trace(cfg: SimConfig, rng: Optional[np.random.Generator] = None) -> List[PacketArrival]:
    """Synthesize a ground-truth trace of ``cfg.n`` meters.

    Meters start with independent uniform ACCs and phases; per packet an
    erasure drops it entirely, otherwise the observed ACC gets independent
    bit flips and the CRC flag reflects ACC damage or a body error.
    """
    if rng is None:
        rng = _trial_rng(cfg.rng_seed, 0)
    params = cfg.params
    body_p = cfg.effective_body_error_prob
    arrivals: List[PacketArrival] = []
    for m in range(cfg.n):
        meter = f"m{m:03d}"
        acc0 = int(rng.integers(params.L))
        phase = float(rng.uniform(0.0, params.t))
        for scheduled, acc in transmission_times(acc0, phase, cfg.horizon, params):
            if cfg.p > 0 and rng.random() < cfg.p:
                continue  # erased
            time = scheduled
            if cfg.emission_jitter > 0:
                time += float(rng.uniform(-cfg.emission_jitter, cfg.emission_jitter))
            mask = _flip_mask(rng, cfg.epsilon, params.L)
            body_error = body_p > 0 and rng.random() < body_p
            arrivals.append(
                PacketArrival(
                    time=time,
                    acc=acc ^ mask,
                    erroneous=mask != 0 or body_error,
                    meter_id=meter,
                    true_acc=acc,
                )
            )
    arrivals.sort(key=lambda a: (a.time, a.meter_id))
    return arrivals


def replay(trace: Iterable[PacketArrival], engine: PairingEngine) -> SimReport:
    """Run a time-sorted trace through the caller's engine and tabulate.

    The engine keeps the tally.  Its ``pairs`` become one ``StepCounts``
    row per step up to its timeout, counting every pairing it has made,
    before the trace too.  ``truth_available`` is set when at least one
    pairing happened and every one had ground truth on both packets.
    """
    for pkt in trace:
        engine.on_arrival(pkt)
    p = engine.pairs
    steps = [StepCounts(j // 8 + 1, *p[j:j + 4], ee_false=p[j + 7],
                        false_pairs=sum(p[j + 4:j + 8])) for j in range(0, len(p), 8)]
    return SimReport(trials=1, per_step=steps, truth_available=engine.unverified == 0 and any(p))


# ---------------------------------------------------------------------------
# false-detection trials


def _false_detection_trial(cfg: SimConfig, base_true_acc: int, rng: np.random.Generator) -> bool:
    """One trial: does an interferer pair with the base packet's slots?

    The base packet is received erroneously at time zero; interference is a
    Poisson stream of rate n/t with uniform ACCs, sampled on the live slot
    windows (arrivals elsewhere cannot interact with the store).  The
    genuine next packets follow the true ACC path, subject to erasure and
    ACC bit errors.  ``ProtocolParams.max_timeout`` makes every step-j
    window of the base close before any step-(j+1) window opens, so the
    windows live at the start of pass j are exactly the step-j windows.

    The draws from ``rng`` come in a fixed order, which a recorded digest
    of the generator state pins.  First the base's bit errors (when
    epsilon > 0) and its jitter (when jitter > 0).  Then, per step: one
    Poisson count per merged window, in time order; then, per window with
    k > 0 arrivals, k uniform offsets and then k ACCs; then the genuine
    packet's erasure (when p > 0) and, unless it is erased, its jitter and
    bit errors.  The k draws are sized, so an absurd k fails at once with
    ``MemoryError`` instead of looping in Python.
    """
    params = cfg.params
    lam = cfg.n / params.t
    jit = cfg.emission_jitter
    engine = PairingEngine(params, M=cfg.M, policy=ANALYSIS, timeout=cfg.timeout)
    y = base_true_acc ^ _flip_mask(rng, cfg.epsilon, params.L)
    engine.on_arrival(PacketArrival(time=0.0, acc=y, erroneous=True, meter_id="base"))
    base_jit = float(rng.uniform(-jit, jit)) if jit > 0 else 0.0

    step = 0
    while engine.live_slots:
        step += 1
        segments = engine.store.windows()
        counts = [rng.poisson(lam * (b - a)) for a, b in segments]

        events: List[Tuple[float, int, bool]] = []
        for (a, b), k in zip(segments, counts):
            if k:
                times = rng.random(k).tolist()
                accs = rng.integers(0, params.L, k).tolist()
                events.extend((a + u * (b - a), acc, False) for u, acc in zip(times, accs))
        if cfg.p == 0 or rng.random() >= cfg.p:
            t_true = nominal_interval(base_true_acc, step, params)
            if jit > 0:
                t_true += float(rng.uniform(-jit, jit)) - base_jit
            acc_true = ((base_true_acc + step) % params.L) ^ _flip_mask(rng, cfg.epsilon, params.L)
            if any(a <= t_true < b for a, b in segments):
                events.append((t_true, acc_true, True))
        events.sort(key=lambda e: e[0])

        for time, acc, genuine in events:
            out = engine.on_arrival(
                PacketArrival(time=time, acc=acc, erroneous=False,
                              meter_id="base" if genuine else "bg")
            )
            if out.kind == "pair":
                return bool(out.is_false)
        # no half-open window holds the latest window end, so this finds no
        # slot and only moves the base on to its next step
        engine.store.slots_containing(segments[-1][1])
    return False


def _fd_trial(cfg: SimConfig, i: int) -> bool:
    return _false_detection_trial(cfg, i % cfg.params.L, _trial_rng(cfg.rng_seed, i))


def simulate_false_detection(cfg: SimConfig) -> SimReport:
    """Estimate the false-detection rate by independent trials.

    Base ACCs are swept uniformly over the full range so the estimate is
    the mean over ACC values, matching how the analytic curves are
    reported.  The trials run on every CPU in the affinity mask; the
    report is the same for any CPU count.
    """
    rate = sum(_map_trials(_fd_trial, cfg)) / cfg.trials
    return SimReport(
        trials=cfg.trials,
        fd_rate=rate,
        fd_std_error=math.sqrt(rate * (1.0 - rate) / cfg.trials),
    )


# ---------------------------------------------------------------------------
# memory footprint


def _memory_trial(cfg: SimConfig, i: int) -> float:
    engine = PairingEngine(cfg.params, M=cfg.M, policy=DEPLOYMENT, timeout=cfg.timeout)
    replay(generate_trace(cfg, _trial_rng(cfg.rng_seed, i)), engine)
    return engine.store.peak / cfg.n if cfg.n else 0.0


def simulate_memory(cfg: SimConfig) -> SimReport:
    """Average maximum number of simultaneously live slots per meter.

    Full transmission schedules of all meters are replayed through a
    ``DEPLOYMENT`` engine, so every arrival creates slots, mirroring how
    receiver memory is provisioned in the field; a trial's maximum is the
    store's ``peak``.  ``MIN_TRIALS_PER_WORKER`` was set by the fd trial's
    cost, so a run of fewer than ``2 * MIN_TRIALS_PER_WORKER`` trials, as
    memory runs usually are, stays serial; a longer one runs on every CPU
    in the affinity mask.  The trials are summarised in index order, so the
    report is the same for any CPU count.
    """
    import numpy as np

    per_trial = _map_trials(_memory_trial, cfg)
    mean = float(np.mean(per_trial))
    se = float(np.std(per_trial, ddof=1) / np.sqrt(len(per_trial))) if len(per_trial) > 1 else 0.0
    return SimReport(
        trials=cfg.trials,
        memory_per_meter=mean,
        memory_std_error=se,
    )
