"""Monte-Carlo machinery: false-detection trials, memory footprint,
synthetic trace generation and trace replay.

All randomness flows through per-trial substreams derived from a single
seed, so trials are reproducible independently of execution order.  The
Monte-Carlo trials therefore run on every CPU in the process's affinity
mask, in ``multiprocessing`` fork processes (``_map_trials`` says why not a
pool), and the result does not depend on how many there are:
``taskset -c 0`` runs them serially, with the same output.

numpy is imported inside the functions that draw or summarise with it, not
at module level: ``import accpair``, ``analytic`` and ``replay`` never use
it, and loading it would be most of their start-up time and memory.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple, TypeVar

from .engine import ANALYSIS, DEPLOYMENT, PairingEngine
from .slots import PacketArrival
from .timing import ProtocolParams, check_count, check_finite_nonnegative, check_threshold
from .timing import hamming_ball, nominal_interval, shown, window_row

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    import numpy as np

#: Bit count of the modeled non-ACC packet remainder; a CRC failure can be
#: caused by any of these bits even when the ACC itself survives.
BODY_BITS = 232

#: Fewest fd trials worth a forked worker.  Starting and joining one costs
#: about 3 ms with numpy loaded, some 45 fd trials of 66 us, so 256 trials keep
#: it to about 15% of a worker's time.  A memory trial replays a whole trace,
#: some 13 ms at n = 20, so one of them is worth a worker.
MIN_TRIALS_PER_WORKER = 256

#: Fewest bytes a generated trace row or a false-detection interferer holds
#: while it is built; 150-220 and 110-150 bytes were measured.
ITEM_BYTES = 100

#: Most doubles ``generate_trace`` takes from the generator at once, so that
#: one long-lived meter never holds many times its own rows in buffered floats.
DRAW_BLOCK = 4096

#: Fewest interferer ACCs a false-detection window draws with one sized
#: ``rng.integers(0, L, k)`` call; fewer come from k scalar ``rng.integers(L)``
#: calls, which read the same buffered words and leave the same state.  A
#: sized call costs about 5.3 us at k = 1 or 2, two thirds of it in the
#: ``np.prod(size)`` it makes first, and a scalar one 1.5 us.
SIZED_ACC_DRAW = 4

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
        for name, least in (("n", 0), ("trials", 1), ("timeout", 1), ("rng_seed", 0)):
            check_count(name, getattr(self, name), least)
        for name in ("epsilon", "p", "body_error_prob"):
            value = getattr(self, name)
            if value is None and name == "body_error_prob":  # derived from epsilon
                continue
            if value is None or isinstance(value, bool) or not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        check_threshold(self.M, self.params.L)
        check_finite_nonnegative("horizon", self.horizon)
        check_finite_nonnegative("emission_jitter", self.emission_jitter)

    @property
    def effective_body_error_prob(self) -> float:
        if self.body_error_prob is not None:
            return self.body_error_prob
        if not 0 < self.epsilon < 1:  # log1p(-1) warns; 1 - (1 - eps)**BODY_BITS is eps
            return float(self.epsilon)
        import numpy as np

        return float(-np.expm1(BODY_BITS * np.log1p(-self.epsilon)))


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _refuse_beyond_memory(n: int, per_meter: float, what: str, unit: str = "meter",
                          name: str = "n") -> None:
    """Raise ``ValueError`` if ``n * per_meter`` items of ``ITEM_BYTES`` exceed physical
    memory; ``n`` counts meters, or the ``unit`` its ``name`` counts."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or not these names
        return
    if per_meter and n > memory / ITEM_BYTES / per_meter:  # exact for an int n of any size
        raise ValueError(f"{what}: about {per_meter * ITEM_BYTES:.3g} bytes per {unit} for "
                         f"{name} = {shown(n)} {unit}s would not fit in the "
                         f"{memory / 2**30:.3g} GiB of physical memory")


def check_trace_fits(cfg: SimConfig) -> None:
    """Refuse a trace of ``n * (1 + horizon / t)`` meters and scheduled packets, erased
    or not, that would not fit in physical memory as rows."""
    _refuse_beyond_memory(cfg.n, 1 + cfg.horizon / cfg.params.t,
                          f"trace rows over horizon = {cfg.horizon:g} s")


def _map_trials(trial: Callable[[SimConfig, int], T], cfg: SimConfig,
                min_per_worker: int) -> List[T]:
    """``trial(cfg, i)`` for every ``i`` in ``range(cfg.trials)``, in index order.

    Contiguous index ranges go to one process per CPU in the affinity mask, at
    most one per ``min_per_worker`` trials.  This process runs the first
    range, and its first trial before any fork, so the workers inherit what it
    loads (numpy, the window rows).  Each other range runs in a fork ``Process``
    that sends its results, or its exception, through a one-way ``Pipe``; the
    exception is re-raised here, and a worker that sends nothing is named by its
    exit status.  With one worker (one CPU, fewer than ``2 * min_per_worker``
    trials, or no ``os.fork``) the loop is serial and imports no ``multiprocessing``.
    A fork ``Pool`` would wait forever for a worker that dies, and a
    ``ProcessPoolExecutor`` loses its exit status and was slower to start.
    A trial count whose results would not fit in physical memory is refused first.
    """
    # each result holds at least its 8-byte slot in the list returned
    _refuse_beyond_memory(cfg.trials, 8 / ITEM_BYTES, "trial results", "trial", "trials")
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = max(1, min(len(os.sched_getaffinity(0)), cfg.trials // min_per_worker))
    if workers == 1:
        return [trial(cfg, i) for i in range(cfg.trials)]
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    bounds = [cfg.trials * w // workers for w in range(workers + 1)]
    results = [trial(cfg, 0)]
    started = []  # (process, read end), in range order
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_trial_worker, args=(trial, cfg, range(lo, hi), writer))
            proc.start()
            writer.close()  # only the child writes, so its exit ends the pipe
            started.append((proc, reader))
        results.extend(trial(cfg, i) for i in range(1, bounds[1]))
        for proc, reader in started:
            try:
                outcome = reader.recv()  # before join: it can exceed the pipe buffer
            except EOFError:  # it died before it sent anything
                outcome = None
            proc.join()
            if not isinstance(outcome, list):  # its exception, or None
                raise outcome or RuntimeError(f"trial worker exited with status {proc.exitcode}")
            results.extend(outcome)
        return results
    finally:
        for proc, reader in started:
            proc.kill()  # a no-op once joined
            proc.join()
            reader.close()


def _trial_worker(trial: Callable[[SimConfig, int], T], cfg: SimConfig,
                  indices: range, writer: Connection) -> None:
    """A worker process's whole job: send back the results of ``indices``, or their error."""
    try:
        outcome = [trial(cfg, i) for i in indices]
    except BaseException as exc:  # Ctrl-C too: sent, and re-raised by the parent
        outcome = exc
    writer.send(outcome)


def _flip_mask(rng: np.random.Generator, epsilon: float, L: int) -> int:
    """Random error pattern over the log2(L) ACC bits, each flipped independently."""
    if epsilon <= 0.0:
        return 0
    bits = rng.random(L.bit_length() - 1) < epsilon
    return sum(1 << i for i, flip in enumerate(bits.tolist()) if flip)


# ---------------------------------------------------------------------------
# trace generation and replay


def _draw_block(rng: np.random.Generator, carry: np.ndarray, need: int, owed: int,
                epsilon: float) -> Tuple[np.ndarray, List[float], List[int], int]:
    """``carry`` then new doubles from ``rng``, at least ``need`` in all, and as
    many of the ``owed`` sure draws as ``DRAW_BLOCK`` allows.  Returns them as an
    array and as floats, the indices of those below ``epsilon`` followed by the
    count, and the draws still owed."""
    import numpy as np

    fetch = max(need - len(carry), min(DRAW_BLOCK, owed))
    block = np.concatenate((carry, rng.random(fetch))) if len(carry) else rng.random(fetch)
    below = np.flatnonzero(block < epsilon).tolist()
    below.append(len(block))
    return block, block.tolist(), below, owed - fetch


def generate_trace(cfg: SimConfig, rng: Optional[np.random.Generator] = None) -> List[PacketArrival]:
    """Synthesize a ground-truth trace of ``cfg.n`` meters.

    Meters start with independent uniform ACCs and phases and follow the
    interval law exactly: the packet after one carrying ACC ``x`` is sent
    ``params.intervals[x]`` later with ACC ``(x + 1) % L``.  Per packet an
    erasure drops it entirely, otherwise the observed ACC gets independent
    bit flips and the CRC flag reflects ACC damage or a body error.

    Each meter draws, in order: its first ACC (``rng.integers(L)``), its
    phase (``rng.uniform(0, t)``), then per scheduled packet an erasure
    double when ``p > 0`` and, unless it is erased, a jitter double when
    ``emission_jitter > 0``, one double per ACC bit when ``epsilon > 0`` and
    a body-error double when its probability is positive.  The per-packet
    doubles come from ``rng.random`` blocks of at most ``DRAW_BLOCK``, and a
    block takes exactly the draws the meter is sure to make from there, so
    the generator yields and ends in the same state as one scalar call per
    double would leave it.
    """
    check_trace_fits(cfg)
    import numpy as np

    if rng is None:
        rng = _trial_rng(cfg.rng_seed, 0)
    params = cfg.params
    p, eps = cfg.p, cfg.epsilon
    jit_lo, jit_range = -cfg.emission_jitter, 2 * cfg.emission_jitter  # as rng.uniform has them
    body_p = cfg.effective_body_error_prob
    bits = params.L.bit_length() - 1 if eps > 0 else 0
    has_jit, has_body = jit_range > 0, body_p > 0
    rest = has_jit + bits + has_body  # doubles of a packet after its erasure double
    arrivals: List[PacketArrival] = []
    for m in range(cfg.n):
        meter = f"m{m:03d}"
        acc = int(rng.integers(params.L))
        scheduled = float(rng.uniform(0.0, params.t))
        schedule = []
        while scheduled <= cfg.horizon:
            schedule.append((scheduled, acc))
            scheduled += params.intervals[acc]
            acc = (acc + 1) % params.L
        owed = len(schedule) * (1 if p > 0 else rest)  # sure draws not yet fetched
        block, u, below, i, h = np.empty(0), [], [0], 0, 0
        for time, acc in schedule:
            if p > 0:
                if i == len(u):
                    block, u, below, owed = _draw_block(rng, block[i:], 1, owed, eps)
                    i = h = 0
                i += 1
                if u[i - 1] < p:  # erased
                    continue
                owed += rest
            if i + rest > len(u):
                block, u, below, owed = _draw_block(rng, block[i:], rest, owed, eps)
                i = h = 0
            if has_jit:
                time += jit_lo + jit_range * u[i]
                i += 1
            mask = 0  # a bit flips where its double is below eps
            while below[h] < i:
                h += 1
            while below[h] < i + bits:
                mask |= 1 << (below[h] - i)
                h += 1
            i += bits
            body_error = has_body and u[i] < body_p
            i += has_body
            arrivals.append(PacketArrival(time, acc ^ mask, mask != 0 or body_error, meter, acc))
    arrivals.sort(key=attrgetter("time", "meter_id"))
    return arrivals


def replay(trace: Iterable[PacketArrival], engine: PairingEngine) -> None:
    """Run a time-sorted trace through the caller's engine.

    The engine keeps the tally: ``engine.pairs`` counts every pairing it has
    made by step and class, before the trace too, and ``engine.unverified``
    those without ground truth on both packets.
    """
    for pkt in trace:
        engine.on_arrival(pkt)


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
    bit errors.  The k offsets are one sized draw, so an absurd k fails at
    once with ``MemoryError``, before any ACC is drawn, instead of looping in
    Python.  Fewer than ``SIZED_ACC_DRAW`` ACCs come from k scalar
    ``integers`` calls, which read the same words as one sized call.
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
                if k < SIZED_ACC_DRAW:
                    accs = [int(rng.integers(params.L)) for _ in range(k)]
                else:
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


def simulate_false_detection(cfg: SimConfig) -> Tuple[float, float]:
    """Estimate the false-detection rate by independent trials: ``(rate, std_error)``.

    Base ACCs are swept uniformly over the full range so the estimate is
    the mean over ACC values, matching how the analytic curves are
    reported.  The trials run on every CPU in the affinity mask; the
    result is the same for any CPU count.  A run whose step-1 windows expect
    more interferers than physical memory holds is refused before any trial.
    """
    params = cfg.params
    tau = max(w[2] for w in window_row(params, 1))
    _refuse_beyond_memory(cfg.n, len(hamming_ball(cfg.M, params.L)) * tau / params.t,
                          "interferers in a trial's step-1 windows")
    rate = sum(_map_trials(_fd_trial, cfg, MIN_TRIALS_PER_WORKER)) / cfg.trials
    return rate, math.sqrt(rate * (1.0 - rate) / cfg.trials)


# ---------------------------------------------------------------------------
# memory footprint


def _memory_trial(cfg: SimConfig, i: int) -> float:
    engine = PairingEngine(cfg.params, M=cfg.M, policy=DEPLOYMENT, timeout=cfg.timeout)
    replay(generate_trace(cfg, _trial_rng(cfg.rng_seed, i)), engine)
    return engine.store.peak / cfg.n if cfg.n else 0.0


def simulate_memory(cfg: SimConfig) -> Tuple[float, float]:
    """Average maximum number of simultaneously live slots per meter: ``(mean, std_error)``.

    Full transmission schedules of all meters are replayed through a
    ``DEPLOYMENT`` engine, so every arrival creates slots, mirroring how
    receiver memory is provisioned in the field; a trial's maximum is the
    store's ``peak``.  A trial costs milliseconds, more than a fork, so the
    trials run on every CPU in the affinity mask, up to one process per
    trial.  They are summarised in index order, so the result is the same
    for any CPU count.  A trace too large for physical
    memory (``check_trace_fits``) is refused before any trial starts.
    """
    check_trace_fits(cfg)
    import numpy as np

    per_trial = _map_trials(_memory_trial, cfg, 1)
    mean = float(np.mean(per_trial))
    se = float(np.std(per_trial, ddof=1) / np.sqrt(len(per_trial))) if len(per_trial) > 1 else 0.0
    return mean, se
