"""Monte-Carlo machinery: false-detection trials, memory footprint,
synthetic trace generation and trace replay.

All randomness flows through per-trial substreams derived from a single
seed, so trials are reproducible independently of execution order: trial
``i`` draws from numpy's PCG64 seeded by ``SeedSequence(entropy=seed,
spawn_key=(i,))``.  The fd trials derive these states a block of indices at
a time in one numpy pass (``_trial_states``).  One generator and one pairing
engine per process serve them (``_fd_context``): each trial re-seeds the
generator and resets the engine, so it draws and decides as on new ones.
The Monte-Carlo trials therefore run on every CPU in
the process's affinity mask, in ``multiprocessing`` fork processes
(``_map_trials`` says why not a pool), and the result does not depend on
how many there are: ``taskset -c 0`` runs them serially, with the same
output.

numpy is imported inside the functions that draw or summarise with it, not
at module level: ``import accpair``, ``analytic`` and ``replay`` never use
it, and loading it would be most of their start-up time and memory.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

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
#: about 3 ms with numpy loaded, some 75 fd trials of 35-42 us at n = 400 and
#: M = 1 (2 shared cores), so 256 trials keep it under a quarter of a worker's
#: time.  A memory trial replays a whole trace, some 13 ms at n = 20, so one of
#: them is worth a worker.
MIN_TRIALS_PER_WORKER = 256

#: Fewest bytes a generated trace row or a false-detection interferer holds
#: while it is built; 220-315 and 110-150 bytes were measured.
ITEM_BYTES = 100

#: Doubles ``generate_trace`` holds before a numpy pass makes their packets
#: rows, at the end of a meter, and most doubles one erasure-walk block draws.
DRAW_BLOCK = 4096

#: Fewest interferer ACCs a false-detection window draws with one sized
#: ``rng.integers(0, L, k)`` call; fewer come from k scalar ``rng.integers(L)``
#: calls, which read the same buffered words and leave the same state.  A
#: sized call costs about 5.3 us at k = 1 or 2, two thirds of it in the
#: ``np.prod(size)`` it makes first, and a scalar one 1.5 us.
SIZED_ACC_DRAW = 4

#: Trial indices whose generator states ``_trial_states`` derives in one numpy
#: pass; a divisor of 2**32, so a block's indices have the same number of words.
TRIAL_BLOCK = 256

#: numpy's ``SeedSequence`` hash constants (NEP 19) and PCG64's multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32, _MASK128 = 0xCA01F9DD, 0x4973F715, 2**32 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

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


def _words(x: int) -> List[int]:
    """numpy's 32-bit words of a nonnegative int, lowest first; ``[0]`` for 0."""
    return [x >> shift & _MASK32 for shift in range(0, max(x.bit_length(), 1), 32)]


@lru_cache(maxsize=1)
def _trial_states(seed: int, block: int) -> List[Tuple[int, int]]:
    """PCG64's ``(state, inc)`` seeded by ``SeedSequence(entropy=seed, spawn_key=(i,))``,
    for the ``TRIAL_BLOCK`` indices ``i`` of ``block`` in order.

    numpy's hash (``mix_entropy`` into a pool of 4 words, then ``generate_state(4,
    uint64)``) runs with the seed's words as Python ints and each index's lowest
    word as one uint32 array, which wraps as numpy's uint32 words do; then PCG64's
    ``srandom`` in Python ints, mod 2**128.  A block starts at a multiple of
    ``TRIAL_BLOCK``, so its indices share every word above the lowest.
    """
    import numpy as np

    lo = block * TRIAL_BLOCK
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32) & _MASK32
        return value ^ value >> 16

    run = _words(seed)
    low = np.arange(lo & _MASK32, (lo & _MASK32) + TRIAL_BLOCK, dtype=np.uint32)
    entropy = run + [0] * (4 - len(run)) + [low] + _words(lo)[1:]
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B  # generate_state: 8 uint32 words, two per uint64, lowest first
    out = [hashmix(pool[k % 4], _MULT_B).astype(np.uint64) for k in range(8)]
    states = []  # PCG64's initstate and initseq are the first and last two uint64s
    words64 = ((out[k] | out[k + 1] << 32).tolist() for k in range(0, 8, 2))
    for s_hi, s_lo, q_hi, q_lo in zip(*words64):
        inc = (q_hi << 65 | q_lo << 1 | 1) & _MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def _trial_rng(seed: int, index: int,
               rng: Optional[np.random.Generator] = None) -> np.random.Generator:
    """numpy's PCG64 generator seeded by ``SeedSequence(entropy=seed, spawn_key=(index,))``:
    ``rng`` re-seeded from its block's ``_trial_states``, or a new generator that numpy
    seeds, which spares a lone generator the hash of a whole block."""
    if rng is None:
        import numpy as np

        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    state, inc = _trial_states(seed, index // TRIAL_BLOCK)[index % TRIAL_BLOCK]
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return rng


@lru_cache(maxsize=1)
def _fd_context(params: ProtocolParams, M: int, timeout: int) -> Tuple[
        np.random.Generator, PairingEngine, Dict[int, List[Tuple[float, float]]]]:
    """What a process's fd trials at these settings share, one trial after another:
    the generator each re-seeds, the engine each resets, and the step-1 windows of
    each observed base ACC, which a base received at time 0 fixes."""
    return _trial_rng(0, 0), PairingEngine(params, M=M, policy=ANALYSIS, timeout=timeout), {}


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
    a body-error double when its probability is positive.  Without erasures
    a meter's doubles are one ``rng.random`` call; with them, blocks of at
    most ``DRAW_BLOCK`` that take exactly the draws the meter is sure to
    make.  So the generator ends as one scalar call per double would leave
    it.  Kept packets become rows in one numpy pass per ``DRAW_BLOCK``
    doubles or so, sorted once by time, then meter id as a string.
    """
    check_trace_fits(cfg)
    import numpy as np

    rng = _trial_rng(cfg.rng_seed, 0) if rng is None else rng
    params, p, eps, jit = cfg.params, cfg.p, cfg.epsilon, cfg.emission_jitter
    body_p = cfg.effective_body_error_prob
    bits, has_jit = (params.L.bit_length() - 1 if eps > 0 else 0), int(jit > 0)
    rest = has_jit + bits + (body_p > 0)  # doubles of a packet after its erasure double
    ids = [f"m{m:03d}" for m in range(cfg.n)]
    # per kept packet: scheduled time, ACC, meter, and its rest doubles
    times, accs, meters, drawn, columns = [], [], [], [], []

    def rows():  # the kept packets' time, observed ACC, erroneous flag, true ACC, meter
        time, acc = np.array(times, dtype=float), np.array(accs, dtype=np.int64)
        mask, erroneous = np.zeros_like(acc), np.zeros(len(acc), dtype=bool)
        if times:
            u = np.concatenate(drawn).reshape(len(times), rest)
            if has_jit:  # rng.uniform(-jit, jit)'s operations, then the addition
                time = time + (-jit + 2 * jit * u[:, 0])
            if bits:  # a bit flips where its double is below epsilon
                mask = (u[:, has_jit:has_jit + bits] < eps) @ (1 << np.arange(bits))
            if body_p > 0:
                erroneous = u[:, -1] < body_p
        return time, acc ^ mask, erroneous | (mask != 0), acc, np.array(meters, dtype=np.int64)

    for m in range(cfg.n):
        acc = int(rng.integers(params.L))
        scheduled = float(rng.uniform(0.0, params.t))
        first = len(times)
        while scheduled <= cfg.horizon:
            times.append(scheduled)
            accs.append(acc)
            scheduled += params.intervals[acc]
            acc = (acc + 1) % params.L
        if p == 0:
            drawn.append(rng.random((len(times) - first) * rest))
        else:  # walk the erasure doubles
            owed, u, i, kept, mine = len(times) - first, [], 0, [], []  # sure draws not fetched
            for k in range(first, len(times)):
                if i == len(u):
                    u, i = rng.random(min(DRAW_BLOCK, owed)).tolist(), 0
                    owed -= len(u)
                i += 1
                if u[i - 1] >= p:  # not erased
                    owed += rest
                    if i + rest > len(u):
                        fetch = max(i + rest - len(u), min(DRAW_BLOCK, owed))
                        u, i = u[i:] + rng.random(fetch).tolist(), 0
                        owed -= fetch
                    kept.append(k)
                    mine += u[i:i + rest]
                    i += rest
            times[first:], accs[first:] = [times[k] for k in kept], [accs[k] for k in kept]
            drawn.append(mine)
        meters += [m] * (len(times) - first)
        if len(times) * rest >= DRAW_BLOCK:
            columns.append(rows())
            times, accs, meters, drawn = [], [], [], []
    time, observed, erroneous, true_acc, meter = map(np.concatenate, zip(*columns, rows()))
    times = accs = meters = drawn = columns = None  # freed before the rows are built
    rank = np.argsort(np.argsort(ids))  # each meter's place in string order: m1000 < m999
    order = np.lexsort((rank[meter], time))
    return list(map(PacketArrival, time[order].tolist(), observed[order].tolist(),
                    erroneous[order].tolist(), map(ids.__getitem__, meter[order].tolist()),
                    true_acc[order].tolist()))


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
    The trial resets and uses its process's engine (``_fd_context``), and
    takes the step-1 windows of an observed base ACC met before from there.

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
    _, engine, step1 = _fd_context(params, cfg.M, cfg.timeout)
    engine.reset()  # before the base, so that a trial that raised leaves nothing behind
    y = base_true_acc ^ _flip_mask(rng, cfg.epsilon, params.L)
    engine.on_arrival(PacketArrival(time=0.0, acc=y, erroneous=True, meter_id="base"))
    base_jit = float(rng.uniform(-jit, jit)) if jit > 0 else 0.0
    segments = step1.get(y)
    if segments is None:
        segments = step1[y] = engine.store.windows()

    step = 0
    while segments:  # the live windows, merged
        step += 1
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
        segments = engine.store.windows()
    return False


def _fd_trial(cfg: SimConfig, i: int) -> bool:
    rng = _fd_context(cfg.params, cfg.M, cfg.timeout)[0]
    return _false_detection_trial(cfg, i % cfg.params.L, _trial_rng(cfg.rng_seed, i, rng))


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
