"""accpair benchmark: one run of one workload, in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run builds its inputs from ``--seed``, repeats the workload's operation
through accpair's public CLI or library API for ``--seconds`` seconds,
checks every output, and prints as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
layer functions are wrapped by ``tracing.Tracer`` and the metrics are the
per-layer ones.  The lines before the JSON repeat the figures under the
operation's own name (``replay_pkts_per_s`` and so on) and print the
SHA-256 of every output.  See README.md for the workloads and metrics.

The package is imported from ``src/`` next to this directory; without it
the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import heapq
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORK = BENCH_DIR / "_work"

#: Seed whose outputs must match those recorded from the seed commit: the
#: digests in expected_sha256.json, and for analytic-plan the values in
#: expected_plan_seed0.csv.
DEFAULT_SEED = 0

#: Largest relative difference of an analytic value from its recorded value.
PLAN_REL_TOL = 1e-12

#: Setup probes per untraced run; setup_s is their median.
SETUP_PROBES = 7

#: Duration of ``calibration_pass`` that calibrated times are scaled to.
CALIBRATION_REF_S = 0.01

#: Largest |estimate - closed form| of the fd Monte-Carlo, in standard errors.
FD_MAX_Z = 6.0

REPLAY_HEADER = ["step", "cc", "ce", "ec", "ee", "ee_false", "fd_percent"]

WORKLOADS: Dict[str, dict] = {
    # Almost every packet fails CRC; each creates 9 slots that advance up to
    # 10 steps, so slot creation, advancement and slot_bounds dominate.
    "replay-noisy-m1": {"kind": "replay", "n": 200, "epsilon": 0.03125, "M": 1, "horizon": 300.0},
    # Every packet pairs at step 1 and no slot advances: candidate generation,
    # trace parse and CSV output dominate; the most trace objects in memory.
    "replay-clean-m0": {"kind": "replay", "n": 400, "epsilon": 0.0, "M": 0, "horizon": 600.0},
    # Trace synthesis and CSV writing of replay-noisy-m1's trace, on its own.
    "gentrace-noisy": {"kind": "gentrace", "n": 200, "epsilon": 0.03125, "horizon": 300.0},
    # Criterion 3's configuration: a fresh engine and ~3 arrivals per trial,
    # so per-call overhead, engine construction and numpy RNG dominate.
    "fd-mc-m1": {"kind": "fd", "n": 400, "M": 1, "trials": 2000},
    # Cold closed-form planning over geometries whose step-1 windows are
    # disjoint and monotone (t=8 is not: neighbouring windows overlap).
    "analytic-plan": {"kind": "plan", "t": (16.0, 32.0, 64.0), "sweep_M": (0, 1, 2, 3),
                      "sizing_M": (0, 1, 2), "target": 1e-3},
}

#: Input sizes for the benchmark's own tests.
TINY = {"horizon": 48.0, "trials": 100, "t": (16.0,), "sweep_M": (0, 1), "sizing_M": (0, 1)}

#: End-to-end metric names and units, in output order.
END_TO_END = (("setup_s", "s"), ("calibrated_items_per_s", "1/s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, bad arguments)."""


class OutputError(Exception):
    """An operation's output failed a check."""


def load_accpair():
    """Import accpair from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "accpair" / "__init__.py"
    if not package.is_file():
        raise BenchError(f"accpair sources not found at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import accpair

    if Path(accpair.__file__).resolve() != package.resolve():
        raise BenchError(f"accpair imported from {accpair.__file__}, not {package}")
    return accpair


def clear_function_caches() -> None:
    """Empty every functools cache in accpair, as a fresh CLI process has them."""
    for name, module in list(sys.modules.items()):
        if name == "accpair" or name.startswith("accpair."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def calibration_pass() -> float:
    """Seconds taken by a fixed pure-Python task: dicts, floats, a heap, a sort.

    The machine's speed drifts by tens of percent within seconds.  Timing
    this task just before and after each operation measures that drift, and
    scaling the operation's time by ``CALIBRATION_REF_S`` over it removes
    most of it.  The task does not touch accpair, and runs with the garbage
    collector off so that collecting an operation's garbage is not taken
    for a slow machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: Dict[int, int] = {}
        heap: List[Tuple[float, int]] = []
        total = 0.0
        for i in range(12000):
            key = (i * 7919) % 4093
            table[key] = table.get(key, 0) + 1
            total += math.sqrt(i) * 0.5
            if i % 3 == 0:
                heapq.heappush(heap, (total % 97.0, i))
        while heap:
            heapq.heappop(heap)
        sorted(table.items(), key=lambda item: (item[1], item[0]))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class CalibratedClock:
    """Wall and calibrated seconds of one operation, calibrated piece by piece.

    ``lap`` ends a piece and scales its time by ``CALIBRATION_REF_S`` over
    the mean of the calibration passes just before and just after it.  An
    operation of seconds calls ``lap`` between its parts, so that the
    machine's drift within the operation is measured too.
    """

    def __init__(self) -> None:
        self.wall = self.calibrated = 0.0
        self._before = calibration_pass()
        self._start = time.perf_counter()

    def lap(self) -> None:
        piece = time.perf_counter() - self._start
        after = calibration_pass()
        self.wall += piece
        self.calibrated += piece * CALIBRATION_REF_S / ((self._before + after) / 2)
        self._before = after
        self._start = time.perf_counter()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: List[str]) -> None:
    from accpair import cli

    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse exits on a usage error
        code = exc.code
    if code != 0:
        raise OutputError(f"accpair {argv[0]} exited with {code}")


# ---------------------------------------------------------------------------
# output checks


def parse_csv(data: bytes) -> List[List[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def check_trace(lines: Iterable[str], n: int, epsilon: float) -> Tuple[int, int]:
    """Check a generated trace against the interval law; returns (rows, meters).

    Holds for any seed with erasure probability 0: every meter is present,
    consecutive packets of a meter carry consecutive true ACCs spaced by
    ``t + delta(pi(acc))``, and a damaged ACC is always flagged by the CRC.
    Reads ``lines`` as a stream and keeps only each meter's last packet.
    """
    from accpair import ProtocolParams, jitter_index
    from accpair.traceio import TRACE_HEADER

    params = ProtocolParams()
    reader = csv.reader(lines)
    if next(reader, None) != TRACE_HEADER:
        raise OutputError("trace header is wrong")
    last: Dict[str, Tuple[float, int]] = {}
    prev_time = -math.inf
    count = 0
    for row in reader:
        count += 1
        time_s, acc_hex, crc_ok, meter, true_hex = row
        t, acc, true_acc = float(time_s), int(acc_hex, 16), int(true_hex, 16)
        if t < prev_time:
            raise OutputError(f"trace time {time_s} out of order")
        prev_time = t
        if acc != true_acc and crc_ok != "0":
            raise OutputError(f"damaged ACC at {time_s} passed the CRC")
        if epsilon == 0 and (acc != true_acc or crc_ok != "1"):
            raise OutputError(f"error-free trace has a damaged packet at {time_s}")
        if meter in last:
            t0, acc0 = last[meter]
            expected = params.t + params.delta(jitter_index(acc0, params))
            if true_acc != (acc0 + 1) % params.L or abs(t - t0 - expected) > 1e-8:
                raise OutputError(f"meter {meter} breaks the interval law at {time_s}")
        last[meter] = (t, true_acc)
    if len(last) != n:
        raise OutputError(f"trace has {len(last)} meters, expected {n}")
    return count, len(last)


def check_replay(data: bytes, arrivals: int, meters: int, clean: bool) -> None:
    """Check ``accpair replay`` output for a trace with ground truth.

    For an error-free trace with no erasures every packet but each meter's
    first pairs correctly at step 1 (criterion 8).
    """
    rows = parse_csv(data)
    if not rows or rows[0] != REPLAY_HEADER:
        raise OutputError("replay header is wrong")
    body = rows[1:]
    if [row[0] for row in body] != [str(k) for k in range(1, 11)]:
        raise OutputError("replay must print steps 1..10")
    total = 0
    for row in body:
        cc, ce, ec, ee, ee_false = (int(v) for v in row[1:6])
        fd_percent = float(row[6])
        pairs = cc + ce + ec + ee
        total += pairs
        if not 0 <= ee_false <= ee or not 0.0 <= fd_percent <= 100.0:
            raise OutputError(f"step {row[0]}: inconsistent counts {row}")
        if pairs == 0 and fd_percent != 0.0:
            raise OutputError(f"step {row[0]}: false pairs without pairings")
        if clean:
            expected = [arrivals - meters if row[0] == "1" else 0, 0, 0, 0, 0]
            if [cc, ce, ec, ee, ee_false] != expected or fd_percent != 0.0:
                raise OutputError(f"step {row[0]}: clean trace gives {row[1:]}, expected {expected}")
    if total > arrivals - 1:
        raise OutputError(f"{total} pairings from {arrivals} arrivals")


def check_fd(data: bytes, n: int, M: int, trials: int, reference: float) -> None:
    """The estimate lies within FD_MAX_Z standard errors of ``mean_qM``."""
    rows = parse_csv(data)
    if len(rows) != 2 or rows[1][:3] != ["fd", str(n), str(M)] or rows[1][5] != str(trials):
        raise OutputError(f"unexpected simulate output {rows}")
    estimate, std_error = float(rows[1][6]), float(rows[1][7])
    z = abs(estimate - reference) / math.sqrt(reference * (1.0 - reference) / trials)
    if z > FD_MAX_Z:
        raise OutputError(f"fd estimate {estimate} is {z:.1f} SE from closed form {reference}")
    if not math.isclose(std_error, math.sqrt(estimate * (1.0 - estimate) / trials),
                        rel_tol=1e-8, abs_tol=1e-15):
        raise OutputError(f"std_error {std_error} does not match estimate {estimate}")


# ---------------------------------------------------------------------------
# workloads: prepare inputs once, then ``op`` is the timed operation


class Workload:
    """One workload's inputs, timed operation and output checks.

    With ``recorded`` set, the first output is also compared with the one
    recorded from the seed commit for ``DEFAULT_SEED``.
    """

    #: Name of the operation's throughput metric in the summary, and unit.
    summary: Tuple[str, str] = ("", "")

    def __init__(self, name: str, spec: dict, seed: int, work: Path,
                 recorded: bool = False) -> None:
        self.name, self.spec, self.seed, self.recorded = name, spec, seed, recorded
        self.items = 1
        self.digests: Dict[str, str] = {}

    def op(self, lap: Callable[[], None] = lambda: None) -> None:
        """The timed operation; a long one calls ``lap`` between its parts."""
        raise NotImplementedError

    def output(self) -> bytes:
        """The bytes the operation produced; checked after each operation."""
        raise NotImplementedError

    def check(self, data: bytes) -> None:
        """Raise OutputError unless ``data`` is a correct output for any seed."""

    def check_first(self, data: bytes) -> None:
        """All checks of the run's first output."""
        self.check(data)
        self.digests[f"{self.name}.out"] = sha256(data)
        if self.recorded:
            self.check_recorded(data)

    def check_recorded(self, data: bytes) -> None:
        """The SHA-256 of every CLI output equals the one recorded for the seed."""
        expected = json.loads((BENCH_DIR / "expected_sha256.json").read_text())
        if self.digests != expected.get(self.name):
            raise OutputError(f"SHA-256 of outputs differs from the recorded "
                              f"seed-{DEFAULT_SEED} digests")

    def summary_value(self, op_seconds: float) -> float:
        return self.items / op_seconds


class GentraceWorkload(Workload):
    summary = ("gentrace_pkts_per_s", "packets/s")

    def __init__(self, name: str, spec: dict, seed: int, work: Path,
                 recorded: bool = False) -> None:
        super().__init__(name, spec, seed, work, recorded)
        self.config = work / "experiment.json"
        self.trace = work / "trace.csv"
        self.config.write_text(json.dumps({
            "n": spec["n"], "epsilon": spec["epsilon"], "p": 0.0,
            "horizon": spec["horizon"], "rng_seed": seed,
        }))

    def op(self, lap: Callable[[], None] = lambda: None) -> None:
        run_cli(["gentrace", "--config", str(self.config), "--out", str(self.trace)])

    def output(self) -> bytes:
        return self.trace.read_bytes()

    def check(self, data: bytes) -> None:
        # every operation writes the same trace, so its rows are the items
        self.items, _ = check_trace(io.StringIO(data.decode("utf-8")),
                                    self.spec["n"], self.spec["epsilon"])


class ReplayWorkload(Workload):
    summary = ("replay_pkts_per_s", "packets/s")

    def __init__(self, name: str, spec: dict, seed: int, work: Path,
                 recorded: bool = False) -> None:
        super().__init__(name, spec, seed, work, recorded)
        # The trace is made and checked before any timing, in a child process:
        # gentrace-noisy times generation, and the trace objects it builds
        # must not count in this process's peak_rss_mb.
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "make_trace.py"), json.dumps(spec), str(seed),
             str(work)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise OutputError(f"make_trace.py exited with {proc.returncode}: {proc.stderr}")
        made = json.loads(proc.stdout.splitlines()[-1])
        self.arrivals, self.meters = made["rows"], made["meters"]
        self.items = self.arrivals
        self.digests["trace.csv"] = made["sha256"]
        self.trace = work / "trace.csv"
        self.out = work / "replay.csv"

    def op(self, lap: Callable[[], None] = lambda: None) -> None:
        run_cli(["replay", str(self.trace), "--M", str(self.spec["M"]), "--out", str(self.out)])

    def output(self) -> bytes:
        return self.out.read_bytes()

    def check(self, data: bytes) -> None:
        check_replay(data, self.arrivals, self.meters, clean=self.spec["epsilon"] == 0)


class FalseDetectionWorkload(Workload):
    summary = ("mc_trials_per_s", "trials/s")

    def __init__(self, name: str, spec: dict, seed: int, work: Path,
                 recorded: bool = False) -> None:
        super().__init__(name, spec, seed, work, recorded)
        from accpair import ProtocolParams, mean_qM

        self.items = spec["trials"]
        self.reference = mean_qM(spec["M"], spec["n"], ProtocolParams())
        self.out = work / "simulate.csv"

    def op(self, lap: Callable[[], None] = lambda: None) -> None:
        spec = self.spec
        run_cli(["simulate", "--kind", "fd", "--n", str(spec["n"]), "--M", str(spec["M"]),
                 "--trials", str(spec["trials"]), "--seed", str(self.seed),
                 "--out", str(self.out)])

    def output(self) -> bytes:
        return self.out.read_bytes()

    def check(self, data: bytes) -> None:
        spec = self.spec
        check_fd(data, spec["n"], spec["M"], spec["trials"], self.reference)


class PlanWorkload(Workload):
    """Per-ACC ``qM`` for every geometry and M, then population sizing.

    The seed picks the meter count of the ``qM`` sweep; the cost does not
    depend on it.  Values are printed with ``repr`` so checks see them
    exactly.  This output is the benchmark's, not accpair's, so the
    recorded check compares values, not digests.
    """

    summary = ("closed_form_s", "s")

    def __init__(self, name: str, spec: dict, seed: int, work: Path,
                 recorded: bool = False) -> None:
        super().__init__(name, spec, seed, work, recorded)
        from accpair import ProtocolParams

        self.n = 50 * (1 + seed % 20)
        self.params = [ProtocolParams(t=t) for t in spec["t"]]
        self.text = ""

    def op(self, lap: Callable[[], None] = lambda: None) -> None:
        from accpair import max_distinguishable_meters, qM

        lines = ["t,M,acc,q"]
        for params in self.params:
            for M in self.spec["sweep_M"]:
                lines.extend(f"{params.t!r},{M},{y:02x},{qM(y, M, self.n, params)!r}"
                             for y in range(params.L))
                lap()
        lines.append("t,M,max_n")
        for params in self.params:
            for M in self.spec["sizing_M"]:
                n_max = max_distinguishable_meters(self.spec["target"], M, params)
                lines.append(f"{params.t!r},{M},{n_max}")
        self.text = "\n".join(lines) + "\n"

    def output(self) -> bytes:
        return self.text.encode("utf-8")

    def summary_value(self, op_seconds: float) -> float:
        return op_seconds

    def check(self, data: bytes) -> None:
        from accpair import lead_time, mean_qM, q0, slot_bounds

        by_t = {params.t: params for params in self.params}
        rows = data.decode("utf-8").splitlines()
        split = rows.index("t,M,max_n")
        for row in rows[1:split]:
            t, M, acc, q = row.split(",")
            params, y = by_t[float(t)], int(acc, 16)
            if M == "0":
                # criterion 1: qM at M=0 is q0 over the lead time
                ref = q0(self.n / params.t, lead_time(y, 1, params), params.L)
                if abs(float(q) - ref) > 1e-12 * ref:
                    raise OutputError(f"t={t} y={acc}: qM(M=0)={q} differs from q0={ref!r}")
        for row in rows[split + 1:]:
            t, M, n_max = row.split(",")
            params, M, n_max = by_t[float(t)], int(M), int(n_max)
            target = self.spec["target"]
            if not (mean_qM(M, n_max, params) <= target < mean_qM(M, n_max + 1, params)):
                raise OutputError(f"t={t} M={M}: {n_max} meters is not the sizing bound")
        for params in self.params:
            # the closed form assumes disjoint step-1 windows ordered by jitter index
            end = -math.inf
            for s in range(params.L // 2 + 1):
                start, width = slot_bounds((params.L // 2 + s) % params.L, 1, 0.0, params)
                if start < end:
                    raise OutputError(f"t={params.t}: step-1 windows overlap at jitter {s}")
                end = start + width

    def check_recorded(self, data: bytes) -> None:
        """Every value equals the one recorded from the seed commit to PLAN_REL_TOL.

        Not byte equality: a closed form that gives the same numbers may
        differ from the recorded ones in the last bits.
        """
        expected = (BENCH_DIR / "expected_plan_seed0.csv").read_text().splitlines()
        rows = data.decode("utf-8").splitlines()
        if len(rows) != len(expected):
            raise OutputError(f"{len(rows)} plan rows, recorded {len(expected)}")
        for row, ref in zip(rows, expected):
            if row == ref:
                continue
            key, _, value = row.rpartition(",")
            ref_key, _, ref_value = ref.rpartition(",")
            if key != ref_key or not math.isclose(float(value), float(ref_value),
                                                  rel_tol=PLAN_REL_TOL, abs_tol=0.0):
                raise OutputError(f"plan row {row} differs from the recorded {ref}")


KINDS = {
    "replay": ReplayWorkload,
    "gentrace": GentraceWorkload,
    "fd": FalseDetectionWorkload,
    "plan": PlanWorkload,
}


# ---------------------------------------------------------------------------
# the run


class Run:
    """Counts attempted and failed operations and collects their timings."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(self, action: Callable[[], object]) -> Optional[object]:
        """Run one operation; a raise or failed check counts as a failure."""
        self.attempted += 1
        try:
            return action()
        except Exception:  # the run goes on and reports the failure
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def setup_probe(self) -> Tuple[float, float]:
        """Wall and calibrated seconds from starting a process to its engine built."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        before = calibration_pass()
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py")],
            env=env, cwd=str(BENCH_DIR.parent), capture_output=True, text=True, timeout=120,
        )
        speed = CALIBRATION_REF_S / ((before + calibration_pass()) / 2)
        if proc.returncode != 0:
            raise OutputError(f"setup probe exited with {proc.returncode}: {proc.stderr}")
        done, origin = proc.stdout.split("\n")[:2]
        if Path(origin).resolve() != (SRC / "accpair" / "__init__.py").resolve():
            raise OutputError(f"setup probe imported accpair from {origin}")
        wall = float(done) - start
        return wall, wall * speed

    def timed_ops(self, workload: Workload, seconds: float,
                  reference: List[bytes]) -> List[Tuple[float, float]]:
        """Repeat the operation for ``seconds`` (at least once).

        Returns ``(wall, calibrated)`` seconds of each operation that
        succeeded.  Every output must pass the workload's checks the first
        time and be byte-identical to the first output afterwards.
        """

        def timed_op() -> Tuple[float, float]:
            clear_function_caches()
            gc.collect()  # each operation starts from a collected heap, as a new process does
            clock = CalibratedClock()
            workload.op(clock.lap)
            clock.lap()
            data = workload.output()
            if not reference:
                workload.check_first(data)
                reference.append(data)
            elif data != reference[0]:
                raise OutputError("output differs from the first operation's output")
            return clock.wall, clock.calibrated

        times: List[Tuple[float, float]] = []
        deadline = time.perf_counter() + seconds
        while True:
            timing = self.attempt(timed_op)
            if timing is not None:
                times.append(timing)
            if time.perf_counter() >= deadline:
                return times


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, lines: Optional[List[str]] = None) -> dict:
    """One run of one workload; returns the result object to print.

    ``lines`` collects the human-readable summary.
    """
    if name not in WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    load_accpair()
    lines = lines if lines is not None else []
    spec = dict(WORKLOADS[name])
    if tiny:
        spec.update({k: v for k, v in TINY.items() if k in spec})
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run()

    setup_times: List[Tuple[float, float]] = []
    if not trace:
        for _ in range(1 if tiny else SETUP_PROBES):
            probe = run.attempt(run.setup_probe)
            if probe is not None:
                setup_times.append(probe)

    recorded = seed == DEFAULT_SEED and not tiny
    workload = run.attempt(lambda: KINDS[spec["kind"]](name, spec, seed, work, recorded))
    reference: List[bytes] = []
    phase = seconds / 2 if trace else seconds
    times = run.timed_ops(workload, phase, reference) if workload is not None else []
    names = tracing_metric_names() if trace else END_TO_END
    # if nothing succeeded the run is incorrect and its figures are void
    metrics: Dict[str, float] = {metric: 0.0 for metric, _ in names}
    if times:
        wall = statistics.median(t for t, _ in times)
        calibrated = statistics.median(c for _, c in times)
        if trace:
            metrics.update(traced_metrics(run, workload, phase, reference, calibrated, name, seed))
        else:
            metrics.update({
                "setup_s": statistics.median(c for _, c in setup_times) if setup_times else 0.0,
                "calibrated_items_per_s": workload.items / calibrated,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            })
        label, unit = workload.summary
        lines.append(f"{label} = {workload.summary_value(wall):.6g} {unit} (median of "
                     f"{len(times)} untraced operations of {workload.items} items)")
        lines.append(f"calibrated_items_per_s = {workload.items / calibrated:.6g} 1/s")
        for file, digest in sorted(workload.digests.items()):
            lines.append(f"sha256 {file} = {digest}")
    if setup_times:
        lines.append(f"setup_s = {statistics.median(t for t, _ in setup_times):.6g} s "
                     f"(median of {len(setup_times)} fresh processes; calibrated "
                     f"{statistics.median(c for _, c in setup_times):.6g} s)")
    if not trace:
        lines.append(f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB")
    lines.append(f"error_rate = {run.failed / run.attempted:.6g} failed/attempted "
                 f"({run.failed} of {run.attempted})")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {metric: {"value": metrics[metric], "unit": unit} for metric, unit in names},
    }


def tracing_metric_names() -> Tuple[Tuple[str, str], ...]:
    import tracing

    return tracing.PER_LAYER


def traced_metrics(run: Run, workload: Workload, seconds: float, reference: List[bytes],
                   untraced: float, name: str, seed: int) -> Dict[str, float]:
    """Repeat the operation with every layer wrapped; per-layer metrics.

    ``untraced`` is the calibrated time of the untraced operation.  The
    spans of the first traced operation are saved in the work directory.
    """
    import tracing

    tracer = tracing.Tracer()
    per_op: List[Dict[str, float]] = []
    calibrated: List[float] = []
    tracer.install()
    try:
        deadline = time.perf_counter() + seconds
        while not per_op or time.perf_counter() < deadline:
            tracer.reset()
            times = run.timed_ops(workload, 0.0, reference)
            if not times:
                break
            calibrated.append(times[0][1])
            per_op.append(tracer.layer_metrics())
            if len(per_op) == 1:
                tracer.save(str(WORK / f"spans-{name}-seed{seed}.npz"))
    finally:
        tracer.uninstall()
    if not per_op:
        return {}
    values = tracing.combine(per_op)
    values["trace.overhead_frac"] = statistics.median(calibrated) / untraced - 1.0
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before accpair imports numpy
    lines: List[str] = []
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              lines=lines)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"accpair perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
