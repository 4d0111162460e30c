"""Command-line front end: analytic sweeps, simulations, trace replay and
trace generation, all emitting deterministic CSV.

Exit codes: 0 success, 2 usage error, 3 unreadable trace or config or
unwritable --out path, 4 internal error (any other exception, no traceback).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys
from typing import IO, Iterator, List, Optional

from .analytic import mean_qM, qM
from .engine import ANALYSIS, DEPLOYMENT, PairingEngine
from .simulate import SimConfig, generate_trace, replay, simulate_false_detection, simulate_memory
from .timing import ProtocolParams, check_acc, check_finite_nonnegative, check_threshold
from .traceio import ConfigError, TraceFormatError, load_experiment_config, plain_number
from .traceio import iter_trace, write_trace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INTERNAL = 4

SEED_ENV_VAR = "ACCPAIR_SEED"


# argparse names a type= function in its errors: "invalid integer value"
# or "invalid real value"
def integer(text: str, base: int = 10) -> int:
    """``int(text, base)`` of ASCII text only (see ``traceio.plain_number``)."""
    return int(plain_number(text), base)


def real(text: str) -> float:
    """``float(text)`` of ASCII text only (see ``traceio.plain_number``)."""
    return float(plain_number(text))


def _default_seed() -> int:
    text = os.environ.get(SEED_ENV_VAR, "0")
    if text[:1].isdigit():  # a seed is unsigned, so "+5", "-3" and "" are refused
        try:
            return integer(text)
        except ValueError:
            pass
    raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {text!r}")


def _parse_n_range(text: str) -> range:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"--n-range must be START:STOP[:STEP], got {text!r}")
    try:
        start, stop = integer(parts[0]), integer(parts[1])
        step = integer(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise ValueError(f"--n-range components must be integers: {text!r}") from None
    if step < 1 or stop < start or start < 0:
        raise ValueError(f"invalid --n-range {text!r}")
    return range(start, stop + 1, step)


def _parse_acc(text: str, L: int) -> Optional[object]:
    if text in ("all", "mean"):
        return text
    try:
        value = integer(text, 0)
    except ValueError:
        raise ValueError(f"--acc must be 'all', 'mean' or a byte value, got {text!r}") from None
    return check_acc(value, L)


@contextlib.contextmanager
def _output(path: Optional[str]) -> Iterator[IO[str]]:
    """The file at ``path`` opened for CSV and closed on exit, or stdout for None or "-"."""
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as out:
        yield out


def cmd_analytic(args: argparse.Namespace) -> int:
    params = ProtocolParams()
    ns = _parse_n_range(args.n_range)
    acc = _parse_acc(args.acc, params.L)
    check_threshold(args.M, params.L)
    check_finite_nonnegative("meter count", ns[-1])  # the largest; before any output opens
    with _output(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", "acc", "q"])
        for n in ns:
            if acc == "mean":
                writer.writerow([n, "mean", f"{mean_qM(args.M, n, params):.12e}"])
            elif acc == "all":
                for y in range(params.L):
                    writer.writerow([n, f"{y:02x}", f"{qM(y, args.M, n, params):.12e}"])
            else:
                writer.writerow([n, f"{acc:02x}", f"{qM(acc, args.M, n, params):.12e}"])
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = SimConfig(
        n=args.n,
        M=args.M,
        epsilon=args.epsilon,
        p=args.p,
        trials=args.trials,
        horizon=args.horizon,
        rng_seed=_default_seed() if args.seed is None else args.seed,
    )
    estimate, se = (simulate_false_detection if args.kind == "fd" else simulate_memory)(cfg)
    with _output(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["kind", "n", "M", "epsilon", "p", "trials", "estimate", "std_error"])
        writer.writerow(
            [args.kind, args.n, args.M, f"{args.epsilon:g}", f"{args.p:g}",
             cfg.trials, f"{estimate:.9e}", f"{se:.9e}"]
        )
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    # built first, so a bad --M or --timeout is reported before the trace is read
    engine = PairingEngine(M=args.M, policy=args.mode, timeout=args.timeout)
    # the trace streams through the engine; the output is opened only once
    # every row has passed, so a trace that fails late writes nothing
    with open(args.trace, "r", encoding="utf-8", newline="") as fh:
        replay(iter_trace(fh), engine)
    # engine.pairs holds 8 counts per step: cc, ce, ec, ee, then the false ones among each
    p = engine.pairs
    truth_available = engine.unverified == 0 and any(p)
    with _output(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["step", "cc", "ce", "ec", "ee", "ee_false", "fd_percent"])
        if engine.arrivals:
            for j in range(0, len(p), 8):
                if truth_available:
                    pairings = sum(p[j:j + 4])
                    fd_percent = 100.0 * sum(p[j + 4:j + 8]) / pairings if pairings else 0.0
                    false_cols = [p[j + 7], f"{fd_percent:.4f}"]
                else:
                    false_cols = ["", ""]
                writer.writerow([j // 8 + 1, *p[j:j + 4], *false_cols])
    return EXIT_OK


def cmd_gentrace(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg, cfg_out = load_experiment_config(fh)
    path = args.out if args.out is not None else cfg_out
    trace = generate_trace(cfg)
    with _output(path) as out:
        write_trace(out, trace)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accpair",
        description="Pair broadcast meter packets by deterministic transmission intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form false-detection sweep")
    p.add_argument("--M", type=integer, default=0, help="pairing threshold in bits")
    p.add_argument("--n-range", required=True, help="meter counts START:STOP[:STEP]")
    p.add_argument("--acc", default="mean", help="'mean', 'all', or a base ACC byte")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("simulate", help="Monte-Carlo false detection or memory footprint")
    p.add_argument("--kind", choices=["fd", "memory"], required=True)
    p.add_argument("--epsilon", type=real, default=0.0)
    p.add_argument("--p", type=real, default=0.0)
    p.add_argument("--M", type=integer, default=0)
    p.add_argument("--n", type=integer, default=200)
    p.add_argument("--trials", type=integer, default=1000)
    p.add_argument("--horizon", type=real, default=600.0, help="seconds (memory runs)")
    p.add_argument("--seed", type=integer, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("replay", help="run a trace file through the pairing engine")
    p.add_argument("trace", help="trace CSV path")
    p.add_argument("--M", type=integer, default=0)
    p.add_argument("--mode", choices=[ANALYSIS, DEPLOYMENT], default=DEPLOYMENT)
    p.add_argument("--timeout", type=integer, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("gentrace", help="generate a synthetic ground-truth trace")
    p.add_argument("--config", required=True, help="JSON experiment config path")
    p.add_argument("--out", default=None, help="trace output path (overrides config)")
    p.set_defaults(func=cmd_gentrace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TraceFormatError, ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # any other failure is a defect in accpair
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
