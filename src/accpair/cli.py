"""Command-line front end: analytic sweeps, simulations, trace replay and
trace generation, all emitting deterministic CSV.

Exit codes: 0 success, 2 usage error, 3 input parse error, 4 internal
error (any other exception, reported without a traceback).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import IO, List, Optional

from .analytic import mean_qM, qM
from .engine import ANALYSIS, DEPLOYMENT
from .simulate import SimConfig, generate_trace, replay, simulate_false_detection, simulate_memory
from .timing import ProtocolParams, check_threshold
from .traceio import ConfigError, TraceFormatError, load_experiment_config, plain_number
from .traceio import read_trace, write_trace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INTERNAL = 4

SEED_ENV_VAR = "ACCPAIR_SEED"


class UsageError(ValueError):
    pass


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
    raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {text!r}")


def _parse_n_range(text: str) -> range:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise UsageError(f"--n-range must be START:STOP[:STEP], got {text!r}")
    try:
        start, stop = integer(parts[0]), integer(parts[1])
        step = integer(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise UsageError(f"--n-range components must be integers: {text!r}") from None
    if step < 1 or stop < start or start < 0:
        raise UsageError(f"invalid --n-range {text!r}")
    return range(start, stop + 1, step)


def _parse_acc(text: str) -> Optional[object]:
    if text in ("all", "mean"):
        return text
    try:
        value = integer(text, 0)
    except ValueError:
        raise UsageError(f"--acc must be 'all', 'mean' or a byte value, got {text!r}") from None
    if not 0 <= value < 256:
        raise UsageError(f"--acc byte value out of range: {text!r}")
    return value


def _open_out(path: Optional[str]) -> IO[str]:
    if path is None or path == "-":
        return sys.stdout
    return open(path, "w", encoding="utf-8", newline="")


def _close_out(out: IO[str]) -> None:
    if out is not sys.stdout:
        out.close()


def cmd_analytic(args: argparse.Namespace) -> int:
    params = ProtocolParams()
    ns = _parse_n_range(args.n_range)
    acc = _parse_acc(args.acc)
    check_threshold(args.M, params.L)
    out = _open_out(args.out)
    try:
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
    finally:
        _close_out(out)
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
    if args.kind == "fd":
        report = simulate_false_detection(cfg)
        estimate, se = report.fd_rate, report.fd_std_error
    else:
        report = simulate_memory(cfg)
        estimate, se = report.memory_per_meter, report.memory_std_error
    out = _open_out(args.out)
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["kind", "n", "M", "epsilon", "p", "trials", "estimate", "std_error"])
        writer.writerow(
            [args.kind, args.n, args.M, f"{args.epsilon:g}", f"{args.p:g}",
             report.trials, f"{estimate:.9e}", f"{se:.9e}"]
        )
    finally:
        _close_out(out)
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    with open(args.trace, "r", encoding="utf-8", newline="") as fh:
        trace = read_trace(fh)
    cfg = SimConfig(
        M=args.M,
        slot_policy=args.mode,
        timeout=args.timeout,
    )
    report = replay(trace, cfg)
    out = _open_out(args.out)
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["step", "cc", "ce", "ec", "ee", "ee_false", "fd_percent"])
        if trace:
            for sc in report.per_step:
                if report.truth_available:
                    writer.writerow(
                        [sc.step, sc.cc, sc.ce, sc.ec, sc.ee, sc.ee_false, f"{sc.fd_percent:.4f}"]
                    )
                else:
                    writer.writerow([sc.step, sc.cc, sc.ce, sc.ec, sc.ee, "", ""])
    finally:
        _close_out(out)
    return EXIT_OK


def cmd_gentrace(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg, cfg_out = load_experiment_config(fh)
    path = args.out if args.out is not None else cfg_out
    trace = generate_trace(cfg)
    out = _open_out(path)
    try:
        write_trace(out, trace)
    finally:
        _close_out(out)
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
