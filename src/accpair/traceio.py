"""Trace file and experiment configuration I/O.

Traces are UTF-8 CSV with LF line endings and a mandatory header::

    time_s,acc_hex,crc_ok,meter_id,true_acc_hex

``time_s`` carries nine fractional digits (slot widths are milliseconds,
so microsecond rounding would corrupt boundary decisions) and must pass
``plain_number``, ``acc_hex`` is two hex digits, ``crc_ok`` is 0 or 1, and
the ground-truth columns may be empty.  Experiment configurations are JSON documents holding the
SimConfig fields that trace generation reads, ``params`` and ``out``;
any other key is rejected.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import fields as dataclass_fields
from typing import IO, Iterable, List, Optional, Tuple

from .simulate import SimConfig
from .slots import PacketArrival
from .timing import ProtocolParams

TRACE_HEADER = ["time_s", "acc_hex", "crc_ok", "meter_id", "true_acc_hex"]


class TraceFormatError(ValueError):
    """Malformed trace file; carries the offending line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigError(ValueError):
    """Invalid experiment configuration document."""


def format_trace_row(pkt: PacketArrival) -> List[str]:
    return [
        f"{pkt.time:.9f}",
        f"{pkt.acc:02x}",
        "0" if pkt.erroneous else "1",
        pkt.meter_id or "",
        "" if pkt.true_acc is None else f"{pkt.true_acc:02x}",
    ]


def write_trace(out: IO[str], trace: Iterable[PacketArrival]) -> int:
    """Write trace rows; returns the number of rows written."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    count = 0
    for pkt in trace:
        writer.writerow(format_trace_row(pkt))
        count += 1
    return count


def plain_number(text: str) -> str:
    """``text``, unless it has non-ASCII characters, ``_`` or surrounding
    whitespace, spellings that int() and float() also take: then raise ValueError."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return text


_HEX_DIGITS = {c: int(c, 16) for c in "0123456789abcdefABCDEF"}
#: every string of exactly two hex digits (either case) to its byte value;
#: unlike int(text, 16) it admits no sign, space or underscore
_HEX_BYTES = {
    a + b: 16 * va + vb for a, va in _HEX_DIGITS.items() for b, vb in _HEX_DIGITS.items()
}


def _parse_byte(text: str, line: int, column: str) -> int:
    value = _HEX_BYTES.get(text)
    if value is None:
        raise TraceFormatError(line, f"{column} must be two hex digits, got {text!r}")
    return value


def read_trace(inp: IO[str]) -> List[PacketArrival]:
    """Parse and validate a trace stream into time-sorted arrivals."""
    reader = csv.reader(inp)
    try:
        header = next(reader)
    except StopIteration:
        raise TraceFormatError(1, "missing header row") from None
    if header != TRACE_HEADER:
        raise TraceFormatError(1, f"bad header {header!r}, expected {TRACE_HEADER!r}")
    trace: List[PacketArrival] = []
    prev_time = None
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(TRACE_HEADER):
            raise TraceFormatError(line, f"expected {len(TRACE_HEADER)} fields, got {len(row)}")
        time_s, acc_hex, crc_ok, meter_id, true_acc_hex = row
        try:
            time = float(plain_number(time_s))
        except ValueError:
            raise TraceFormatError(line, f"bad time {time_s!r}") from None
        if not math.isfinite(time):
            raise TraceFormatError(line, f"time {time_s!r} is not finite")
        if prev_time is not None and time < prev_time:
            raise TraceFormatError(line, f"time {time_s} precedes previous row ({prev_time:.9f})")
        prev_time = time
        acc = _parse_byte(acc_hex, line, "acc_hex")
        if crc_ok not in ("0", "1"):
            raise TraceFormatError(line, f"crc_ok must be 0 or 1, got {crc_ok!r}")
        if true_acc_hex and not meter_id:
            raise TraceFormatError(line, "true_acc_hex given without meter_id")
        trace.append(
            PacketArrival(
                time=time,
                acc=acc,
                erroneous=crc_ok == "0",
                meter_id=meter_id or None,
                true_acc=_parse_byte(true_acc_hex, line, "true_acc_hex") if true_acc_hex else None,
            )
        )
    return trace


_PARAM_KEYS = {f.name for f in dataclass_fields(ProtocolParams)}

#: SimConfig fields that a trace-generation document may set.
_TRACE_KEYS = ("n", "epsilon", "p", "horizon", "emission_jitter", "rng_seed", "body_error_prob")


def load_experiment_config(inp: IO[str]):
    """Build a SimConfig from a JSON experiment document.

    Returns ``(config, out_path)`` where ``out_path`` is the optional
    "out" entry of the document, a string or None.  ``params.L`` may not
    exceed 256, since a trace stores each ACC as one byte.
    """
    try:
        doc = json.load(inp)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")

    unknown = sorted(set(doc) - set(_TRACE_KEYS) - {"params", "out"})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    params_doc = doc.get("params", {})
    if not isinstance(params_doc, dict):
        raise ConfigError("params must be a JSON object")
    bad = sorted(set(params_doc) - (_PARAM_KEYS - {"delta_map"}))
    if bad:
        raise ConfigError(f"unknown params keys: {', '.join(bad)}")

    try:
        params = ProtocolParams(**params_doc)
        cfg = SimConfig(params=params, **{k: doc[k] for k in _TRACE_KEYS if k in doc})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    if params.L > 256:
        raise ConfigError(f"params.L {params.L} exceeds 256: a trace's acc_hex column "
                          "holds one byte")
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a path string or null, got {out!r}")
    return cfg, out
