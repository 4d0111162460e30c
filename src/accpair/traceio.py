"""Trace file and experiment configuration I/O.

Traces are UTF-8 CSV with LF line endings and a mandatory header::

    time_s,acc_hex,crc_ok,meter_id,true_acc_hex

``time_s`` carries nine fractional digits (slot widths are milliseconds,
so microsecond rounding would corrupt boundary decisions) and must pass
``plain_number``, ``acc_hex`` is two hex digits, ``crc_ok`` is 0 or 1, and
the ground-truth columns may be empty.  ``iter_trace`` checks each row
as it yields it, so a reader holds one row at a time.  Experiment
configurations are JSON documents holding the SimConfig fields that trace
generation reads, ``params`` and ``out``; any other key is rejected.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields as dataclass_fields
from typing import IO, Iterable, Iterator

from .simulate import SimConfig, check_trace_fits
from .slots import PacketArrival
from .timing import LARGEST_FLOAT, ProtocolParams, check_count, shown

TRACE_HEADER = ["time_s", "acc_hex", "crc_ok", "meter_id", "true_acc_hex"]


class TraceFormatError(ValueError):
    """Malformed trace file; carries the offending line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigError(ValueError):
    """Invalid experiment configuration document."""


#: each ACC a trace can hold to its ``acc_hex``; a dict, so -1 is not found
_BYTE_HEX = {value: f"{value:02x}" for value in range(256)}


def write_trace(out: IO[str], trace: Iterable[PacketArrival]) -> int:
    """Write trace rows; returns the number of rows written.

    A row ``iter_trace`` would reject raises ``ValueError``: an ACC outside
    0..255, a time not finite or before the previous row's, or a ``meter_id``
    over ``csv.field_size_limit()`` long or holding a carriage return, which
    ends an unquoted record, or NUL, which Python 3.10's reader refuses.  The
    rows before it may already be written.
    """
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    limit = csv.field_size_limit()
    prev = -LARGEST_FLOAT  # the least finite float, so -inf is refused too
    count = 0
    for count, pkt in enumerate(trace, start=1):
        if not prev <= pkt.time <= LARGEST_FLOAT:  # iter_trace's test
            raise ValueError(f"row {count}: time {shown(pkt.time)} is not finite or out of order")
        prev = pkt.time
        meter_id = pkt.meter_id or ""
        if "\r" in meter_id or "\0" in meter_id or len(meter_id) > limit:
            raise ValueError(f"row {count}: meter_id {meter_id[:40]!r} would not read back")
        try:
            acc = _BYTE_HEX[pkt.acc]
            true_acc = "" if pkt.true_acc is None else _BYTE_HEX[pkt.true_acc]
        except KeyError as exc:
            raise ValueError(f"row {count}: ACC {shown(exc.args[0])} is outside 0..255") from None
        writer.writerow((f"{pkt.time:.9f}", acc, "0" if pkt.erroneous else "1", meter_id,
                         true_acc))
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


def _parse_byte(text: str, column: str) -> int:
    value = _HEX_BYTES.get(text)
    if value is None:
        raise ValueError(f"{column} must be two hex digits, got {text!r}")
    return value


def iter_trace(inp: IO[str]) -> Iterator[PacketArrival]:
    """Yield a trace stream's arrivals in time order, validating each row as
    it is read; a malformed row raises ``TraceFormatError`` once it is reached."""
    reader = csv.reader(inp)
    try:
        header = next(reader, None)
        if header != TRACE_HEADER:
            raise ValueError("missing header row" if header is None else
                             f"bad header {header!r}, expected {TRACE_HEADER!r}")
        prev_time = -LARGEST_FLOAT
        for row in reader:
            if not row:
                continue
            if len(row) != len(TRACE_HEADER):
                raise ValueError(f"expected {len(TRACE_HEADER)} fields, got {len(row)}")
            time_s, acc_hex, crc_ok, meter_id, true_acc_hex = row
            try:
                time = float(plain_number(time_s))
            except ValueError:
                raise ValueError(f"bad time {time_s!r}") from None
            if not prev_time <= time <= LARGEST_FLOAT:
                finite = abs(time) <= LARGEST_FLOAT
                raise ValueError(f"time {time_s} precedes previous row ({prev_time:.9f})"
                                 if finite else f"time {time_s!r} is not finite")
            prev_time = time
            acc = _parse_byte(acc_hex, "acc_hex")
            if crc_ok not in ("0", "1"):
                raise ValueError(f"crc_ok must be 0 or 1, got {crc_ok!r}")
            true_acc = _parse_byte(true_acc_hex, "true_acc_hex") if true_acc_hex else None
            yield PacketArrival(time, acc, crc_ok == "0", meter_id or None, true_acc)
    # each row check, PacketArrival's ground-truth rule and the CSV reader's own
    # name the reader's line, which is 0 only at an empty stream's missing header
    except (ValueError, csv.Error) as exc:
        raise TraceFormatError(max(reader.line_num, 1), str(exc)) from None


_PARAM_KEYS = {f.name for f in dataclass_fields(ProtocolParams)}

#: SimConfig fields that a trace-generation document may set.
_TRACE_KEYS = ("n", "epsilon", "p", "horizon", "emission_jitter", "rng_seed", "body_error_prob")


def load_experiment_config(inp: IO[str]):
    """Build a SimConfig from a JSON experiment document.

    Returns ``(config, out_path)`` where ``out_path`` is the optional
    "out" entry of the document, a string or None.  ``params.L`` may not
    exceed 256, since a trace stores each ACC as one byte, and the trace
    must pass ``check_trace_fits``.
    """
    try:
        doc = json.load(inp)
    except (ValueError, RecursionError) as exc:  # an over-long int or deep nesting too
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
        # the trace's limit, checked before a table of L intervals is built
        L = check_count("params.L", params_doc.get("L", ProtocolParams.L), 2)
        if L > 256:
            raise ConfigError(f"params.L {L} exceeds 256: a trace's acc_hex column holds one byte")
        params = ProtocolParams(**params_doc)
        cfg = SimConfig(params=params, **{k: doc[k] for k in _TRACE_KEYS if k in doc})
        check_trace_fits(cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a path string or null, got {out!r}")
    return cfg, out
