import csv
import io
import json
import math
import random
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accpair.simulate import SimConfig, generate_trace
from accpair.slots import PacketArrival
from accpair.timing import ProtocolParams
from accpair.traceio import (
    ConfigError,
    TraceFormatError,
    iter_trace,
    load_experiment_config,
    write_trace,
)

HEADER = "time_s,acc_hex,crc_ok,meter_id,true_acc_hex\n"


def parse(text):
    return list(iter_trace(io.StringIO(text)))


GOOD = PacketArrival(0.5, 0x41, False, meter_id="m", true_acc=0x41)


class TestTraceRoundTrip:
    def test_write_then_read(self):
        trace = generate_trace(SimConfig(n=3, epsilon=1 / 32, horizon=120.0, rng_seed=8))
        buf = io.StringIO()
        rows = write_trace(buf, trace)
        assert rows == len(trace)
        parsed = parse(buf.getvalue())
        assert len(parsed) == len(trace)
        for a, b in zip(trace, parsed):
            assert abs(a.time - b.time) < 1e-9
            assert (a.acc, a.erroneous, a.meter_id, a.true_acc) == (
                b.acc, b.erroneous, b.meter_id, b.true_acc,
            )

    def test_lf_line_endings(self):
        buf = io.StringIO()
        write_trace(buf, generate_trace(SimConfig(n=1, horizon=40.0, rng_seed=1)))
        assert "\r" not in buf.getvalue()


class TestWriteRefusesUnreadableRows:
    def test_edge_values_round_trip(self):
        trace = [PacketArrival(-1.5, 0x00, True),
                 PacketArrival(0.0, 0xff, False, meter_id="m", true_acc=0xff)]
        buf = io.StringIO()
        assert write_trace(buf, trace) == 2
        assert parse(buf.getvalue()) == trace

    @pytest.mark.parametrize("rows, message", [
        ([GOOD, PacketArrival(1.0, 0x19a, True, meter_id="m", true_acc=0x19a)], "ACC 410 "),
        ([GOOD, PacketArrival(1.0, -1, True)], "ACC -1 "),
        ([GOOD, PacketArrival(1.0, 0x40, False, meter_id="m", true_acc=256)], "ACC 256 "),
        ([GOOD, PacketArrival(math.nan, 0x40, True)], "time nan "),
        ([GOOD, PacketArrival(math.inf, 0x40, True)], "time inf "),
        ([PacketArrival(2.0, 1, False), PacketArrival(1.0, 2, False)], "time 1.0 "),
        ([GOOD, PacketArrival(1.0, 0x40, True, meter_id="a\rb")], "meter_id 'a\\rb' "),
        ([GOOD, PacketArrival(1.0, 0x40, True, meter_id="a\0b")], "meter_id 'a\\x00b' "),
        ([PacketArrival(-math.inf, 0x40, True)], "time -inf "),
        ([GOOD, PacketArrival(1.0, 0x40, True, meter_id="m" * (csv.field_size_limit() + 1))],
         "meter_id 'mmm"),
        ([GOOD, PacketArrival(10**400, 0x40, True)], "time 1000"),
    ], ids=["L512-acc", "negative-acc", "true-acc", "nan-time", "inf-time", "out-of-order",
            "carriage-return-id", "nul-id", "first-time-minus-inf", "id-over-field-limit",
            "int-too-large-for-a-float"])
    def test_row_iter_trace_would_reject_raises(self, rows, message):
        buf = io.StringIO()
        with pytest.raises(ValueError, match=re.escape(f"row {len(rows)}: {message}")):
            write_trace(buf, rows)
        # the rows before the bad one may be written, and they read back
        assert parse(buf.getvalue()) in ([], rows[:-1])

    def test_longest_meter_id_the_reader_takes_round_trips(self):
        trace = [PacketArrival(1.0, 0x40, True, meter_id="m" * csv.field_size_limit())]
        buf = io.StringIO()
        assert write_trace(buf, trace) == 1
        assert parse(buf.getvalue()) == trace

    @given(st.lists(st.tuples(
        st.floats(), st.integers(-1, 256), st.booleans(),
        st.none() | st.text(min_size=1), st.none() | st.integers(-1, 256)), max_size=6),
        st.booleans())
    @settings(max_examples=2000, deadline=None)
    def test_every_trace_written_reads_back(self, fields, in_time_order):
        if in_time_order:
            fields.sort(key=lambda f: f[0])
        trace = [PacketArrival(t, acc, err, meter_id, None if meter_id is None else true_acc)
                 for t, acc, err, meter_id, true_acc in fields]
        # the times as written, to 9 fractional digits
        expected = [replace(pkt, time=float(f"{pkt.time:.9f}")) for pkt in trace
                    if math.isfinite(pkt.time)]
        buf = io.StringIO()
        try:
            assert write_trace(buf, trace) == len(trace)
        except ValueError as exc:
            # a refused row is named, and the rows before it read back
            refused = int(re.match(r"row (\d+): ", str(exc)).group(1))
            assert parse(buf.getvalue()) in ([], expected[:refused - 1])
        else:
            assert parse(buf.getvalue()) == expected

    def test_trace_of_a_wider_counter_raises(self):
        trace = generate_trace(SimConfig(params=ProtocolParams(L=512), n=20, horizon=100.0))
        assert max(a.acc for a in trace) > 0xff
        with pytest.raises(ValueError, match="outside 0..255"):
            write_trace(io.StringIO(), trace)


#: meter ids that csv.writer quotes, or keeps as they are, and None
WRITTEN_IDS = [None, "m001", "a,b", 'say "hi"', '"', "line\nfeed", " lead", "trail ", "zähler-ü",
               "電表", " , "]


def csv_writer_bytes(trace):
    """The header and one ``csv.writer`` row per arrival, as UTF-8."""
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(HEADER[:-1].split(","))
    for a in trace:
        writer.writerow((f"{a.time:.9f}", f"{a.acc:02x}", "0" if a.erroneous else "1",
                         a.meter_id or "", "" if a.true_acc is None else f"{a.true_acc:02x}"))
    return ref.getvalue().encode()


class TestWrittenBytes:
    @given(st.lists(st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\r\0"),
                            min_size=1, max_size=6), max_size=4),
           st.integers(0, 1100), st.randoms(use_true_random=False))
    @example([], 1000, random.Random(0))  # runs past several 256-line chunks
    @settings(max_examples=60, deadline=None)
    def test_bytes_are_a_csv_writer_row_per_arrival(self, more_ids, rows, rnd):
        ids, time, trace = WRITTEN_IDS + more_ids, -2.0, []
        for _ in range(rows):
            time += rnd.choice((0.0, 0.5, rnd.random()))
            meter_id = rnd.choice(ids)
            true_acc = None if meter_id is None else rnd.choice((None, rnd.randrange(256)))
            trace.append(PacketArrival(time, rnd.randrange(256), rnd.random() < 0.5, meter_id,
                                       true_acc))
        buf = io.StringIO()
        assert write_trace(buf, trace) == rows
        assert buf.getvalue().encode() == csv_writer_bytes(trace)

    def test_a_refused_row_after_many_chunks_leaves_exactly_the_rows_before_it(self):
        good = [PacketArrival(i / 8, i % 256, i % 3 == 0, WRITTEN_IDS[i % len(WRITTEN_IDS)],
                              None if i % len(WRITTEN_IDS) == 0 else i % 256) for i in range(1000)]
        buf = io.StringIO()
        with pytest.raises(ValueError, match=re.escape("row 1001: ACC 256 ")):
            write_trace(buf, good + [PacketArrival(200.0, 256, False)])
        assert buf.getvalue().encode() == csv_writer_bytes(good)
        assert parse(buf.getvalue()) == good


class TestTraceStreaming:
    def test_yields_a_row_before_the_next_is_checked(self):
        rows = iter_trace(io.StringIO(HEADER + "1.000000000,40,0,m,41\n0.5,zz,1,,\n"))
        assert next(rows) == PacketArrival(1.0, 0x40, True, meter_id="m", true_acc=0x41)
        with pytest.raises(TraceFormatError, match="line 3: time 0.5 precedes"):
            next(rows)


class TestTraceParsing:
    def test_empty_stream(self):
        with pytest.raises(TraceFormatError, match="line 1"):
            parse("")

    def test_bad_header(self):
        with pytest.raises(TraceFormatError, match="line 1"):
            parse("nope\n")

    def test_header_only_is_empty_trace(self):
        assert parse(HEADER) == []

    def test_unsorted_times_rejected_with_line(self):
        text = HEADER + "2.000000000,40,1,,\n1.000000000,41,1,,\n"
        with pytest.raises(TraceFormatError, match="line 3"):
            parse(text)

    def test_malformed_hex(self):
        with pytest.raises(TraceFormatError, match="acc_hex"):
            parse(HEADER + "1.0,zz,1,,\n")

    def test_hex_length_enforced(self):
        with pytest.raises(TraceFormatError, match="two hex digits"):
            parse(HEADER + "1.0,4,1,,\n")

    @pytest.mark.parametrize("text", ["-1", "+f", " f", "f ", "_1", "0x"])
    def test_hex_admits_no_sign_or_space(self, text):
        with pytest.raises(TraceFormatError, match="acc_hex must be two hex digits"):
            parse(HEADER + f"1.0,{text},1,,\n")
        with pytest.raises(TraceFormatError, match="true_acc_hex must be two hex digits"):
            parse(HEADER + f"1.0,40,1,m,{text}\n")

    @pytest.mark.parametrize("text", ["1_0.5", " 33 ", "33\t", "\u0663\u0663", "1.5\u00a0"])
    def test_time_admits_no_underscore_space_or_non_ascii(self, text):
        with pytest.raises(TraceFormatError, match="line 3: bad time"):
            parse(HEADER + f"1.0,40,1,,\n{text},41,1,,\n")

    def test_time_keeps_sign_exponent_and_written_digits(self):
        trace = [PacketArrival(time=t, acc=0x40, erroneous=False) for t in (-2.5, 0.1, 1e3)]
        buf = io.StringIO()
        write_trace(buf, trace)
        assert [p.time for p in parse(buf.getvalue())] == [-2.5, 0.1, 1e3]
        assert [p.time for p in parse(HEADER + "-1e1,40,1,,\n+.5,41,1,,\n")] == [-10.0, 0.5]

    def test_hex_either_case(self):
        assert [p.acc for p in parse(HEADER + "1.0,aB,1,,\n2.0,Ff,1,,\n")] == [0xAB, 0xFF]

    def test_bad_crc_flag(self):
        with pytest.raises(TraceFormatError, match="crc_ok"):
            parse(HEADER + "1.0,40,yes,,\n")

    def test_bad_time(self):
        with pytest.raises(TraceFormatError, match="bad time"):
            parse(HEADER + "abc,40,1,,\n")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_time(self, text):
        with pytest.raises(TraceFormatError, match="line 3: time .* is not finite"):
            parse(HEADER + f"1.0,40,1,,\n{text},41,1,,\n0.5,42,1,,\n")

    def test_true_acc_requires_meter_id(self):
        with pytest.raises(TraceFormatError, match="meter_id"):
            parse(HEADER + "1.0,40,1,,41\n")

    @pytest.mark.parametrize("text, line", [
        ("m" * 200_000 + "\n", 1),
        (HEADER + "1.0,40,1,,\n2.0,40,1," + "m" * 200_000 + ",\n", 3),
    ], ids=["header", "row"])
    def test_field_over_the_csv_limit_names_its_line(self, text, line):
        with pytest.raises(TraceFormatError, match=f"line {line}: field larger than field limit"):
            parse(text)

    def test_line_is_the_physical_line_past_a_quoted_line_break(self):
        with pytest.raises(TraceFormatError, match="line 4: acc_hex"):
            parse(HEADER + '1.0,40,1,"a\nb",\n2.0,zz,1,,\n')

    def test_wrong_field_count(self):
        with pytest.raises(TraceFormatError, match="fields"):
            parse(HEADER + "1.0,40,1\n")

    def test_ground_truth_optional(self):
        trace = parse(HEADER + "1.000000000,40,0,,\n")
        assert trace[0].meter_id is None
        assert trace[0].erroneous


class TestExperimentConfig:
    def good(self, **extra):
        doc = {"n": 10, "epsilon": 0.03125, "horizon": 300.0, "rng_seed": 4}
        doc.update(extra)
        return io.StringIO(json.dumps(doc))

    def test_valid_document(self):
        cfg, out = load_experiment_config(self.good(out="trace.csv"))
        assert cfg.n == 10
        assert cfg.epsilon == 0.03125
        assert out == "trace.csv"

    def test_params_section(self):
        cfg, _ = load_experiment_config(self.good(params={"t": 8.0}))
        assert cfg.params.t == 8.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys: bogus"):
            load_experiment_config(self.good(bogus=1))
        # keys that trace generation never reads
        for key, value in (("M", 1), ("trials", 5), ("timeout", 3), ("slot_policy", "analysis")):
            with pytest.raises(ConfigError, match=f"unknown config keys: {key}$"):
                load_experiment_config(self.good(**{key: value}))

    def test_every_read_key_accepted(self):
        cfg, _ = load_experiment_config(
            self.good(p=0.1, emission_jitter=0.01, body_error_prob=0.5)
        )
        assert (cfg.p, cfg.emission_jitter, cfg.body_error_prob) == (0.1, 0.01, 0.5)

    @pytest.mark.parametrize(
        "text",
        [
            '{"horizon": Infinity}',
            '{"n": 2.5}',
            '{"emission_jitter": 1e400}',
            '{"rng_seed": -1}',
            '{"body_error_prob": 2.0}',
            '{"horizon": 1e12}',
            '{"n": 1000000000000, "horizon": 0}',
            # json raises RecursionError and a plain ValueError for these
            pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
            pytest.param('{"n": ' + "9" * 5_000 + "}", id="5000-digit-n"),
        ],
    )
    def test_values_that_hang_or_crash_later_rejected(self, text):
        with pytest.raises(ConfigError):
            load_experiment_config(io.StringIO(text))

    def test_unknown_params_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown params"):
            load_experiment_config(self.good(params={"speed": 1}))

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_experiment_config(io.StringIO("{"))

    def test_invalid_values_surface_as_config_errors(self):
        with pytest.raises(ConfigError):
            load_experiment_config(self.good(epsilon=2.0))

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            load_experiment_config(io.StringIO("[1, 2]"))

    @pytest.mark.parametrize("out", [True, 7, ["a"], {"path": "a"}])
    def test_out_must_be_a_string_or_null(self, out):
        with pytest.raises(ConfigError, match="out must be a path string or null"):
            load_experiment_config(self.good(out=out))

    def test_absent_or_null_out(self):
        assert load_experiment_config(self.good())[1] is None
        assert load_experiment_config(self.good(out=None))[1] is None

    def test_counter_must_fit_the_acc_hex_byte(self):
        with pytest.raises(ConfigError, match="params.L 512 exceeds 256.*acc_hex"):
            load_experiment_config(self.good(params={"L": 512}))
        for L in (16, 256):
            cfg, _ = load_experiment_config(self.good(params={"L": L}))
            assert cfg.params.L == L

    def test_counter_is_checked_before_the_params_are_built(self):
        # building params of this L would first fill a table of L intervals
        with pytest.raises(ConfigError, match="params.L 65536 exceeds 256"):
            load_experiment_config(self.good(params={"L": 65536}))
