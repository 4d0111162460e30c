import io
import json

import pytest

from accpair.simulate import SimConfig, generate_trace
from accpair.slots import PacketArrival
from accpair.traceio import (
    ConfigError,
    TraceFormatError,
    load_experiment_config,
    read_trace,
    write_trace,
)

HEADER = "time_s,acc_hex,crc_ok,meter_id,true_acc_hex\n"


def parse(text):
    return read_trace(io.StringIO(text))


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
        # SimConfig fields that trace generation never reads
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
