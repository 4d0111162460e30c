import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import accpair
from accpair.cli import EXIT_INTERNAL, EXIT_OK, EXIT_PARSE, EXIT_USAGE, _parse_n_range, main
from accpair.simulate import SimConfig, generate_trace
from accpair.traceio import write_trace

HEADER = "time_s,acc_hex,crc_ok,meter_id,true_acc_hex\n"

#: an int that no float can hold: converting it raises OverflowError
HUGE = 10**400


def run(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else None


class TestAnalytic:
    def test_single_point(self, tmp_path):
        code, text = run(tmp_path, "analytic", "--M", "0", "--n-range", "200:200",
                         "--acc", "0x40")
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == "n,acc,q"
        n, acc, q = lines[1].split(",")
        assert (n, acc) == ("200", "40")
        assert float(q) == pytest.approx(1.211e-4, rel=1e-3)

    def test_zero_meters(self, tmp_path):
        code, text = run(tmp_path, "analytic", "--M", "0", "--n-range", "0:0")
        assert code == EXIT_OK
        assert float(text.splitlines()[1].split(",")[2]) == 0.0

    def test_all_accs_enumerated(self, tmp_path):
        code, text = run(tmp_path, "analytic", "--M", "1", "--n-range", "100:200:100",
                         "--acc", "all")
        assert code == EXIT_OK
        assert len(text.splitlines()) == 1 + 2 * 256

    def test_bad_range_is_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "analytic", "--n-range", "oops")
        assert code == EXIT_USAGE

    def test_bad_threshold_writes_nothing(self, tmp_path, capsys):
        assert run(tmp_path, "analytic", "--M", "9", "--n-range", "0:2") == (EXIT_USAGE, None)
        assert main(["analytic", "--M", "9", "--n-range", "0:2"]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("text", ["5:3", "0:5:0", "-1:5"])
    def test_empty_or_negative_range_is_usage_error_without_output(self, tmp_path, capsys, text):
        assert exit_code(tmp_path, ["analytic", f"--n-range={text}"]) == EXIT_USAGE
        assert "invalid --n-range" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_stdout_gets_the_bytes_of_out(self, tmp_path, capsys):
        argv = ["analytic", "--M", "1", "--n-range", "0:400:200", "--acc", "0x40"]
        _, text = run(tmp_path, *argv)
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize("out", [True, False], ids=["out", "stdout"])
    def test_meter_count_too_large_for_a_float_writes_nothing(self, tmp_path, capsys, out):
        argv = ["analytic", "--n-range", f"{HUGE}:{HUGE}"]
        code = exit_code(tmp_path, argv) if out else main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert "meter count must be finite" in captured.err
        assert not (tmp_path / "out.csv").exists()

    def test_large_range_is_not_materialized(self):
        assert len(_parse_n_range("1:1000000000000")) == 10**12


class TestSimulate:
    def test_fd_reproducible(self, tmp_path):
        argv = ["simulate", "--kind", "fd", "--epsilon", "0", "--p", "0", "--M", "0",
                "--n", "200", "--trials", "500", "--seed", "1"]
        _, first = run(tmp_path, *argv)
        _, second = run(tmp_path, *argv)
        assert first == second
        assert first.splitlines()[0] == "kind,n,M,epsilon,p,trials,estimate,std_error"

    def test_memory_exact(self, tmp_path):
        code, text = run(tmp_path, "simulate", "--kind", "memory", "--M", "1",
                         "--n", "5", "--trials", "2", "--horizon", "120")
        assert code == EXIT_OK
        assert float(text.splitlines()[1].split(",")[6]) == 9.0

    def test_rejects_zero_trials(self, tmp_path):
        code, _ = run(tmp_path, "simulate", "--kind", "fd", "--trials", "0")
        assert code == EXIT_USAGE

    def test_seed_from_environment(self, tmp_path, monkeypatch):
        argv = ["simulate", "--kind", "fd", "--M", "0", "--trials", "200"]
        _, explicit = run(tmp_path, *argv, "--seed", "5")
        monkeypatch.setenv("ACCPAIR_SEED", "5")
        _, from_env = run(tmp_path, *argv)
        assert from_env == explicit

    def test_non_integer_seed_environment_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ACCPAIR_SEED", "abc")
        code, _ = run(tmp_path, "simulate", "--kind", "fd", "--trials", "10")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("text", [" 5", "5\n", "1_000", "\u0663", "+5", "-3", ""])
    def test_seed_environment_must_be_ascii_digits(self, tmp_path, monkeypatch, capsys, text):
        monkeypatch.setenv("ACCPAIR_SEED", text)
        code, _ = run(tmp_path, "simulate", "--kind", "fd", "--trials", "10")
        assert code == EXIT_USAGE
        assert "ACCPAIR_SEED must be an integer" in capsys.readouterr().err


class TestReplay:
    def test_chain_trace(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text(
            HEADER
            + "0.000000000,40,1,m,40\n"
            + "16.000000000,41,1,m,41\n"
            + "31.992187500,42,1,m,42\n"
        )
        code, text = run(tmp_path, "replay", str(trace), "--M", "0")
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == "step,cc,ce,ec,ee,ee_false,fd_percent"
        assert lines[1].startswith("1,2,0,0,0,0,")

    def test_empty_trace_gives_header_only(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text(HEADER)
        code, text = run(tmp_path, "replay", str(trace))
        assert code == EXIT_OK
        assert text == "step,cc,ce,ec,ee,ee_false,fd_percent\n"

    def test_no_ground_truth_leaves_columns_empty(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text(HEADER + "0.000000000,40,1,,\n16.000000000,41,1,,\n")
        code, text = run(tmp_path, "replay", str(trace))
        assert code == EXIT_OK
        assert text.splitlines()[1] == "1,1,0,0,0,,"

    def test_one_unverified_pairing_leaves_columns_empty(self, tmp_path):
        # the first pairing has ground truth on both packets, the second
        # an arrival without a meter id
        trace = tmp_path / "t.csv"
        trace.write_text(
            HEADER
            + "0.000000000,40,1,m,40\n16.000000000,41,1,m,41\n"
            + "300.000000000,40,1,q,40\n316.000000000,41,1,,\n"
        )
        code, text = run(tmp_path, "replay", str(trace))
        assert code == EXIT_OK
        assert text.splitlines()[1] == "1,2,0,0,0,,"

    def test_blank_line_between_rows_is_skipped(self, tmp_path):
        rows = ["0.000000000,40,1,m,40\n", "16.000000000,41,1,m,41\n"]
        trace = tmp_path / "t.csv"
        trace.write_text(HEADER + "".join(rows))
        _, plain = run(tmp_path, "replay", str(trace))
        trace.write_text(HEADER + "\n".join(rows))
        assert run(tmp_path, "replay", str(trace)) == (EXIT_OK, plain)

    @pytest.mark.parametrize("rows, step_1", [
        # two erroneous packets of different meters pair falsely
        (["0.000000000,40,0,a,40", "16.000000000,41,0,b,41"], "1,0,0,0,1,1,100.0000"),
        # a false pairing outside EE counts in fd_percent but not in ee_false
        (["0.000000000,40,1,a,40", "16.000000000,41,1,b,41"], "1,1,0,0,0,0,100.0000"),
        (["0.000000000,40,1,m,40", "16.000000000,41,1,m,41",
          "300.000000000,40,0,a,40", "316.000000000,41,0,b,41"], "1,1,0,0,1,1,50.0000"),
    ])
    def test_false_pairing_columns(self, tmp_path, rows, step_1):
        trace = tmp_path / "t.csv"
        trace.write_text(HEADER + "".join(row + "\n" for row in rows))
        code, text = run(tmp_path, "replay", str(trace))
        assert code == EXIT_OK
        assert text.splitlines()[1] == step_1

    def test_no_pairing_leaves_columns_empty(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text(HEADER + "0.000000000,40,1,m,40\n5.000000000,41,1,n,41\n")
        code, text = run(tmp_path, "replay", str(trace))
        assert code == EXIT_OK
        assert text.splitlines()[1:] == [f"{step},0,0,0,0,," for step in range(1, 11)]

    def test_timeout_with_overlapping_windows_is_usage_error(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text(HEADER)
        code, _ = run(tmp_path, "replay", str(trace), "--timeout", "7000")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("option, message", [
        (["--M", "9"], "threshold M must be an integer in 0..8, got 9"),
        (["--timeout", "0"], "timeout must be an integer >= 1, got 0"),
    ], ids=["M", "timeout"])
    @pytest.mark.parametrize("rows", ["1.0,zz,1,,\n", None, "0.0,40,1,m,40\n"],
                             ids=["malformed", "missing", "valid"])
    def test_option_error_is_reported_before_the_trace_is_read(self, tmp_path, capsys,
                                                               option, message, rows):
        trace = tmp_path / "t.csv"
        if rows is not None:
            trace.write_text(HEADER + rows)
        code, text = run(tmp_path, "replay", str(trace), *option)
        assert (code, text) == (EXIT_USAGE, None)
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_parse_failure_exit_code(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text(HEADER + "2.0,40,1,,\n1.0,41,1,,\n")
        code, _ = run(tmp_path, "replay", str(trace))
        assert code == EXIT_PARSE

    def test_signed_hex_is_parse_error(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text(HEADER + "1.0,-1,1,,\n")
        code, _ = run(tmp_path, "replay", str(trace))
        assert code == EXIT_PARSE

    def test_missing_file(self, tmp_path):
        code, _ = run(tmp_path, "replay", str(tmp_path / "nope.csv"))
        assert code == EXIT_PARSE

    def test_directory_is_parse_error(self, tmp_path):
        code, _ = run(tmp_path, "replay", str(tmp_path))
        assert code == EXIT_PARSE

    def test_undecodable_file_is_parse_error(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_bytes(HEADER.encode() + b"\xff\xfe\n")
        code, _ = run(tmp_path, "replay", str(trace))
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("time", ["1_0.5", " \u0663\u0663 "])
    def test_time_spelling_is_parse_error(self, tmp_path, capsys, time):
        trace = tmp_path / "t.csv"
        trace.write_text(HEADER + f"1.0,40,1,,\n{time},41,1,,\n")
        code, text = run(tmp_path, "replay", str(trace))
        assert (code, text) == (EXIT_PARSE, None)
        assert "line 3: bad time" in capsys.readouterr().err

    def test_nan_time_is_parse_error(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text(HEADER + "1.0,40,1,,\nnan,41,1,,\n0.5,42,1,,\n")
        code, _ = run(tmp_path, "replay", str(trace))
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("last, message", [
        ("0.5,42,1,,\n", "time 0.5 precedes previous row"),
        ("999.0,zz,1,,\n", "acc_hex must be two hex digits, got 'zz'"),
        ("999.0,40,1," + "m" * 200_000 + ",\n", "field larger than field limit"),
    ], ids=["out-of-order", "bad-hex", "field-over-limit"])
    def test_bad_last_row_writes_nothing(self, tmp_path, capsys, last, message):
        trace = tmp_path / "t.csv"
        with open(trace, "w", encoding="utf-8", newline="") as out:
            rows = write_trace(out, generate_trace(SimConfig(n=5, horizon=200.0, rng_seed=3)))
            out.write(last)
        error = f"error: line {rows + 2}: {message}"
        code, text = run(tmp_path, "replay", str(trace))
        assert (code, text) == (EXIT_PARSE, None)
        assert capsys.readouterr().err.startswith(error)
        assert main(["replay", str(trace)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(error)


def replay_peak_bytes(tmp_path, horizon):
    """tracemalloc peak of ``accpair replay`` on a clean n=100 trace of ``horizon`` seconds."""
    trace = tmp_path / f"clean-{horizon:g}.csv"
    if not trace.exists():
        with open(trace, "w", encoding="utf-8", newline="") as out:
            write_trace(out, generate_trace(SimConfig(n=100, horizon=horizon, rng_seed=0)))
    tracemalloc.start()
    try:
        code = main(["replay", str(trace), "--out", str(tmp_path / "out.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    return peak


def test_replay_memory_does_not_grow_with_the_trace(tmp_path):
    # the trace streams through the engine, which holds only the live slots,
    # so four times the trace needs about the same memory
    replay_peak_bytes(tmp_path, 600.0)  # warm-up: imports and cached window rows
    short, long = replay_peak_bytes(tmp_path, 600.0), replay_peak_bytes(tmp_path, 2400.0)
    assert long <= 1.2 * short, (short, long)


@pytest.mark.parametrize("argv, code, message", [
    # 10**15 meters put about 4e11 interferers in one step-1 window, beyond
    # any machine's memory; 10**12 (about 4e8) is refused below about 40 GB
    (["simulate", "--kind", "fd", "--n", "1000000000000000", "--trials", "1"], EXIT_USAGE,
     "interferers in a trial's step-1 windows"),
    (["simulate", "--kind", "memory", "--n", "5", "--trials", "2", "--horizon", "1e12"],
     EXIT_USAGE, "trace rows over horizon = 1e\\+12 s"),
    (["gentrace", "--config", "CONFIG"], EXIT_PARSE, "trace rows over horizon = 1e\\+12 s"),
], ids=["fd", "memory", "gentrace"])
def test_work_beyond_physical_memory_is_refused_at_once(tmp_path, capsys, argv, code, message):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({"n": 5, "horizon": 1e12}))
    start = time.perf_counter()
    got, text = run(tmp_path, *[str(config) if a == "CONFIG" else a for a in argv])
    assert time.perf_counter() - start < 1.0
    assert (got, text) == (code, None)
    assert re.search(f"{message}: .* would not fit in the .* GiB of physical memory",
                     capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["simulate", "--kind", "fd", "--n", "10"],
    ["simulate", "--kind", "memory", "--n", "2", "--horizon", "100"],
], ids=["fd", "memory"])
def test_trial_count_beyond_physical_memory_exits_2(argv):
    # one result per trial is kept, so 10**400 trials could never be summarised;
    # a subprocess, so that a run that is not refused is killed by the timeout
    paths = [str(Path(accpair.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-m", "accpair.cli", *argv, "--trials", str(HUGE)],
                          capture_output=True, text=True, env=env, timeout=30)
    assert (done.returncode, done.stdout) == (EXIT_USAGE, "")
    assert re.match(r"error: trial results: .* would not fit in the .* GiB of physical memory",
                    done.stderr)


BAD_INTEGERS = ["\u0663", "1_0", " 5"]

#: (argv, option, its value with {} for the bad text, what stderr must say)
INTEGER_OPTIONS = [
    (["analytic", "--n-range", "0:0"], "--M", "{}", "invalid integer value"),
    (["analytic"], "--n-range", "{}:20", "must be integers"),
    (["analytic"], "--n-range", "10:{}", "must be integers"),
    (["analytic"], "--n-range", "10:20:{}", "must be integers"),
    (["analytic", "--n-range", "0:0"], "--acc", "{}", "or a byte value"),
    (["simulate", "--kind", "fd", "--trials", "3"], "--M", "{}", "invalid integer value"),
    (["simulate", "--kind", "fd", "--trials", "3"], "--n", "{}", "invalid integer value"),
    (["simulate", "--kind", "fd"], "--trials", "{}", "invalid integer value"),
    (["simulate", "--kind", "fd", "--trials", "3"], "--seed", "{}", "invalid integer value"),
    (["replay", "TRACE"], "--M", "{}", "invalid integer value"),
    (["replay", "TRACE"], "--timeout", "{}", "invalid integer value"),
]


def exit_code(tmp_path, argv):
    trace = tmp_path / "t.csv"
    trace.write_text(HEADER + "0.000000000,40,1,m,40\n")
    argv = [str(trace) if a == "TRACE" else a for a in argv]
    try:
        return main([*argv, "--out", str(tmp_path / "out.csv")])
    except SystemExit as exc:  # argparse rejects a bad type= value
        return exc.code


class TestIntegerOptions:
    """Integer options take ASCII digits only, not every spelling int() takes."""

    @pytest.mark.parametrize("bad", BAD_INTEGERS)
    @pytest.mark.parametrize("argv,option,value,message", INTEGER_OPTIONS)
    def test_rejected_without_output(self, tmp_path, capsys, argv, option, value, message, bad):
        assert exit_code(tmp_path, [*argv, option, value.format(bad)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("acc", ["0x4_0", " 64 ", "64\n"])
    def test_acc_rejected_without_output(self, tmp_path, capsys, acc):
        argv = ["analytic", "--n-range", "0:0", "--acc", acc]
        assert exit_code(tmp_path, argv) == EXIT_USAGE
        assert "or a byte value" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("acc", ["0x100", "256", "-1"])
    def test_acc_outside_the_counter_rejected_without_output(self, tmp_path, acc):
        argv = ["analytic", "--n-range", "0:0", f"--acc={acc}"]
        assert exit_code(tmp_path, argv) == EXIT_USAGE
        assert not (tmp_path / "out.csv").exists()

    def test_hex_acc_still_accepted(self, tmp_path):
        _, hexa = run(tmp_path, "analytic", "--n-range", "10:10", "--acc", "0x40")
        _, decimal = run(tmp_path, "analytic", "--n-range", "10:10", "--acc", "64")
        assert hexa == decimal == "n,acc,q\n10,40,6.054669170417e-06\n"


FD = ["simulate", "--kind", "fd", "--trials", "2"]
#: (argv, float option) of every float option
FLOAT_OPTIONS = [(FD, "--epsilon"), (FD, "--p"), (FD, "--horizon")]


class TestFloatOptions:
    """Float options take ASCII text only, as the integer options do."""

    @pytest.mark.parametrize("bad", ["\u0660", "0_0", " 0.5", "0.5\n", "0.5\u00a0"])
    @pytest.mark.parametrize("argv,option", FLOAT_OPTIONS)
    def test_rejected_without_output(self, tmp_path, capsys, argv, option, bad):
        assert exit_code(tmp_path, [*argv, option, bad]) == EXIT_USAGE
        assert "invalid real value" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_other_float_spellings_still_accepted(self, tmp_path):
        outputs = {run(tmp_path, *FD, "--p", p, "--epsilon", e, "--horizon", h)
                   for p, e, h in [("0.5", "0.01", "600"), ("5e-1", "1E-2", "+6e2"),
                                   (".5", "0.010", "600.0")]}
        assert len(outputs) == 1
        assert outputs.pop() == (EXIT_OK, "kind,n,M,epsilon,p,trials,estimate,std_error\n"
                                          "fd,200,0,0.01,0.5,2,0.000000000e+00,0.000000000e+00\n")


class TestInternalError:
    def test_any_other_exception_exits_4_without_traceback(self, tmp_path, monkeypatch, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text(HEADER + "1.0,40,1,,\n")
        for exc in (RuntimeError("engine state"), KeyError(7)):
            def fail(trace, engine, exc=exc):
                raise exc

            monkeypatch.setattr("accpair.cli.replay", fail)
            code, _ = run(tmp_path, "replay", str(trace))
            assert code == EXIT_INTERNAL
            err = capsys.readouterr().err
            assert err == f"internal error: {type(exc).__name__}: {exc}\n"


class TestGentrace:
    def write_config(self, tmp_path, **doc):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(doc))
        return cfg

    def test_three_packets(self, tmp_path):
        cfg = self.write_config(tmp_path, n=1, horizon=40.0, rng_seed=9)
        code, text = run(tmp_path, "gentrace", "--config", str(cfg))
        assert code == EXIT_OK
        assert len(text.splitlines()) == 1 + 3

    def test_full_erasure(self, tmp_path):
        cfg = self.write_config(tmp_path, n=4, p=1.0, horizon=100.0)
        code, text = run(tmp_path, "gentrace", "--config", str(cfg))
        assert code == EXIT_OK
        assert len(text.splitlines()) == 1

    def test_unknown_key_rejected(self, tmp_path):
        cfg = self.write_config(tmp_path, n=1, horizon=40.0, wat=1)
        code, _ = run(tmp_path, "gentrace", "--config", str(cfg))
        assert code == EXIT_PARSE

    def test_infinite_param_is_parse_error(self, tmp_path):
        cfg = self.write_config(tmp_path, n=1, horizon=40.0, params={"nu_b": math.inf})
        assert "Infinity" in cfg.read_text()
        code, text = run(tmp_path, "gentrace", "--config", str(cfg))
        assert (code, text) == (EXIT_PARSE, None)

    @pytest.mark.parametrize("doc", [
        {"horizon": HUGE}, {"emission_jitter": HUGE},
        *({"params": {name: HUGE}} for name in ("t", "nu_a", "nu_b", "gamma_a", "gamma_b"))],
        ids=lambda doc: next(iter(doc.get("params", doc))))
    def test_number_too_large_for_a_float_is_parse_error(self, tmp_path, capsys, doc):
        cfg = self.write_config(tmp_path, **{"n": 2, "horizon": 40.0, **doc})
        code, text = run(tmp_path, "gentrace", "--config", str(cfg))
        assert (code, text) == (EXIT_PARSE, None)
        assert "must be finite" in capsys.readouterr().err

    def test_boolean_number_is_parse_error(self, tmp_path):
        params = {"t": True, "nu_a": False}
        for doc in ({"epsilon": True, "params": params}, {"epsilon": True}, {"params": params}):
            cfg = self.write_config(tmp_path, n=2, horizon=40.0, **doc)
            code, text = run(tmp_path, "gentrace", "--config", str(cfg))
            assert (code, text) == (EXIT_PARSE, None)

    def test_out_that_is_not_a_path_is_parse_error(self, tmp_path, capsys):
        for out in (True, 7, ["a"]):
            cfg = self.write_config(tmp_path, n=1, horizon=20.0, out=out)
            assert main(["gentrace", "--config", str(cfg)]) == EXIT_PARSE
            assert capsys.readouterr().out == ""

    def test_counter_wider_than_a_byte_is_parse_error(self, tmp_path):
        cfg = self.write_config(tmp_path, n=2, horizon=40.0, params={"L": 512})
        code, text = run(tmp_path, "gentrace", "--config", str(cfg))
        assert (code, text) == (EXIT_PARSE, None)

    def test_params_not_an_object_is_parse_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, n=2, horizon=40.0, params=[["L", 16]])
        code, text = run(tmp_path, "gentrace", "--config", str(cfg))
        assert (code, text) == (EXIT_PARSE, None)
        assert "params must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, '{"n": ' + "9" * 5_000 + "}"],
                             ids=["deep-nesting", "5000-digit-n"])
    def test_json_decoder_failures_are_parse_errors(self, tmp_path, capsys, text):
        cfg = tmp_path / "exp.json"
        cfg.write_text(text)
        assert main(["gentrace", "--config", str(cfg)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid JSON: ")

    def test_config_directory_is_parse_error(self, tmp_path):
        code, _ = run(tmp_path, "gentrace", "--config", str(tmp_path))
        assert code == EXIT_PARSE

    def test_roundtrip_with_replay(self, tmp_path):
        cfg = self.write_config(tmp_path, n=5, epsilon=0.03125, horizon=200.0, rng_seed=3)
        trace_path = tmp_path / "trace.csv"
        assert main(["gentrace", "--config", str(cfg), "--out", str(trace_path)]) == EXIT_OK
        rows = len(trace_path.read_text().splitlines()) - 1
        code, text = run(tmp_path, "replay", str(trace_path), "--M", "0")
        assert code == EXIT_OK
        paired = sum(
            int(v) for line in text.splitlines()[1:] for v in line.split(",")[1:5]
        )
        assert 0 < 2 * paired <= 2 * rows  # every pairing consumes two received rows
