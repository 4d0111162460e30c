"""Self-test of the benchmark: tiny runs of every workload, in-process.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402

run.load_accpair()

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

#: The end-to-end figures the summary lines print by their users' names.
SUMMARY_NAMES = {
    "setup_s": "s",
    "replay_pkts_per_s": "packets/s",
    "gentrace_pkts_per_s": "packets/s",
    "mc_trials_per_s": "trials/s",
    "closed_form_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "failed/attempted",
}


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def units(metrics):
    return {name: value["unit"] for name, value in metrics.items()}


def test_spec_lists_the_workloads_and_metrics_the_runner_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)


def test_tiny_runs_print_every_metric_with_its_unit():
    summaries = []
    for name in run.WORKLOADS:
        lines = []
        plain = run.run_workload(name, seed=1, seconds=0.0, trace=False, tiny=True, lines=lines)
        assert plain["correct"] and plain["failed"] == 0, (name, lines)
        assert units(plain["metrics"]) == dict(run.END_TO_END)
        assert all(value["value"] > 0 for value in plain["metrics"].values())
        summaries.extend(lines)

        traced = run.run_workload(name, seed=1, seconds=0.0, trace=True, tiny=True)
        assert traced["correct"], name
        assert units(traced["metrics"]) == dict(tracing.PER_LAYER)
    for metric, unit in SUMMARY_NAMES.items():
        assert any(line.startswith(f"{metric} = ") and line.split()[3] == unit
                   for line in summaries), metric


def test_traced_counts_repeat_for_a_seed():
    first = run.run_workload("replay-noisy-m1", seed=2, seconds=0.0, trace=True, tiny=True)
    second = run.run_workload("replay-noisy-m1", seed=2, seconds=0.0, trace=True, tiny=True)
    counts = {m for m, unit in tracing.PER_LAYER if unit == "count"}
    assert {m: first["metrics"][m] for m in counts} == {m: second["metrics"][m] for m in counts}
    assert first["metrics"]["engine.on_arrival.calls"]["value"] > 0


def test_tracer_restores_the_original_functions():
    import accpair.slots
    import accpair.timing

    before = accpair.slots.slot_bounds, accpair.timing.nominal_interval
    tracer = tracing.Tracer()
    tracer.install()
    assert accpair.slots.slot_bounds is not before[0]
    tracer.uninstall()
    assert (accpair.slots.slot_bounds, accpair.timing.nominal_interval) == before


def test_corrupted_replay_csv_counts_as_failed(monkeypatch):
    from accpair import cli

    real_main = cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        if argv[0] == "replay":
            out = Path(argv[argv.index("--out") + 1])
            out.write_text(out.read_text().replace("\n1,", "\n1,1", 1))
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    lines = []
    result = run.run_workload("replay-clean-m0", seed=1, seconds=0.0, trace=False, tiny=True,
                              lines=lines)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any(line.startswith("error_rate = ") and float(line.split()[2]) > 0 for line in lines)


def test_replay_trace_is_made_outside_the_measuring_process(monkeypatch):
    import accpair.simulate

    def refuse(*args, **kwargs):
        raise AssertionError("trace generated in the measuring process")

    monkeypatch.setattr(accpair.simulate, "generate_trace", refuse)
    result = run.run_workload("replay-clean-m0", seed=1, seconds=0.0, trace=False, tiny=True)
    assert result["correct"]


def test_recorded_digests_are_checked(tmp_path):
    workload = run.Workload("fd-mc-m1", {}, run.DEFAULT_SEED, tmp_path, recorded=True)
    with pytest.raises(run.OutputError):
        workload.check_first(b"not the recorded output")


def test_recorded_plan_values_allow_last_bit_differences(tmp_path):
    import math

    workload = run.PlanWorkload("analytic-plan", run.WORKLOADS["analytic-plan"],
                                run.DEFAULT_SEED, tmp_path, recorded=True)
    rows = (BENCH_DIR / "expected_plan_seed0.csv").read_text().splitlines()

    def nudged(scale):
        out = []
        for row in rows:
            key, _, value = row.rpartition(",")
            if "." in value or "e" in value:
                value = repr(float(value) * scale if scale else math.nextafter(float(value), 1.0))
            out.append(f"{key},{value}")
        return ("\n".join(out) + "\n").encode()

    workload.check_recorded(nudged(0))
    with pytest.raises(run.OutputError):
        workload.check_recorded(nudged(1 + 1e-9))


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fd-mc-m1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
