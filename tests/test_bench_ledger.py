import importlib.util
from pathlib import Path

LEDGER_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_ledger.py"
spec = importlib.util.spec_from_file_location("bench_ledger", LEDGER_PATH)
bench_ledger = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ledger)

METRICS = [{"name": "speed", "better": "higher"}, {"name": "rss", "better": "lower"}]


def result(speed, rss, failed=0):
    return {"correct": failed == 0, "failed": failed,
            "metrics": {"speed": {"value": speed}, "rss": {"value": rss}}}


def test_summary_of_fixed_numbers():
    runs = {"w": {
        "parent": [result(10.0, 5.0), result(12.0, 5.0), result(11.0, 4.0), result(13.0, 6.0)],
        "change": [result(15.0, 5.5), result(11.0, 4.0), result(14.0, 4.0, failed=2),
                   result(16.0, 5.0)],
    }}
    ledger = bench_ledger.summarize(runs, METRICS)
    entry = ledger["end_to_end"]["w"]
    # numpy.percentile, linear: 10, 11, 12, 13 has q1 10.75, median 11.5, q3 12.25
    assert entry["parent"]["speed"] == {"median": 11.5, "q1": 10.75, "q3": 12.25}
    assert entry["change"]["speed"] == {"median": 14.5, "q1": 13.25, "q3": 15.25}
    assert entry["parent"]["runs"] == entry["change"]["runs"] == 4
    assert entry["speed_ratio"] == round(14.5 / 11.5, 3) == 1.261
    assert entry["rss_ratio"] == round(4.5 / 5.0, 3)
    # higher speed wins at seeds 1, 3, 4; lower rss at seeds 2 and 4, not the tie at 3
    assert ledger["speed_wins"] == {"w": "3/4"}
    assert ledger["rss_wins"] == {"w": "2/4"}
    assert ledger["failed_operations"] == {"w": {"parent": 0, "change": 2}}
    assert ledger["correct"] == {"w": False}
    assert ledger["speed_by_seed"]["w"]["change"] == [15.0, 11.0, 14.0, 16.0]
    assert list(ledger) == ["end_to_end", "speed_wins", "rss_wins", "failed_operations",
                            "correct", "speed_by_seed", "rss_by_seed"]


def test_a_run_that_did_not_finish_counts_as_failed_and_loses():
    runs = {"w": {"parent": [result(10.0, 5.0), result(10.0, 5.0)],
                  "change": [{"correct": False, "failed": 1, "metrics": {}}, result(20.0, 4.0)]}}
    ledger = bench_ledger.summarize(runs, METRICS)
    assert ledger["end_to_end"]["w"]["change"]["speed"]["median"] == 20.0
    assert ledger["speed_wins"] == {"w": "1/2"}
    assert ledger["speed_by_seed"]["w"]["change"] == [None, 20.0]
    assert ledger["correct"] == {"w": False}


def test_table_has_one_row_per_workload():
    runs = {w: {"parent": [result(10.0, 5.0)], "change": [result(12.0, 5.0)]} for w in "ab"}
    text = bench_ledger.table(bench_ledger.summarize(runs, METRICS), METRICS)
    assert text.splitlines()[2:] == [
        "| a | 10 → 12 (1.200, 1/1) | 5 → 5 (1.000, 0/1) |",
        "| b | 10 → 12 (1.200, 1/1) | 5 → 5 (1.000, 0/1) |",
    ]

