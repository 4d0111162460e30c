"""Child process that writes and checks a replay workload's trace.

    python3 perfbench/make_trace.py SPEC_JSON SEED WORKDIR

Runs ``accpair gentrace`` for the workload spec into ``WORKDIR/trace.csv``
and checks the trace with ``run.check_trace``.  The replay workloads call
it before any timing, so that the trace objects gentrace builds do not
count in the measuring process's ``peak_rss_mb``.  Prints one JSON object:
``rows``, ``meters`` and the trace's ``sha256``.
"""

import json
import sys
from pathlib import Path

import run


def main(argv) -> int:
    spec_json, seed, work = argv
    spec = json.loads(spec_json)
    run.load_accpair()
    gen = run.GentraceWorkload("trace", spec, int(seed), Path(work))
    gen.op()
    with gen.trace.open("r", encoding="utf-8", newline="") as lines:
        rows, meters = run.check_trace(lines, spec["n"], spec["epsilon"])
    print(json.dumps({"rows": rows, "meters": meters, "sha256": run.sha256(gen.output())}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
