"""Build a ``BENCH_<n>.json`` ledger entry: perfbench on a parent commit against a change.

Each side is extracted with ``git archive`` into a temporary directory, so
the runs read only committed files and leave the repository untouched.  For
every seed, every workload runs once per side with::

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

at seeds 401-410, for every workload and the ``run_seconds`` N of
``BENCHMARK.json``, and the side that goes first alternates by seed: the parent first at the
1st, 3rd, ... seed, second at the others.  The output holds, per workload
and end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles (``numpy.percentile``, linear), the ratio of the medians, the
seeds the change wins and every per-seed value, with failed operations and
correctness.

    python3 tools/bench_ledger.py --out BENCH_<n>.json                # HEAD~1 against HEAD
    python3 tools/bench_ledger.py --parent HEAD --change WORKTREE ...  # uncommitted edits

``WORKTREE`` stands for the tracked files as they are on disk (``git stash
create``; new files count once they are staged).  A full run of five
workloads, ten seeds and 20 s takes about 35 minutes, one process at a time.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO = Path(__file__).resolve().parents[1]

#: The ``--change`` value that names the tracked files on disk, not a commit.
WORKTREE = "WORKTREE"

SEEDS = tuple(range(401, 411))

#: What each workload's ``peak_rss_mb`` can see, where that is less than its work.
PEAK_RSS_SCOPE = {
    "fd-mc-m1": "peak_rss_mb reads RUSAGE_SELF, which does not count the simulate worker "
                "processes",
}


def git(*args: str, binary: bool = False):
    out = subprocess.run(["git", "-C", str(REPO), *args], check=True,
                         stdout=subprocess.PIPE).stdout
    return out if binary else out.decode().strip()


def resolve(rev: str) -> str:
    """The commit ``rev`` names; for ``WORKTREE``, one holding the tracked files on disk."""
    if rev == WORKTREE:
        return git("stash", "create") or git("rev-parse", "HEAD")
    return git("rev-parse", "--verify", f"{rev}^{{commit}}")


def extract(commit: str, dest: Path) -> None:
    """Write the files of ``commit`` under ``dest``."""
    data = git("archive", "--format=tar", commit, binary=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):  # Python 3.12 warns without a filter
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its result object, or a failed one if it did not finish."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return {"correct": False, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    import numpy as np

    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(f"{median:.6g}"), "q1": float(f"{q1:.6g}"),
            "q3": float(f"{q3:.6g}")}


def summarize(runs: Dict[str, Dict[str, List[dict]]], metrics: Sequence[dict]) -> dict:
    """The ledger's statistics from ``runs[workload][side]``, one result per seed.

    ``side`` is ``"parent"`` or ``"change"``; ``metrics`` are ``BENCHMARK.json``'s
    ``end_to_end`` entries, whose ``better`` says which way a win points.  A run
    without a metric (it failed) is left out of that metric's statistics.
    """
    out: dict = {"end_to_end": {}}
    for m in metrics:
        out[f"{m['name']}_wins"] = {}
    out["failed_operations"], out["correct"] = {}, {}
    for m in metrics:
        out[f"{m['name']}_by_seed"] = {}
    for workload, sides in runs.items():
        values = {side: {m["name"]: [r["metrics"].get(m["name"], {}).get("value")
                                     for r in results] for m in metrics}
                  for side, results in sides.items()}
        entry: dict = {}
        for side in ("parent", "change"):
            entry[side] = {}
            for m in metrics:
                got = [v for v in values[side][m["name"]] if v is not None]
                if got:
                    entry[side][m["name"]] = quartiles(got)
            entry[side]["runs"] = len(sides[side])
        for m in metrics:
            name = m["name"]
            if name in entry["parent"] and name in entry["change"]:
                ratio = entry["change"][name]["median"] / entry["parent"][name]["median"]
                entry[f"{name}_ratio"] = round(ratio, 3)
            sign = 1 if m["better"] == "higher" else -1
            pairs = list(zip(values["parent"][name], values["change"][name]))
            wins = sum(1 for p, c in pairs
                       if p is not None and c is not None and sign * (c - p) > 0)
            out[f"{name}_wins"][workload] = f"{wins}/{len(pairs)}"
            out[f"{name}_by_seed"][workload] = {
                side: [None if v is None else float(f"{v:.6g}") for v in values[side][name]]
                for side in ("parent", "change")}
        out["end_to_end"][workload] = entry
        out["failed_operations"][workload] = {
            side: sum(r.get("failed", 0) for r in sides[side]) for side in ("parent", "change")}
        out["correct"][workload] = all(r.get("correct") is True
                                       for side in ("parent", "change") for r in sides[side])
    return out


def table(ledger: dict, metrics: Sequence[dict]) -> str:
    """A Markdown table of the medians, parent -> change, with the ratio and wins."""
    head = "| workload | " + " | ".join(m["name"] for m in metrics) + " |"
    rows = [head, "|---" * (len(metrics) + 1) + "|"]
    for workload, entry in ledger["end_to_end"].items():
        cells = []
        for m in metrics:
            name = m["name"]
            if f"{name}_ratio" not in entry:
                cells.append("n/a")
                continue
            cells.append(f"{entry['parent'][name]['median']:.6g} → "
                         f"{entry['change'][name]['median']:.6g} "
                         f"({entry[f'{name}_ratio']:.3f}, {ledger[f'{name}_wins'][workload]})")
        rows.append(f"| {workload} | " + " | ".join(cells) + " |")
    return "\n".join(rows)


def check_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Exit with a usage error (status 2) before any git command or run if
    ``--claim`` is not ``WORKLOAD:METRIC`` of ``BENCHMARK.json``'s workloads
    and end-to-end metrics, or ``--workdir`` is not a directory and cannot
    be made one."""
    if args.claim is not None:
        bench = json.loads((REPO / "BENCHMARK.json").read_text())
        workload, _, metric = args.claim.partition(":")
        if (workload not in {w["name"] for w in bench["workloads"]}
                or metric not in {m["name"] for m in bench["end_to_end"]}):
            parser.error(f"--claim {args.claim!r} is not WORKLOAD:METRIC, a workload and an "
                         "end-to-end metric of BENCHMARK.json")
    if args.workdir is not None:
        try:
            Path(args.workdir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            parser.error(f"--workdir {args.workdir!r} is not a directory: {exc.strerror}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default=None,
                        help="parent commit (default: HEAD~1, or HEAD with --change WORKTREE)")
    parser.add_argument("--change", default="HEAD", help=f"change commit, or {WORKTREE}")
    parser.add_argument("--out", required=True, help="ledger file to write")
    parser.add_argument("--claim", default=None,
                        help="the gain the change claims, as WORKLOAD:METRIC")
    parser.add_argument("--workdir", default=None,
                        help="where the two trees are extracted; made if missing")
    args = parser.parse_args(argv)
    check_args(parser, args)

    parent_rev = args.parent or ("HEAD" if args.change == WORKTREE else "HEAD~1")
    parent, change = resolve(parent_rev), resolve(args.change)
    with tempfile.TemporaryDirectory(prefix="bench-ledger-", dir=args.workdir) as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        extract(parent, trees["parent"])
        extract(change, trees["change"])
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        metrics, seconds = bench["end_to_end"], bench["run_seconds"]
        workloads = [w["name"] for w in bench["workloads"]]
        runs: Dict[str, Dict[str, List[dict]]] = {
            w: {"parent": [], "change": []} for w in workloads}
        for k, seed in enumerate(SEEDS):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    result = run_once(trees[side], workload, seed, seconds)
                    runs[workload][side].append(result)
                    print(f"seed {seed} {workload} {side}: "
                          f"{json.dumps(result.get('metrics', {}))}", file=sys.stderr)

    import numpy as np

    firsts = ", ".join(str(s) for s in SEEDS[0::2])
    what = ("perfbench/run.py end-to-end metrics of every workload, the parent commit against "
            "this change, one run per side and seed; the parent ran first at seeds "
            f"{firsts} and second at the others; a ratio is the change median over the parent "
            "median, and a win is a seed where the change is better")
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        what += f"; this change claims a gain on {workload} {metric}"
    ledger = {
        "what": what,
        "parent_commit": parent,
        "change_src_tree": (f"{git('rev-parse', f'{change}:src')} (git tree of src/ in this "
                            "commit; git rev-parse HEAD:src)"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": f"{os.cpu_count()}-CPU {platform.system()} machine, {platform.machine()}",
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "quartiles": "numpy.percentile, linear interpolation",
        **summarize(runs, metrics),
        "peak_rss_mb_scope": PEAK_RSS_SCOPE,
    }
    Path(args.out).write_text(json.dumps(ledger, indent=2) + "\n")
    print(table(ledger, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
