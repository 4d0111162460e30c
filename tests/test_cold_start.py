"""numpy loads only where it is used: ``import accpair``, ``analytic`` and
``replay`` run in a process where any numpy import raises, and the
Monte-Carlo commands import it when they first draw."""

import os
import subprocess
import sys
from pathlib import Path

import accpair
from accpair.cli import main
from accpair.simulate import SimConfig, generate_trace
from accpair.traceio import write_trace

SRC = str(Path(accpair.__file__).resolve().parents[1])

WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any numpy import now raises ImportError
import accpair, accpair.cli
trace, analytic_out, replay_out = sys.argv[1:]
codes = (
    accpair.cli.main(["analytic", "--M", "1", "--n-range", "200:200", "--out", analytic_out]),
    accpair.cli.main(["replay", trace, "--M", "1", "--out", replay_out]),
)
assert sys.modules["numpy"] is None
sys.exit(max(codes))
"""

NUMPY_ON_DEMAND = """
import sys
import accpair.cli
assert "numpy" not in sys.modules
code = accpair.cli.main(["simulate", "--kind", "fd", "--trials", "3", "--out", sys.argv[1]])
assert "numpy" in sys.modules
sys.exit(code)
"""


def run_child(script, *argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", script, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=60)


def test_analytic_and_replay_run_without_numpy(tmp_path):
    trace = tmp_path / "trace.csv"
    with open(trace, "w", encoding="utf-8", newline="") as fh:
        write_trace(fh, generate_trace(SimConfig(n=5, epsilon=1 / 32, horizon=200.0, rng_seed=3)))
    child = run_child(WITHOUT_NUMPY, trace, tmp_path / "a.csv", tmp_path / "r.csv")
    assert (child.returncode, child.stderr) == (0, "")

    assert main(["analytic", "--M", "1", "--n-range", "200:200",
                 "--out", str(tmp_path / "a_in.csv")]) == 0
    assert main(["replay", str(trace), "--M", "1", "--out", str(tmp_path / "r_in.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "a_in.csv").read_bytes()
    assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "r_in.csv").read_bytes()


def test_simulate_loads_numpy_when_it_draws(tmp_path):
    child = run_child(NUMPY_ON_DEMAND, tmp_path / "fd.csv")
    assert (child.returncode, child.stderr) == (0, "")
    assert main(["simulate", "--kind", "fd", "--trials", "3",
                 "--out", str(tmp_path / "fd_in.csv")]) == 0
    assert (tmp_path / "fd.csv").read_bytes() == (tmp_path / "fd_in.csv").read_bytes()
