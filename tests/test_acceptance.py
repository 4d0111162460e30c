"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py``
to see them.  The Monte-Carlo criteria take a few minutes at full trial
counts.
"""

import time

import pytest

from accpair.analytic import max_distinguishable_meters, mean_qM, q0, qM, sigma
from accpair.cli import main
from accpair.engine import DEPLOYMENT, PairingEngine
from accpair.simulate import (
    SimConfig,
    generate_trace,
    replay,
    simulate_false_detection,
    simulate_memory,
)
from accpair.timing import (
    ProtocolParams,
    hamming,
    lead_time,
    nominal_interval,
    slot_bounds,
)

PARAMS = ProtocolParams()


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_analytic_consistency():
    t0 = time.perf_counter()
    lam = 200 / PARAMS.t
    worst = 0.0
    for y in range(256):
        reference = q0(lam, lead_time(y, 1, PARAMS), PARAMS.L)
        value = qM(y, 0, 200, PARAMS)
        worst = max(worst, abs(value - reference) / reference)
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-12 and elapsed < 1.0,
           f"qM(M=0) vs q0 max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_timebin_oracle():
    t0 = time.perf_counter()
    ok = True
    for y in range(256):
        pi_y = abs(y - 128)
        for m in (0, 1, 2):
            groups = {}
            for c in range(256):
                if hamming(y, c) <= m:
                    groups.setdefault(abs(c - 128), set()).add((c + 1) % 256)
            sigma_oracle = {}
            for s, members in groups.items():
                if s > pi_y:
                    continue
                d = sum(
                    1 for u in range(256)
                    if any(hamming(y, (xi - 1) % 256) + hamming(xi, u) <= m for xi in members)
                )
                dur = (
                    lead_time(y, 1, PARAMS) if s == pi_y
                    else slot_bounds((next(iter(members)) - 1) % 256, 1, 0.0, PARAMS)[1]
                )
                sigma_oracle[d] = sigma_oracle.get(d, 0.0) + dur
            sig = sigma(y, m, PARAMS)
            ok &= set(sig) == set(sigma_oracle)
            ok &= all(abs(sig[k] - sigma_oracle[k]) < 1e-12 for k in sigma_oracle)
    # the two worked examples: sigma_1 sums six (0x40) or five (0x20) full
    # windows, 0x20's shared window of 0x61 and 0xA1 gives sigma_2, and the
    # own window counts nine values for its lead time theta_1
    width = lambda *bases: sum(slot_bounds(c, 1, 0.0, PARAMS)[1] for c in bases)
    fig_a = sigma(0x40, 1, PARAMS)
    ok &= set(fig_a) == {1, 9} and fig_a[9] == lead_time(0x40, 1, PARAMS)
    ok &= abs(fig_a[1] - width(0x60, 0x50, 0x48, 0x44, 0x42, 0x41)) < 1e-12
    fig_b = sigma(0x20, 1, PARAMS)
    ok &= set(fig_b) == {2, 1, 9} and fig_b[9] == lead_time(0x20, 1, PARAMS)
    ok &= abs(fig_b[2] - width(0x60)) < 1e-12
    ok &= abs(fig_b[1] - width(0x30, 0x28, 0x24, 0x22, 0x21)) < 1e-12
    elapsed = time.perf_counter() - t0
    report(2, ok and elapsed < 10.0, f"all 256 ACCs, M in 0..2, {elapsed:.1f}s")


@pytest.mark.parametrize("n", [100, 200, 400])
@pytest.mark.parametrize("m", [0, 1])
def test_criterion_3_mc_vs_analytic(n, m):
    trials = 100_000
    cfg = SimConfig(n=n, M=m, trials=trials, rng_seed=1000 + 10 * m + n)
    rate, rate_se = simulate_false_detection(cfg)
    expected = mean_qM(m, n, PARAMS)
    se = max(rate_se, (expected * (1 - expected) / trials) ** 0.5)
    dev = abs(rate - expected) / se
    report(3, dev <= 3.0,
           f"n={n} M={m}: simulated {rate:.3e} vs analytic {expected:.3e} "
           f"({dev:.2f} std errors, {trials} trials)")


def test_criterion_4_decade_claim():
    ratio = mean_qM(1, 200, PARAMS) / mean_qM(0, 200, PARAMS)
    report(4, 10.0 <= ratio <= 40.0, f"mean q1/q0 = {ratio:.1f}")


def test_criterion_5_distinguishability():
    n = max_distinguishable_meters(0.001, 0, PARAMS)
    report(5, 1500 <= n <= 2500, f"max meters at 0.1% = {n}")


def test_criterion_6_memory_exactness():
    v0, _ = simulate_memory(SimConfig(n=20, M=0, trials=3, horizon=200.0, rng_seed=3))
    v1, _ = simulate_memory(SimConfig(n=20, M=1, trials=3, horizon=200.0, rng_seed=3))
    vn, _ = simulate_memory(
        SimConfig(n=20, M=1, epsilon=2 / 32, trials=3, horizon=200.0, rng_seed=3)
    )
    report(6, v0 == 1.0 and v1 == 9.0 and vn > 9.0,
           f"slots/meter: M=0 -> {v0}, M=1 -> {v1}, M=1 eps=2/32 -> {vn:.2f}")


def test_criterion_7_slot_geometry():
    drifts = (-PARAMS.nu_a, 0.0, PARAMS.nu_b)
    jitters = (-PARAMS.gamma_a, 0.0, PARAMS.gamma_b)
    checked = 0
    ok = True
    for x in range(256):
        for j in range(1, 11):
            start, width = slot_bounds(x, j, 0.0, PARAMS)
            tnom = nominal_interval(x, j, PARAMS)
            ok &= abs(start + lead_time(x, j, PARAMS) - tnom) <= 1e-12 * tnom
            for d in drifts:
                for g in jitters:
                    arrival = tnom * (1.0 + d) + g
                    slack = 1e-9
                    ok &= start - slack <= arrival <= start + width + slack
                    checked += 1
    report(7, ok and checked == 256 * 10 * 9, f"{checked} drift/jitter grid cases in-window")


def test_criterion_8_zero_noise_completeness():
    cfg = SimConfig(n=50, horizon=160.0, rng_seed=5)
    trace = generate_trace(cfg)
    engine = PairingEngine(PARAMS, M=0, policy=DEPLOYMENT)
    last_ref = {}
    ok = len(trace) > 0
    for pkt in trace:
        out = engine.on_arrival(pkt)
        if pkt.meter_id in last_ref:
            ok &= (
                out.kind == "pair"
                and out.step == 1
                and out.distance == 0
                and out.base_ref == last_ref[pkt.meter_id]
                and out.is_false is False
            )
        else:
            ok &= out.kind == "no-pair"
        last_ref[pkt.meter_id] = out.arrival_ref
    report(8, ok, f"{len(trace)} packets, every non-initial one paired with its "
                  "predecessor at step 1, D=0, no false detections")


def test_criterion_9_per_step_trend():
    runs = 30
    false_by_step = [0] * 10
    pairs_by_step = [0] * 10
    for run in range(runs):
        cfg = SimConfig(
            n=53, M=0, epsilon=1 / 32, horizon=1800.0, timeout=10,
            rng_seed=100 + run,
        )
        engine = PairingEngine(cfg.params, M=cfg.M, policy=DEPLOYMENT, timeout=cfg.timeout)
        replay(generate_trace(cfg), engine)
        for j in range(10):
            false_by_step[j] += sum(engine.pairs[8 * j + 4:8 * j + 8])
            pairs_by_step[j] += sum(engine.pairs[8 * j:8 * j + 4])
    fd = [
        100.0 * f / p if p else 0.0 for f, p in zip(false_by_step, pairs_by_step)
    ]
    late = sum(fd[5:10]) / 5
    report(9, late > fd[0],
           f"fd% step 1 = {fd[0]:.4f}, mean steps 6-10 = {late:.2f} ({runs} runs)")


def test_criterion_10_cli_determinism(tmp_path):
    trace_cfg = tmp_path / "exp.json"
    trace_cfg.write_text(
        '{"n": 5, "epsilon": 0.03125, "p": 0.1, "horizon": 200.0, "rng_seed": 7}'
    )
    trace_path = tmp_path / "trace.csv"
    assert main(["gentrace", "--config", str(trace_cfg), "--out", str(trace_path)]) == 0

    commands = {
        "analytic": ["analytic", "--M", "1", "--n-range", "100:300:100", "--acc", "all"],
        "simulate-fd": ["simulate", "--kind", "fd", "--n", "200", "--M", "0",
                        "--trials", "2000", "--seed", "1"],
        "simulate-mem": ["simulate", "--kind", "memory", "--n", "5", "--M", "1",
                         "--trials", "2", "--horizon", "120", "--seed", "2"],
        "replay": ["replay", str(trace_path), "--M", "0"],
        "gentrace": ["gentrace", "--config", str(trace_cfg)],
    }
    ok = True
    for name, argv in commands.items():
        outputs = []
        for attempt in range(2):
            out = tmp_path / f"{name}-{attempt}.csv"
            assert main([*argv, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        ok &= outputs[0] == outputs[1]
    report(10, ok, f"{len(commands)} CLI invocations byte-identical across reruns")
