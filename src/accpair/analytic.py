"""Closed-form false-detection probability of the pairing threshold rule.

With error-free channels the only way a pairing can be false is that an
interfering packet lands, with a compatible ACC, in one of the predicted
step-1 windows before the genuine next packet arrives.  This module sweeps
the edges of those windows to find ``sigma_beta``, the time during which
exactly ``beta`` ACC values would falsely pair, and evaluates the resulting
closed form under Poisson interference of rate ``lambda = n / t``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Set

from .timing import ProtocolParams, hamming_ball, nominal_interval, slot_bounds


#: Largest meter count the sizing search tries before giving up.
N_CAP = 2**40


class SaturationError(RuntimeError):
    """The meter-count search cannot bracket the target probability."""


def q0(lam: float, sigma: float, L: int = 256) -> float:
    """False-detection probability for the zero-tolerance threshold.

    Probability that any Poisson arrival of rate ``lam`` during ``sigma``
    seconds carries the one problematic ACC out of ``L``.
    """
    if not (lam >= 0 and sigma >= 0):  # NaN fails too
        raise ValueError("rate and duration must be nonnegative")
    return -math.expm1(-lam * sigma / L)


def sigma(y: int, M: int, params: ProtocolParams) -> Dict[int, float]:
    """Duration exposed to exactly ``beta`` false ACC values, per beta.

    Every candidate base ``c`` within ``M`` bit errors of the observed ACC
    ``y`` (``M`` in 0..log2(L)) opens the half-open step-1 window
    ``slot_bounds(c, 1, ...)``.  Time 0 is the nominal arrival of the
    genuine next packet, so every window is cut at 0 and the own window is
    exposed for its lead time.  The window pairs with the ACC values within
    ``M - H(y, c)`` bits of ``c + 1``.  Between consecutive window edges
    the segment counts the union of the ACC values that would pair with
    any window open in it, so overlapping windows are counted once.
    """
    L = params.L
    origin = -nominal_interval(y, 1, params)  # checks y against L
    edges = []  # (time, opens, mask of the candidate)
    allowed: Dict[int, Set[int]] = {}
    for m in hamming_ball(M, L):
        c = y ^ m
        start, width = slot_bounds(c, 1, origin, params)
        end = min(start + width, 0.0)
        if start < end:  # else empty, or not before the genuine arrival
            allowed[m] = {((c + 1) % L) ^ k for k in hamming_ball(M - m.bit_count(), L)}
            edges += [(start, True, m), (end, False, m)]
    edges.sort()  # at equal times a window ends before another starts
    out: Dict[int, float] = {}
    active: Set[int] = set()
    for (t0, opens, m), (t1, _, _) in zip(edges, edges[1:]):
        if opens:
            active.add(m)
        else:
            active.remove(m)
        if active and t0 < t1:
            beta = len(set().union(*(allowed[k] for k in active)))
            out[beta] = out.get(beta, 0.0) + (t1 - t0)
    return out


@lru_cache(maxsize=None)
def _beta_weighted_duration(y: int, M: int, params: ProtocolParams) -> float:
    """sum over beta of beta * sigma_beta for one base ACC."""
    # not sum(), which is compensated from Python 3.12 on: same bits everywhere
    total = 0.0
    for beta, dur in sigma(y, M, params).items():
        total += beta * dur
    return total


def qM(y: int, M: int, n: float, params: ProtocolParams) -> float:
    """False-detection probability for base ACC ``y`` with ``n`` meters."""
    if not n >= 0:  # NaN fails too
        raise ValueError(f"meter count must be nonnegative, got {n}")
    lam = n / params.t
    return -math.expm1(-lam / params.L * _beta_weighted_duration(y, M, params))


def mean_qM(M: int, n: float, params: ProtocolParams) -> float:
    """``qM`` averaged over all possible base ACC values."""
    total = 0.0  # not sum(): see _beta_weighted_duration
    for y in range(params.L):
        total += qM(y, M, n, params)
    return total / params.L


def max_distinguishable_meters(target_q: float, M: int, params: ProtocolParams) -> int:
    """Largest meter count keeping the mean false-detection rate at bay.

    Returns the largest integer ``n`` with ``mean_qM(M, n) <= target_q``.
    Raises SaturationError when no such bound exists below ``N_CAP``.
    """
    if not 0.0 < target_q < 1.0:
        raise ValueError(f"target probability must be in (0, 1), got {target_q}")
    if mean_qM(M, 1, params) > target_q:
        return 0
    hi = 1
    while mean_qM(M, hi, params) <= target_q:
        hi *= 2
        if hi > N_CAP:
            raise SaturationError(
                f"mean false-detection rate stays below {target_q} up to n={N_CAP}"
            )
    lo = hi // 2  # mean_qM(lo) <= target < mean_qM(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mean_qM(M, mid, params) <= target_q:
            lo = mid
        else:
            hi = mid
    return lo
