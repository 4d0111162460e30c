"""Closed-form false-detection probability of the pairing threshold rule.

With error-free channels the only way a pairing can be false is that an
interfering packet lands, with a compatible ACC, in one of the predicted
step-1 windows before the genuine next packet arrives.  This module sweeps
the edges of those windows to find ``sigma_beta``, the time during which
exactly ``beta`` ACC values would falsely pair, and evaluates the resulting
closed form under Poisson interference of rate ``lambda = n / t``.

Caches keep the sweep cheap without changing a bit of its output: the
step-1 window ``(tnom, theta, tau)`` of every base ACC, the engine's row
from ``timing.window_row``; the set of ACC values a candidate window pairs
with, held as an L-bit integer so that a union is an OR and its size a
``bit_count()``; and, per threshold and params, the table of ``sum_beta
beta * sigma_beta`` over every base ACC that ``mean_qM`` reads.  All are
``lru_cache``s, none is kept on the params, and those keyed by params are
bounded, so a sweep over many params does not grow without end.  Those
keyed by a caller's ACC or threshold are typed, so ``True``, ``1.0`` or a
numpy integer never hits the entry of an equal int and is rejected as on a
cold cache.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Tuple

from .timing import ProtocolParams, hamming_ball, nominal_interval, window_row


#: Largest meter count the sizing search tries before giving up.
N_CAP = 2**40


class SaturationError(RuntimeError):
    """The meter-count search cannot bracket the target probability."""


def q0(lam: float, sigma: float, L: int = 256) -> float:
    """False-detection probability for the zero-tolerance threshold.

    Probability that any Poisson arrival of rate ``lam`` during ``sigma``
    seconds carries the one problematic ACC out of ``L``.
    """
    # NaN fails the range checks; a bool is not taken for a number
    for value in (lam, sigma):
        if isinstance(value, bool) or not 0 <= value < math.inf:
            raise ValueError(f"rate and duration must be finite and nonnegative, got {value!r}")
    if not isinstance(L, int) or isinstance(L, bool) or L < 1:
        raise ValueError(f"L must be an integer >= 1, got {L!r}")
    return -math.expm1(-lam * sigma / L)


@lru_cache(maxsize=None)
def _ball_bits(v: int, r: int, L: int) -> int:
    """The ACC values within ``r`` bits of ``v``, as the set bits of an L-bit int."""
    bits = 0
    for k in hamming_ball(r, L):
        bits |= 1 << (v ^ k)
    return bits


def sigma(y: int, M: int, params: ProtocolParams) -> Dict[int, float]:
    """Duration exposed to exactly ``beta`` false ACC values, per beta.

    Every candidate base ``c`` within ``M`` bit errors of the observed ACC
    ``y`` (``M`` in 0..log2(L)) opens the half-open step-1 window that
    ``slot_bounds(c, 1, ...)`` gives, here built from the cached
    ``(tnom, theta, tau)`` of ``c`` with the same expression.  Time 0 is
    the nominal arrival of the genuine next packet, so every window is cut
    at 0 and the own window is exposed for its lead time.  The window pairs
    with the ACC values within ``M - H(y, c)`` bits of ``c + 1``, held as
    the set bits of an L-bit int.  Between consecutive window edges the
    segment counts the union of the ACC values that would pair with any
    window open in it, the ``bit_count()`` of the OR of their bits, so
    overlapping windows are counted once.
    """
    L = params.L
    origin = -nominal_interval(y, 1, params)  # checks y against L
    windows = window_row(params, 1)
    edges = []  # (time, opens, mask of the candidate)
    allowed: Dict[int, int] = {}
    for m in hamming_ball(M, L):
        c = y ^ m
        tnom, theta, tau = windows[c]
        start = origin + tnom - theta  # slot_bounds' expression: the same bits
        end = start + tau
        if end > 0.0:  # min(end, 0.0), without the call
            end = 0.0
        if start < end:  # else empty, or not before the genuine arrival
            allowed[m] = _ball_bits((c + 1) % L, M - m.bit_count(), L)
            edges.append((start, True, m))
            edges.append((end, False, m))
    edges.sort()  # at equal times a window ends before another starts
    out: Dict[int, float] = {}
    active: Dict[int, int] = {}  # mask -> ACC bits of each open window
    for (t0, opens, m), (t1, _, _) in zip(edges, edges[1:]):
        if opens:
            active[m] = allowed[m]
        else:
            del active[m]
        if active and t0 < t1:
            union = 0
            for bits in active.values():
                union |= bits
            beta = union.bit_count()
            out[beta] = out.get(beta, 0.0) + (t1 - t0)
    return out


#: Tables of 16 params at every M of an L=256 counter fit in the caches
#: below: 16 * 9 tables of 256 per-ACC values, about 6 MB in all.
_CACHED_TABLES = 16 * 9


@lru_cache(maxsize=_CACHED_TABLES * 256, typed=True)
def _beta_weighted_duration(y: int, M: int, params: ProtocolParams) -> float:
    """sum over beta of beta * sigma_beta for one base ACC."""
    # not sum(), which is compensated from Python 3.12 on: same bits everywhere
    total = 0.0
    for beta, dur in sigma(y, M, params).items():
        total += beta * dur
    return total


@lru_cache(maxsize=_CACHED_TABLES, typed=True)
def _beta_weighted_durations(M: int, params: ProtocolParams) -> Tuple[float, ...]:
    """``_beta_weighted_duration`` of every base ACC 0..L-1."""
    return tuple(_beta_weighted_duration(y, M, params) for y in range(params.L))


def _check_meters(n: float) -> None:
    # NaN fails the range check; a bool is not taken for a count
    if isinstance(n, bool) or not 0 <= n < math.inf:
        raise ValueError(f"meter count must be finite and nonnegative, got {n!r}")


def qM(y: int, M: int, n: float, params: ProtocolParams) -> float:
    """False-detection probability for base ACC ``y`` with ``n`` meters."""
    _check_meters(n)
    lam = n / params.t
    return -math.expm1(-lam / params.L * _beta_weighted_duration(y, M, params))


def mean_qM(M: int, n: float, params: ProtocolParams) -> float:
    """``qM`` averaged over all possible base ACC values."""
    _check_meters(n)
    lam = n / params.t
    total = 0.0  # not sum(): see _beta_weighted_duration
    for w in _beta_weighted_durations(M, params):
        total += -math.expm1(-lam / params.L * w)
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
