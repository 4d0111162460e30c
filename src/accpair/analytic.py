"""Closed-form false-detection probability of the pairing threshold rule.

With error-free channels the only way a pairing can be false is that an
interfering packet lands, with a compatible ACC, in one of the predicted
step-1 windows before the genuine next packet arrives.  This module finds
``sigma_beta``, the time during which exactly ``beta`` ACC values would
falsely pair, and evaluates the resulting closed form under Poisson
interference of rate ``lambda = n / t``.  One pass over the windows, sorted
by start, groups them by overlap: a window that overlaps no other adds its
width to the beta of its own ACC set, whose size is that of a Hamming ball,
and only the edges of a group of overlapping windows are swept.

Caches keep the sweep cheap without changing a bit of its output: the
step-1 window ``(tnom, theta, tau)`` of every base ACC, the engine's row
from ``timing.window_row``; per threshold, the beta of a lone window for
each mask of the Hamming ball; the set of ACC values a candidate window
pairs with, held as an L-bit integer so that a union is an OR and its size
a ``bit_count()``; and, per threshold and params, the table of ``sum_beta
beta * sigma_beta`` over every base ACC that ``mean_qM`` reads.  All are
``lru_cache``s, none is kept on the params, and those keyed by params are
bounded, so a sweep over many params does not grow without end.  Those
keyed by a caller's ACC or threshold are typed, so ``True``, ``1.0`` or a
numpy integer never hits the entry of an equal int and is rejected as on a
cold cache.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from typing import Dict, List, Tuple

from .timing import ProtocolParams, check_acc, check_count, check_finite_nonnegative
from .timing import hamming_ball, window_row


#: Largest meter count the sizing search tries before giving up.
N_CAP = 2**40


class SaturationError(RuntimeError):
    """The meter-count search cannot bracket the target probability."""


def q0(lam: float, sigma: float, L: int = 256) -> float:
    """False-detection probability for the zero-tolerance threshold.

    Probability that any Poisson arrival of rate ``lam`` during ``sigma``
    seconds carries the one problematic ACC out of ``L``.
    """
    check_finite_nonnegative("rate", lam)
    check_finite_nonnegative("duration", sigma)
    check_count("L", L, 1)
    return -math.expm1(-lam * sigma / L)


@lru_cache(maxsize=None)
def _ball_bits(v: int, r: int, L: int) -> int:
    """The ACC values within ``r`` bits of ``v``, as the set bits of an L-bit int."""
    bits = 0
    for k in hamming_ball(r, L):
        bits |= 1 << (v ^ k)
    return bits


@lru_cache(maxsize=None, typed=True)
def _lone_betas(M: int, L: int) -> Tuple[Tuple[int, int], ...]:
    """``(mask, beta)`` for every mask of ``hamming_ball(M, L)``, in its order: the
    beta of a window alone in its group, the size of the ball of its ACC set."""
    return tuple((m, len(hamming_ball(M - m.bit_count(), L))) for m in hamming_ball(M, L))


def sigma(y: int, M: int, params: ProtocolParams) -> Dict[int, float]:
    """Duration exposed to exactly ``beta`` false ACC values, per beta.

    Every candidate base ``c`` within ``M`` bit errors of the observed ACC
    ``y`` (``M`` in 0..log2(L)) opens the half-open step-1 window that
    ``slot_bounds(c, 1, ...)`` gives, here built from the cached
    ``(tnom, theta, tau)`` of ``c`` with the same expression.  Time 0 is
    the nominal arrival of the genuine next packet, so every window is cut
    at 0 and the own window is exposed for its lead time.  The window pairs
    with the ACC values within ``M - H(y, c)`` bits of ``c + 1``.

    One pass over the windows, sorted by start, splits them into overlap
    groups: a window joins the group while it starts strictly before the
    group's latest end.  A window alone in its group adds its width to the
    beta of its own ACC set, ``len(hamming_ball(M - H(y, c), L))``, read
    from a per-threshold table (XOR with ``c + 1`` maps the ball onto that
    set one to one).  A group of several windows is swept edge by edge
    (``_sweep_group``).  Groups follow in time order, so every beta gets the
    same additions, in the same order, as one sweep over all edges.
    """
    L = params.L
    windows = window_row(params, 1)
    origin = -windows[check_acc(y, L)][0]  # -nominal_interval(y, 1, params), bit for bit
    spans = []  # (start, end, mask of the candidate, beta if it is alone)
    for m, beta in _lone_betas(M, L):
        tnom, theta, tau = windows[y ^ m]
        start = origin + tnom - theta  # slot_bounds' expression: the same bits
        if start < 0.0:  # else not before the genuine arrival
            end = start + tau
            if end > 0.0:  # min(end, 0.0), without the call
                end = 0.0
            if start < end:
                spans.append((start, end, m, beta))
    spans.sort()  # masks are unique, so neither beta nor an equal start reorders
    out: Dict[int, float] = {}
    i, n = 0, len(spans)
    while i < n:
        start, reach, _, beta = spans[i]
        j = i + 1
        while j < n and spans[j][0] < reach:  # reach: the group's latest end
            if spans[j][1] > reach:
                reach = spans[j][1]
            j += 1
        if j == i + 1:
            out[beta] = out.get(beta, 0.0) + (reach - start)
        else:
            _sweep_group(spans[i:j], y, M, L, out)
        i = j
    return out


def _sweep_group(group: List[Tuple[float, float, int, int]], y: int, M: int, L: int,
                 out: Dict[int, float]) -> None:
    """Add one overlap group's segments to ``out``, edge by edge, ends before
    starts at equal times.  Each segment counts the union of the ACC sets of
    the windows open in it, the ``bit_count()`` of the OR of their L-bit sets,
    so overlapping windows are counted once."""
    edges = []  # (time, opens, mask of the candidate)
    for start, end, m, _ in group:
        edges.append((start, True, m))
        edges.append((end, False, m))
    edges.sort()  # at equal times a window ends before another starts
    active: Dict[int, int] = {}  # mask -> ACC bits of each open window
    for (t0, opens, m), (t1, _, _) in zip(edges, edges[1:]):
        if opens:
            active[m] = _ball_bits(((y ^ m) + 1) % L, M - m.bit_count(), L)
        else:
            del active[m]
        if active and t0 < t1:
            union = 0
            for bits in active.values():
                union |= bits
            beta = union.bit_count()
            out[beta] = out.get(beta, 0.0) + (t1 - t0)


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


def qM(y: int, M: int, n: float, params: ProtocolParams) -> float:
    """False-detection probability for base ACC ``y`` with ``n`` meters."""
    check_finite_nonnegative("meter count", n)
    lam = n / params.t
    rate = -lam / params.L
    return -math.expm1(rate * _beta_weighted_duration(y, M, params))


def mean_qM(M: int, n: float, params: ProtocolParams) -> float:
    """``qM`` averaged over all possible base ACC values."""
    check_finite_nonnegative("meter count", n)
    lam = n / params.t
    rate = -lam / params.L  # the bits of -lam / params.L * w, which divides first
    total = 0.0  # not sum(): see _beta_weighted_duration
    for w in _beta_weighted_durations(M, params):
        total += -math.expm1(rate * w)
    return total / params.L


def max_distinguishable_meters(target_q: float, M: int, params: ProtocolParams) -> int:
    """Largest meter count keeping the mean false-detection rate at bay.

    Returns the largest integer ``n`` with ``mean_qM(M, n) <= target_q``.
    Raises SaturationError when no such bound exists below ``N_CAP``.
    """
    if not 0.0 < target_q < 1.0:
        raise ValueError(f"target probability must be in (0, 1), got {target_q}")
    hi = 1
    while mean_qM(M, hi, params) <= target_q:
        hi *= 2
        if hi > N_CAP:
            raise SaturationError(
                f"mean false-detection rate stays below {target_q} up to n={N_CAP}"
            )
    # lo is 0 or mean_qM(lo) <= target < mean_qM(hi), and mean_qM never decreases in n
    lo = hi // 2
    return lo + bisect_right(range(lo + 1, hi), target_q, key=lambda n: mean_qM(M, n, params))
