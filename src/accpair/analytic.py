"""Closed-form false-detection probability of the pairing threshold rule.

With error-free channels the only way a pairing can be false is that an
interfering packet lands, with a compatible ACC, in one of the predicted
windows before the genuine next packet arrives.  This module builds the
time partition of those windows (timebins), counts the ACC values that
would falsely pair in each bin, and evaluates the resulting closed form
under Poisson interference of rate ``lambda = n / t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Set, Tuple

from .timing import (
    ProtocolParams,
    acc_sub,
    check_acc,
    hamming,
    hamming_ball,
    lead_time,
    slot_bounds,
)


class SaturationError(RuntimeError):
    """The meter-count search cannot bracket the target probability."""


@dataclass(frozen=True)
class Timebin:
    """Step-1 virtual slots sharing one reception window."""

    members: Tuple[int, ...]  # expected ACCs of the member slots
    width: float              # window duration in seconds
    d: int                    # distinct ACCs that would falsely pair here


@dataclass(frozen=True)
class TimebinLayout:
    """Partition of the step-1 windows preceding the genuine arrival.

    ``bins_a`` are the candidate windows that start before the genuine
    arrival's own window, in order of start time; each is exposed in full.
    ``bin_b`` is the genuine arrival's own window, of which only the lead
    time ``theta1`` precedes the arrival.
    """

    base_acc: int
    M: int
    bins_a: Tuple[Timebin, ...]
    bin_b: Timebin
    theta1: float

    def sigma(self) -> Dict[int, float]:
        """Duration exposed to exactly ``beta`` false ACC values, per beta."""
        out: Dict[int, float] = {}
        for a in self.bins_a:
            out[a.d] = out.get(a.d, 0.0) + a.width
        out[self.bin_b.d] = out.get(self.bin_b.d, 0.0) + self.theta1
        return out


def q0(lam: float, sigma: float, L: int = 256) -> float:
    """False-detection probability for the zero-tolerance threshold.

    Probability that any Poisson arrival of rate ``lam`` during ``sigma``
    seconds carries the one problematic ACC out of ``L``.
    """
    if lam < 0 or sigma < 0:
        raise ValueError("rate and duration must be nonnegative")
    return -math.expm1(-lam * sigma / L)


def allowed_combinations(xi: int, y: int, M: int, j: int = 1, L: int = 256) -> Set[int]:
    """ACC values an arrival may carry and still pair with slot ``xi``.

    The slot consumed ``H(y, xi - j)`` of the ``M`` tolerated bit errors;
    the remainder is available to the arriving ACC.
    """
    b = hamming(check_acc(y, L), acc_sub(xi, j, L))
    if b > M:
        raise ValueError(f"slot {xi:#04x} is not a candidate for y={y:#04x} at M={M}")
    return {xi ^ m for m in hamming_ball(M - b, L)}


def bin_combination_count(members: Iterable[int], y: int, M: int, j: int = 1, L: int = 256) -> int:
    """Distinct false ACC values across all member slots of one timebin."""
    union: Set[int] = set()
    for xi in members:
        union |= allowed_combinations(xi, y, M, j, L)
    return len(union)


def build_timebins(y: int, M: int, params: ProtocolParams) -> TimebinLayout:
    """Time partition of the step-1 windows relevant for false detection.

    The candidate slots of observed ACC ``y`` (base ACCs ``c`` within ``M``
    bit errors of ``y``, ``M`` in 0..log2(L)) are grouped by their step-1
    window ``slot_bounds(c, 1, 0.0, params)``.  Windows that start after
    the genuine arrival's own window are excluded, the rest are ordered by
    start time.  The windows of different groups are assumed disjoint.
    """
    check_acc(y, params.L)
    windows: Dict[Tuple[float, float], List[int]] = {}
    for m in hamming_ball(M, params.L):
        c = y ^ m
        windows.setdefault(slot_bounds(c, 1, 0.0, params), []).append((c + 1) % params.L)

    def make_bin(window: Tuple[float, float]) -> Timebin:
        members = tuple(sorted(windows[window]))
        return Timebin(
            members=members,
            width=window[1],
            d=bin_combination_count(members, y, M, 1, params.L),
        )

    own = slot_bounds(y, 1, 0.0, params)
    return TimebinLayout(
        base_acc=y,
        M=M,
        bins_a=tuple(make_bin(w) for w in sorted(windows) if w[0] < own[0]),
        bin_b=make_bin(own),
        theta1=lead_time(y, 1, params),
    )


@lru_cache(maxsize=None)
def _beta_weighted_duration(y: int, M: int, params: ProtocolParams) -> float:
    """sum over beta of beta * sigma_beta for one base ACC."""
    return sum(beta * dur for beta, dur in build_timebins(y, M, params).sigma().items())


def qM(y: int, M: int, n: float, params: ProtocolParams) -> float:
    """False-detection probability for base ACC ``y`` with ``n`` meters."""
    if n < 0:
        raise ValueError(f"meter count must be nonnegative, got {n}")
    lam = n / params.t
    return -math.expm1(-lam / params.L * _beta_weighted_duration(y, M, params))


def mean_qM(M: int, n: float, params: ProtocolParams) -> float:
    """``qM`` averaged over all possible base ACC values."""
    return sum(qM(y, M, n, params) for y in range(params.L)) / params.L


def max_distinguishable_meters(
    target_q: float,
    M: int,
    params: ProtocolParams,
    n_cap: int = 2**40,
) -> int:
    """Largest meter count keeping the mean false-detection rate at bay.

    Returns the largest integer ``n`` with ``mean_qM(M, n) <= target_q``.
    Raises SaturationError when no such bound exists below ``n_cap``.
    """
    if not 0.0 < target_q < 1.0:
        raise ValueError(f"target probability must be in (0, 1), got {target_q}")
    if mean_qM(M, 1, params) > target_q:
        return 0
    hi = 1
    while mean_qM(M, hi, params) <= target_q:
        hi *= 2
        if hi > n_cap:
            raise SaturationError(
                f"mean false-detection rate stays below {target_q} up to n={n_cap}"
            )
    lo = hi // 2  # mean_qM(lo) <= target < mean_qM(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mean_qM(M, mid, params) <= target_q:
            lo = mid
        else:
            hi = mid
    return lo
