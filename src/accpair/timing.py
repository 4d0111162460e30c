"""ACC arithmetic and transmission-interval geometry.

The broadcast scheme ties the interval between consecutive packets from a
meter to the packet's one-byte access counter (ACC): the interval from the
packet carrying ACC ``x`` to the next one is ``t + delta(pi(x))``, where
``pi(x) = |x - L/2|`` is the jitter index selecting a deterministic offset
from the mean interval ``t``.  Everything in this module is a pure function
of plain ints and floats and is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

#: Divisor of the built-in jitter offset formula; for t=16 s and L=256 it
#: yields 7.8125 ms per jitter step and a +-0.5 s total swing, zero-mean
#: over a full ACC cycle.
DEFAULT_DELTA_DIVISOR = 2048.0


@dataclass(frozen=True)
class ProtocolParams:
    """Timing constants of the periodic broadcast scheme.

    Attributes:
        L: ACC modulus, an int power of two; above 4096 only with a ``delta_map``.
        t: mean transmission interval in seconds.
        nu_a: cumulative relative clock tolerance (dimensionless).
        nu_b: second cumulative relative clock tolerance.
        gamma_a: non-cumulative jitter allowance in seconds.
        gamma_b: second non-cumulative jitter allowance in seconds.
        delta_map: optional table of offsets in seconds by jitter index, of
            length ``L//2 + 1``; ``None`` selects the built-in zero-mean,
            monotone offset formula.

    Construction also sets two attributes that are not fields (equality,
    hashing and ``repr`` ignore them): ``intervals[x] = t + delta(jitter_index(x))``,
    the interval after ACC ``x``, each of which must be finite and positive;
    and ``max_timeout``, the largest slot timeout with ``(timeout - 1) *
    (max(I) * (1 + nu_b) - min(I) * (1 - nu_a)) < min(I) * (1 - nu_a) -
    gamma_a - gamma_b`` (at least 1), so that every step-j window of a
    base ends before any step-(j+1) window of it opens, for j < timeout.
    Params whose earliest step-1 window opens before its base are rejected.
    """

    L: int = 256
    t: float = 16.0
    nu_a: float = 30e-6
    nu_b: float = 110e-6
    gamma_a: float = 2e-3
    gamma_b: float = 2e-3
    delta_map: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if type(self.L) is not int or self.L < 2 or self.L & (self.L - 1):  # bool is excluded
            raise ValueError(f"L must be an integer power of two, got {self.L!r}")
        # NaN fails this range check; a bool is not taken for a number
        if isinstance(self.t, bool) or not 0 < self.t < math.inf:
            raise ValueError(f"t must be finite and positive, got {self.t}")
        for name in ("nu_a", "nu_b", "gamma_a", "gamma_b"):
            check_finite_nonnegative(name, getattr(self, name))
        if self.delta_map is not None:
            # normalize to a tuple so the instance stays hashable
            object.__setattr__(self, "delta_map", tuple(float(v) for v in self.delta_map))
            if len(self.delta_map) != self.L // 2 + 1:
                raise ValueError(
                    f"delta_map must cover jitter indices 0..{self.L // 2}, "
                    f"got length {len(self.delta_map)}"
                )
        elif self.L >= 4 * DEFAULT_DELTA_DIVISOR:  # then t + delta(0) = t * (1 - L / 8192) <= 0
            raise ValueError(f"L = {self.L} needs a delta_map: built-in offsets need L <= 4096")
        intervals = tuple(self.t + self.delta(jitter_index(x, self)) for x in range(self.L))
        object.__setattr__(self, "intervals", intervals)
        bad = next((v for v in intervals if not 0 < v < math.inf), None)
        if bad is not None:
            raise ValueError(f"an interval t + delta is nonpositive or not finite ({bad:g} s)")
        # t must be the average interval: delta averaged over one full ACC
        # cycle has to vanish (within 1e-3 * t).
        mean = sum(intervals) / self.L - self.t
        if abs(mean) > 1e-3 * self.t:
            raise ValueError(f"delta_map is not zero-mean over an ACC cycle (mean {mean:g} s)")
        # a step-j window ends by j*hi + gamma_b and a step-(j+1) window
        # starts from (j+1)*lo - gamma_a, whatever the candidate
        lo, hi = min(intervals) * (1 - self.nu_a), max(intervals) * (1 + self.nu_b)
        if lo <= self.gamma_a:  # sigma and the fd trial count a window from its opening
            raise ValueError(f"a step-1 window opens before its base: min(intervals) * "
                             f"(1 - nu_a) = {lo:g} s must exceed gamma_a = {self.gamma_a:g} s")
        room, spread = lo - (self.gamma_a + self.gamma_b), hi - lo
        max_timeout = 1 if room <= 0 else max(1, math.ceil(room / spread)) if spread else math.inf
        object.__setattr__(self, "max_timeout", max_timeout)

    def delta(self, s: int) -> float:
        """Jitter offset in seconds for jitter index ``s``."""
        if not 0 <= s <= self.L // 2:
            raise ValueError(f"jitter index {s} outside 0..{self.L // 2}")
        if self.delta_map is None:
            return self.t * (s - self.L // 4) / DEFAULT_DELTA_DIVISOR
        return self.delta_map[s]


def check_finite_nonnegative(name: str, value: float) -> float:
    """Validate that ``value`` is a finite number >= 0, not NaN or a bool, and return it."""
    if isinstance(value, bool) or not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
    return value


def check_acc(x: int, L: int = 256) -> int:
    """Validate that ``x`` is a legal ACC value, an int in 0..L-1, and return it."""
    if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < L:
        raise ValueError(f"ACC value {x!r} outside 0..{L - 1}")
    return x


def jitter_index(x: int, params: ProtocolParams) -> int:
    """Distance of ``x`` from L/2; selects the next interval's offset."""
    return abs(check_acc(x, params.L) - params.L // 2)


def hamming(a: int, b: int) -> int:
    """Number of differing bits between two ACC values."""
    return (a ^ b).bit_count()


def check_threshold(M: int, L: int = 256) -> int:
    """Validate a bit-error threshold: an int ``M`` in 0..log2(L).  Returns ``M``."""
    bits = L.bit_length() - 1
    if not isinstance(M, int) or isinstance(M, bool) or not 0 <= M <= bits:
        raise ValueError(f"threshold M must be an integer in 0..{bits}, got {M!r}")
    return M


@lru_cache(maxsize=None, typed=True)
def hamming_ball(M: int, L: int = 256) -> Tuple[int, ...]:
    """XOR masks of Hamming weight <= ``M`` over the log2(L) ACC bits.

    ``{y ^ m for m in hamming_ball(M, L)}`` is every ACC within ``M`` bit
    errors of ``y``; the ball has ``sum_{b<=M} C(log2 L, b)`` members.
    The cache is typed: ``True`` or ``1.0`` never hits the entry of ``1``.
    """
    check_threshold(M, L)
    return tuple(m for m in range(L) if m.bit_count() <= M)


def nominal_interval(x: int, j: int, params: ProtocolParams) -> float:
    """Cumulative nominal time from ACC ``x`` to the packet ``j`` steps later.

    Sums ``params.intervals`` along the ACC path ``x, x+1, ..., x+j-1``.
    """
    if j < 0:
        raise ValueError(f"step count must be nonnegative, got {j}")
    acc = check_acc(x, params.L)
    total = 0.0
    for _ in range(j):
        total += params.intervals[acc]
        acc = (acc + 1) % params.L
    return total


def _window(x: int, j: int, params: ProtocolParams) -> Tuple[float, float, float]:
    """``(tnom, theta, tau)`` of the step-``j`` slot from base ACC ``x``."""
    tnom = nominal_interval(x, j, params)
    theta = tnom * params.nu_a + params.gamma_a
    tau = tnom * (params.nu_a + params.nu_b) + params.gamma_a + params.gamma_b
    return tnom, theta, tau


# a row is about 36 KB at L=256, so 256 rows stay under 10 MB; 256 is 16x the
# default max_timeout, so a run over a few params evicts none of their rows
@lru_cache(maxsize=256)
def window_row(params: ProtocolParams, j: int) -> Tuple[Tuple[float, float, float], ...]:
    """``_window(x, j, params)`` of each ACC ``x``; add ``t_base + tnom - theta`` in that order."""
    return tuple(_window(x, j, params) for x in range(params.L))


def lead_time(x: int, j: int, params: ProtocolParams) -> float:
    """Lead of the slot start before the nominal arrival (theta)."""
    return _window(x, j, params)[1]


def slot_width(x: int, j: int, params: ProtocolParams) -> float:
    """Width of the reception slot for step ``j`` from base ACC ``x`` (tau)."""
    return _window(x, j, params)[2]


def slot_bounds(x: int, j: int, t_base: float, params: ProtocolParams) -> Tuple[float, float]:
    """Reception slot for the packet ``j`` steps after a base packet.

    The base packet carried ACC ``x`` and arrived at ``t_base``.  Returns
    ``(start, width)``; the nominal arrival instant sits ``theta`` into the
    slot, and the slot absorbs relative clock error in [-nu_a, +nu_b] plus
    pairwise jitter in [-gamma_a, +gamma_b].
    """
    if j < 1:
        raise ValueError(f"slot step must be >= 1, got {j}")
    tnom, theta, tau = _window(x, j, params)
    return t_base + tnom - theta, tau
