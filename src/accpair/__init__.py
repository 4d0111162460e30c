"""Receiver-side pairing of broadcast meter packets via deterministic
ACC-coded transmission intervals, with the analytic and Monte-Carlo
machinery to quantify false pairing probability and receiver memory cost.
"""

from .analytic import (
    SaturationError,
    max_distinguishable_meters,
    mean_qM,
    q0,
    qM,
    sigma,
)
from .engine import ANALYSIS, DEPLOYMENT, PairingEngine, PairingOutcome, classify, pair_distance
from .slots import (
    PacketArrival,
    SlotStore,
    TraceOrderError,
    VirtualSlot,
)
from .simulate import (
    SimConfig,
    generate_trace,
    replay,
    simulate_false_detection,
    simulate_memory,
    transmission_times,
)
from .timing import (
    ProtocolParams,
    hamming,
    jitter_index,
    lead_time,
    nominal_interval,
    slot_bounds,
    slot_width,
)

__all__ = [
    "ANALYSIS",
    "DEPLOYMENT",
    "PacketArrival",
    "PairingEngine",
    "PairingOutcome",
    "ProtocolParams",
    "SaturationError",
    "SimConfig",
    "SlotStore",
    "TraceOrderError",
    "VirtualSlot",
    "classify",
    "generate_trace",
    "hamming",
    "jitter_index",
    "lead_time",
    "max_distinguishable_meters",
    "mean_qM",
    "nominal_interval",
    "pair_distance",
    "q0",
    "qM",
    "replay",
    "sigma",
    "simulate_false_detection",
    "simulate_memory",
    "slot_bounds",
    "slot_width",
    "transmission_times",
]

__version__ = "0.1.0"
