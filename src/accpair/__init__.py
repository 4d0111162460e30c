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
from .engine import ANALYSIS, DEPLOYMENT, PairingEngine, PairingOutcome, classify
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
)
from .timing import (
    ProtocolParams,
    hamming,
    jitter_index,
    lead_time,
    nominal_interval,
    slot_bounds,
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
    "q0",
    "qM",
    "replay",
    "sigma",
    "simulate_false_detection",
    "simulate_memory",
    "slot_bounds",
]

__version__ = "0.1.0"
