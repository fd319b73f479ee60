"""Synthetic network simulator: the substitution layer for the paper's
proprietary production traces (see DESIGN.md section 2).

Telemetry emission, causal fault injection with ground truth, and the
evaluation scenarios behind every reproduced table and figure.
"""

from .faults import FaultInjector, FeedFault, FeedFaultInjector, GroundTruth
from .scenarios import (
    PROBE_LOSS_MIXTURE,
    SCENARIOS,
    SimulationResult,
    TABLE4_MIXTURE,
    TABLE6_MIXTURE,
    TABLE8_MIXTURE,
    Workload,
    backbone_probe_month,
    bgp_flap_storm,
    bgp_month,
    cdn_month,
    cpu_bgp_study,
    linecard_crash,
    pim_fortnight,
)
from .telemetry import BASE_EPOCH, BGP_HOLD_TIMER, TelemetryBuffers, TelemetryEmitter

__all__ = [
    "BASE_EPOCH",
    "BGP_HOLD_TIMER",
    "FaultInjector",
    "FeedFault",
    "FeedFaultInjector",
    "GroundTruth",
    "SimulationResult",
    "TABLE4_MIXTURE",
    "TABLE6_MIXTURE",
    "TABLE8_MIXTURE",
    "PROBE_LOSS_MIXTURE",
    "SCENARIOS",
    "TelemetryBuffers",
    "TelemetryEmitter",
    "Workload",
    "backbone_probe_month",
    "bgp_flap_storm",
    "bgp_month",
    "cdn_month",
    "cpu_bgp_study",
    "linecard_crash",
    "pim_fortnight",
]
