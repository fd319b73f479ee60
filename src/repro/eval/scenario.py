"""Scenario specifications: what to replay, what to break, what to expect.

A :class:`Scenario` is declarative — nothing here runs anything.  It
names one of the simulation workloads by its app key (``bgp_flaps`` /
``bgp_storm`` / ``cdn`` / ``pim`` / ``backbone``, the ``app_key`` column
of :data:`repro.simulation.SCENARIOS`), pins every seed and size knob,
scripts the failure injections to apply on top of the workload's own
root-cause mixture, and carries the accuracy/coverage thresholds the
matrix gate enforces.

Two distinct failure planes can be scripted:

* **feed faults** (``feed_outage`` / ``feed_lag`` / ``feed_corruption``)
  degrade the measurement infrastructure between telemetry emission and
  ingestion, via :class:`~repro.simulation.faults.FeedFaultInjector`;
* **service faults** (``worker_crash`` / ``worker_delay`` /
  ``worker_fail``) fire inside the serving layer via
  :class:`~repro.service.faults.ServiceFaultInjector` and only apply to
  ``service`` / ``http`` mode runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

#: injection kinds that rewrite raw feeds before ingestion
FEED_FAULT_KINDS = ("feed_outage", "feed_lag", "feed_corruption")

#: injection kinds that fire inside the service worker pool
SERVICE_FAULT_KINDS = ("worker_crash", "worker_delay", "worker_fail")

#: execution modes a scenario may request
MODES = ("engine", "service", "http")


@dataclass(frozen=True)
class FailureInjection:
    """One scripted failure: what breaks, where, when, for how long.

    ``at_s`` and ``duration_s`` are offsets **in seconds from the
    scenario's data start** (its tick axis), so an injection script is
    meaningful independent of the absolute simulated epoch.  ``params``
    carries kind-specific knobs: ``delay`` (seconds) for ``feed_lag``,
    ``probability`` for ``feed_corruption``, ``times`` / ``delay`` for
    the service kinds.
    """

    kind: str  # one of FEED_FAULT_KINDS + SERVICE_FAULT_KINDS
    target: str  # feed/table name for feed faults; "*" = any job
    at_s: float = 0.0
    duration_s: float = 0.0
    params: Tuple[Tuple[str, float], ...] = ()

    def param(self, name: str, default: float) -> float:
        """Look up one kind-specific knob with a default."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    @staticmethod
    def make(
        kind: str,
        target: str,
        at_s: float = 0.0,
        duration_s: float = 0.0,
        **params: float,
    ) -> "FailureInjection":
        """Build an injection with keyword params (sorted, hashable)."""
        if kind not in FEED_FAULT_KINDS + SERVICE_FAULT_KINDS:
            raise ValueError(f"unknown failure-injection kind {kind!r}")
        return FailureInjection(
            kind=kind,
            target=target,
            at_s=at_s,
            duration_s=duration_s,
            params=tuple(sorted(params.items())),
        )


@dataclass(frozen=True)
class ScenarioThresholds:
    """Minimum scores (0..1) a scenario must reach to pass its gate."""

    accuracy: float = 0.0
    coverage: float = 0.0
    composite: float = 0.0  # composite is on the 0..100 scale

    def as_dict(self) -> Dict[str, float]:
        """The thresholds as a plain dict (for the matrix artifact)."""
        return {
            "accuracy": self.accuracy,
            "coverage": self.coverage,
            "composite": self.composite,
        }


@dataclass(frozen=True)
class Scenario:
    """A named, reproducible evaluation scenario.

    ``app`` selects the workload + RCA application pair; ``seed`` drives
    every random draw in the simulation (topology, mixture, injection
    placement), so two runs of the same scenario produce identical
    diagnoses and identical scores.  ``topology`` optionally overrides
    the workload's default :class:`~repro.topology.TopologyParams`
    knobs (``n_pops``, ``pers_per_pop``, ...).
    """

    name: str
    description: str
    app: str  # "bgp_flaps" | "bgp_storm" | "cdn" | "pim" | "backbone"
    seed: int
    size: int  # workload size (flaps / degradations / changes / losses)
    mode: str = "engine"  # "engine" | "service" | "http"
    duration_days: Optional[float] = None  # workload default when None
    topology: Tuple[Tuple[str, object], ...] = ()  # TopologyParams overrides
    injections: Tuple[FailureInjection, ...] = ()
    thresholds: ScenarioThresholds = field(default_factory=ScenarioThresholds)
    gate: bool = False  # paper-app scenario enforced by the CI gate
    workers: int = 2  # service/http mode worker threads
    shards: int = 2  # http mode shard count
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown scenario mode {self.mode!r}")
        feed_only = all(
            inj.kind in FEED_FAULT_KINDS for inj in self.injections
        )
        if self.mode == "engine" and not feed_only:
            raise ValueError(
                f"scenario {self.name!r}: service-fault injections need "
                f"mode 'service' or 'http'"
            )

    def feed_injections(self) -> Tuple[FailureInjection, ...]:
        """The subset of injections that degrade raw feeds."""
        return tuple(
            inj for inj in self.injections if inj.kind in FEED_FAULT_KINDS
        )

    def service_injections(self) -> Tuple[FailureInjection, ...]:
        """The subset of injections that fire in the worker pool."""
        return tuple(
            inj for inj in self.injections if inj.kind in SERVICE_FAULT_KINDS
        )

    def topology_overrides(self) -> Mapping[str, object]:
        """Topology knob overrides as a dict (empty = workload default)."""
        return dict(self.topology)

    def describe(self) -> str:
        """One human line: name, app, mode, size, injection count."""
        extras = []
        if self.injections:
            extras.append(f"{len(self.injections)} injected failures")
        if self.gate:
            extras.append("gated")
        suffix = f" ({', '.join(extras)})" if extras else ""
        return (
            f"{self.name}: {self.app}/{self.mode}, size {self.size}, "
            f"seed {self.seed}{suffix}"
        )
