"""BGP flaps root cause analysis (Section III-A, Fig. 4, Tables III/IV).

Diagnoses eBGP session flaps between customer routers and provider edge
routers.  Only three application-specific events are needed (Table III)
— everything else comes from the Knowledge Library — and the diagnosis
graph is written in the rule-specification language, demonstrating the
"quick customization" workflow the paper describes.

Also carries the Section IV-C Bayesian configuration (Fig. 8): virtual
root causes "CPU High Issue", "Interface Issue" and "Line-card Issue",
used to find the unobservable line-card crash behind grouped flaps.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.engine import Diagnosis
from ..core.events import (
    EventDefinition,
    EventInstance,
    EventLibrary,
    RetrievalContext,
    Row,
)
from ..core.knowledge import names
from ..core.knowledge.detectors import TimedPoint, pair_flaps, window_rows
from ..core.locations import Location, LocationType
from ..core.reasoning.bayesian import BayesianEngine, BayesianVerdict, RootCauseModel
from ..core.rulespec import SpecCompiler
from ..platform import GrcaPlatform
from .base import RcaApp

#: How long a session may stay down and still count as a "flap".
SESSION_FLAP_WINDOW = 900.0

#: Fig. 4 rendered in the rule-specification language.  Priorities are
#: the edge numbers of the figure's style: deeper causes higher, layer-1
#: restorations above interface flaps (the paper's "priority 180" rule).
BGP_FLAPS_SPEC = f'''
application "bgp-flaps"
symptom "{names.EBGP_FLAP}"

rule "{names.EBGP_FLAP}" -> "Router reboot" priority 200 {{
    symptom expand start/end 60 300
    diagnostic expand start/end 10 10
    join router:neighbor-ip router at router
}}
rule "{names.EBGP_FLAP}" -> "{names.CUSTOMER_RESET}" priority 190 {{
    symptom expand start/start 30 10
    diagnostic expand start/end 5 5
    join router:neighbor-ip router:neighbor-ip at same-location
}}
rule "{names.EBGP_FLAP}" -> "{names.EBGP_HTE}" priority 20 {{
    symptom expand start/start 30 10
    diagnostic expand start/end 5 5
    join router:neighbor-ip router:neighbor-ip at same-location
}}

# interface events reach the session through the customer-facing port;
# the 200 s symptom margin models the eBGP hold timer (180 s) + noise
rule "{names.EBGP_FLAP}" -> "Line protocol flap" priority 150 {{
    symptom expand start/start 200 10
    diagnostic expand start/end 10 10
    join router:neighbor-ip interface at interface
}}
rule "{names.EBGP_FLAP}" -> "Interface flap" priority 160 {{
    symptom expand start/start 200 10
    diagnostic expand start/end 10 10
    join router:neighbor-ip interface at interface
}}
rule "Line protocol flap" -> "Interface flap" use library priority 160

rule "{names.EBGP_HTE}" -> "CPU high (spike)" priority 50 {{
    symptom expand start/start 300 10
    diagnostic expand start/end 10 10
    join router:neighbor-ip router at router
}}
rule "{names.EBGP_HTE}" -> "CPU high (average)" priority 30 {{
    symptom expand start/start 400 30
    diagnostic expand start/end 60 60
    join router:neighbor-ip router at router
}}

rule "Interface flap" -> "SONET restoration" use library priority 180
rule "Interface flap" -> "Fast optical mesh network restoration" use library priority 175
rule "Interface flap" -> "Regular optical mesh network restoration" use library priority 170
'''


# ---------------------------------------------------------------------------
# Table III application-specific events


def _retrieve_ebgp_flap(context: RetrievalContext) -> Iterable[Row]:
    """ADJCHANGE Down paired with the next Up on the same session."""
    window = context.param("session_flap_window", SESSION_FLAP_WINDOW)
    downs, ups = [], []
    for timestamp, router, neighbor, state in window_rows(
        context, "syslog", ("router", "neighbor", "state"),
        context.start - window, context.end + window, code="BGP-5-ADJCHANGE",
    ):
        if neighbor is None:
            continue
        point = TimedPoint(timestamp, (router, neighbor))
        if state == "down":
            downs.append(point)
        elif state == "up":
            ups.append(point)
    for down, up in pair_flaps(downs, ups, window):
        if up.timestamp < context.start or down.timestamp > context.end:
            continue
        location = Location.router_neighbor(*down.key)
        yield down.timestamp, up.timestamp, location, ()


def _notification_retrieval(reason: str, direction: str):
    def retrieve(context: RetrievalContext) -> Iterable[Row]:
        for timestamp, router, neighbor, why, way in window_rows(
            context, "syslog", ("router", "neighbor", "reason", "direction"),
            context.start, context.end, code="BGP-5-NOTIFICATION",
        ):
            if neighbor is None or why != reason or way != direction:
                continue
            location = Location.router_neighbor(router, neighbor)
            yield timestamp, timestamp, location, ()

    return retrieve


def register_bgp_events(events: EventLibrary) -> None:
    """Register the Table III application-specific events."""
    events.register(
        EventDefinition(
            names.EBGP_FLAP, LocationType.ROUTER_NEIGHBOR, _retrieve_ebgp_flap,
            "eBGP session goes down and comes up, BGP-5-ADJCHANGE msg", "syslog",
        )
    )
    events.register(
        EventDefinition(
            names.CUSTOMER_RESET, LocationType.ROUTER_NEIGHBOR,
            _notification_retrieval("administrative_reset", "received"),
            "eBGP session is reset by the customer, BGP-5-NOTIFICATION msg", "syslog",
        )
    )
    events.register(
        EventDefinition(
            names.EBGP_HTE, LocationType.ROUTER_NEIGHBOR,
            _notification_retrieval("hold_timer_expired", "sent"),
            "eBGP hold timer expired, BGP-5-NOTIFICATION msg", "syslog",
        )
    )


# ---------------------------------------------------------------------------
# the application


class BgpFlapApp(RcaApp):
    """The configured BGP flap RCA tool."""

    @classmethod
    def build(cls, platform: GrcaPlatform) -> "BgpFlapApp":
        """Configure the BGP flap RCA tool on a wired platform."""
        events = platform.knowledge.scoped_events()
        register_bgp_events(events)
        compiler = SpecCompiler(events, platform.knowledge.rules)
        return cls.wire(platform, events, compiler.compile_text(BGP_FLAPS_SPEC))

    # ------------------------------------------------------------------
    # Section IV-C: Bayesian inference over virtual root causes (Fig. 8)

    #: the derived group-level feature: several sessions on the same
    #: line card flapping within a few minutes
    FEATURE_MULTI_SESSION = "multi-session-flap-same-card"

    @staticmethod
    def bayesian_engine() -> BayesianEngine:
        """The Fig. 8 configuration with fuzzy Low/Medium/High ratios."""
        return BayesianEngine(
            [
                RootCauseModel(
                    "CPU High Issue",
                    prior_ratio="low",
                    evidence_ratios={
                        names.CPU_HIGH_SPIKE: "high",
                        names.CPU_HIGH_AVG: "high",
                        names.EBGP_HTE: "medium",
                    },
                    virtual=True,
                ),
                RootCauseModel(
                    "Interface Issue",
                    prior_ratio="medium",
                    evidence_ratios={
                        names.INTERFACE_FLAP: "high",
                        names.LINEPROTO_FLAP: "medium",
                        # independent per-interface faults rarely flap
                        # many sessions of one card in lockstep, so this
                        # evidence argues against the class (ratio < 1)
                        BgpFlapApp.FEATURE_MULTI_SESSION: 0.1,
                    },
                    virtual=True,
                ),
                RootCauseModel(
                    "Line-card Issue",
                    prior_ratio="low",
                    evidence_ratios={
                        names.INTERFACE_FLAP: "medium",
                        names.LINEPROTO_FLAP: "low",
                        BgpFlapApp.FEATURE_MULTI_SESSION: "high",
                    },
                    virtual=True,
                ),
            ]
        )

    def symptom_line_card(self, symptom: EventInstance) -> Optional[str]:
        """Resolve a flap's session to the line card behind it."""
        router, neighbor = symptom.location.parts
        fq = self.platform.paths.interface_for_neighbor(router, neighbor, symptom.start)
        if fq is None:
            return None
        iface = self.platform.topology.network.interface(fq)
        return f"{iface.router}:slot{iface.slot}"

    def bayesian_features(self, diagnosis: Diagnosis) -> Set[str]:
        """Per-symptom evidence features: matched diagnostic event names."""
        return {rule.child_event for rule, *_ in diagnosis.evidence.runs()}

    def group_by_line_card(
        self,
        diagnoses: Sequence[Diagnosis],
        window_seconds: float = 300.0,
        min_group: int = 3,
    ) -> List[Tuple[str, List[Diagnosis]]]:
        """Groups of flaps on the same line card within a short window.

        Groups of at least ``min_group`` gain the
        :data:`FEATURE_MULTI_SESSION` evidence when classified.
        """
        by_card: Dict[str, List[Diagnosis]] = {}
        for diagnosis in diagnoses:
            card = self.symptom_line_card(diagnosis.symptom)
            if card is not None:
                by_card.setdefault(card, []).append(diagnosis)
        groups: List[Tuple[str, List[Diagnosis]]] = []
        for card, members in sorted(by_card.items()):
            members.sort(key=lambda d: d.symptom.start)
            current: List[Diagnosis] = []
            for diagnosis in members:
                if current and (
                    diagnosis.symptom.start - current[-1].symptom.start > window_seconds
                ):
                    if len(current) >= min_group:
                        groups.append((card, current))
                    current = []
                current.append(diagnosis)
            if len(current) >= min_group:
                groups.append((card, current))
        return groups

    def classify_group_bayesian(
        self, card: str, group: Sequence[Diagnosis]
    ) -> BayesianVerdict:
        """Joint Bayesian diagnosis of one line-card group (Fig. 8)."""
        engine = self.bayesian_engine()
        observations = []
        for diagnosis in group:
            features = self.bayesian_features(diagnosis)
            if len(group) >= 3:
                features = features | {self.FEATURE_MULTI_SESSION}
            observations.append(features)
        del card
        return engine.classify_group(observations)
