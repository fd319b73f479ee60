"""Backbone probe-loss RCA — the paper's motivating SQM workload.

The introduction frames the aggregate-analysis use case around
"sporadic packet losses observed by probing traffic transmitted between
different points of presence": examine a month of loss events, diagnose
them in bulk, and decide where to invest — "should link congestion be
determined to be the primary root cause, capacity augmentation is
needed ...; alternatively, if packet losses are found to be largely due
to intradomain routing reconvergence, deploying technologies such as
MPLS fast reroute becomes a priority."

This application needs *zero* application-specific events or rules:
symptom and every diagnosis rule come straight from the Knowledge
Library (Tables I and II), which is the strongest form of the paper's
rapid-customization claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.browser import ResultBrowser
from ..core.knowledge import names
from ..core.rulespec import SpecCompiler
from ..platform import GrcaPlatform
from .base import RcaApp

#: The whole application is this spec: library events, library rules.
BACKBONE_LOSS_SPEC = f'''
application "backbone-probe-loss"
symptom "{names.LOSS_INCREASE}"

rule "{names.LOSS_INCREASE}" -> "{names.LINK_CONGESTION}" use library priority 90
rule "{names.LOSS_INCREASE}" -> "{names.OSPF_RECONVERGENCE}" use library priority 80
rule "{names.LOSS_INCREASE}" -> "{names.BGP_EGRESS_CHANGE}" use library priority 70
'''


@dataclass(frozen=True)
class InvestmentAdvice:
    """The intro's operational decision, computed from a breakdown."""

    congestion_share: float
    reconvergence_share: float
    recommendation: str


class BackboneApp(RcaApp):
    """The configured backbone probe-loss RCA tool."""

    @classmethod
    def build(cls, platform: GrcaPlatform) -> "BackboneApp":
        """Configure the backbone probe-loss RCA tool on a wired platform."""
        events = platform.knowledge.scoped_events()
        compiler = SpecCompiler(events, platform.knowledge.rules)
        return cls.wire(
            platform, events, compiler.compile_text(BACKBONE_LOSS_SPEC)
        )

    @staticmethod
    def advise(browser: ResultBrowser) -> InvestmentAdvice:
        """Turn the aggregate breakdown into the intro's decision."""
        rows = {row.root_cause: row.percentage for row in browser.breakdown()}
        congestion = rows.get(names.LINK_CONGESTION, 0.0)
        reconvergence = rows.get(names.OSPF_RECONVERGENCE, 0.0)
        if congestion > reconvergence:
            recommendation = (
                "capacity augmentation along the congested paths"
            )
        elif reconvergence > congestion:
            recommendation = (
                "prioritize MPLS fast reroute deployment"
            )
        else:
            recommendation = "no dominant systemic cause; keep monitoring"
        return InvestmentAdvice(
            congestion_share=congestion,
            reconvergence_share=reconvergence,
            recommendation=recommendation,
        )
