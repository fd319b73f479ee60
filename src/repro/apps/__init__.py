"""RCA applications built on the G-RCA platform (Section III)."""

from .base import RcaApp
from .backbone import BACKBONE_LOSS_SPEC, BackboneApp, InvestmentAdvice
from .bgp_flaps import BGP_FLAPS_SPEC, BgpFlapApp, register_bgp_events
from .cdn import CdnApp, build_cdn_graph, register_cdn_events
from .pim import CUSTOMER_IFACE_FLAP, PimApp, build_pim_graph, register_pim_events

__all__ = [
    "BACKBONE_LOSS_SPEC",
    "BackboneApp",
    "InvestmentAdvice",
    "BGP_FLAPS_SPEC",
    "BgpFlapApp",
    "CUSTOMER_IFACE_FLAP",
    "CdnApp",
    "PimApp",
    "RcaApp",
    "build_cdn_graph",
    "build_pim_graph",
    "register_bgp_events",
    "register_cdn_events",
    "register_pim_events",
]
