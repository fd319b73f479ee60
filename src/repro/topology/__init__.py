"""Synthetic tier-1 ISP topology substrate.

Provides the element model (routers, line cards, interfaces, logical and
physical links, layer-1 devices), the :class:`Network` container with the
cross-layer lookups of the paper's Fig. 2, a deterministic topology
generator and router-config rendering/parsing.
"""

from .builder import BuiltTopology, TopologyBuilder, TopologyParams, build_topology
from .config_parser import (
    ConfigArchive,
    ParsedConfig,
    parse_config,
    render_config,
    snapshot_network,
)
from .elements import (
    CdnServer,
    Interface,
    Layer1Device,
    Layer1Kind,
    LineCard,
    LogicalLink,
    PhysicalLink,
    Pop,
    Router,
    RouterRole,
)
from .network import Network, TopologyError

__all__ = [
    "BuiltTopology",
    "CdnServer",
    "ConfigArchive",
    "Interface",
    "Layer1Device",
    "Layer1Kind",
    "LineCard",
    "LogicalLink",
    "Network",
    "ParsedConfig",
    "PhysicalLink",
    "Pop",
    "Router",
    "RouterRole",
    "TopologyBuilder",
    "TopologyError",
    "TopologyParams",
    "build_topology",
    "parse_config",
    "render_config",
    "snapshot_network",
]
