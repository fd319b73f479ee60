"""G-RCA core: the paper's primary contribution.

Event model, location/service-dependency model, spatial-temporal
correlation, diagnosis graphs, the generic RCA engine, rule-based and
Bayesian reasoning, the Knowledge Library, the Correlation Tester and
the Result Browser.
"""

from .browser import BreakdownRow, ResultBrowser
from .calibration import (
    CalibrationResult,
    LagSample,
    calibrate_temporal_rule,
    coverage_curve,
    pair_for_calibration,
)
from .engine import Diagnosis, EngineConfig, RcaEngine
from .exploration import CoOccurrence, co_occurring_signatures, format_exploration
from .events import (
    CandidateSet,
    EventDefinition,
    EventInstance,
    EventLibrary,
    RetrievalContext,
    retrieve_events,
)
from .graph import DiagnosisGraph, DiagnosisRule, GraphError
from .knowledge import KnowledgeLibrary, names
from .locations import Location, LocationType
from .reasoning import (
    BayesianEngine,
    BayesianVerdict,
    FuzzyRatio,
    MatchedEvidence,
    RootCauseModel,
    RuleBasedResult,
    UNKNOWN,
    train_ratios_from_labels,
)
from .knowledge.derived import exclude_preceded_by, require_preceded_by
from .spatial import JoinLevel, LocationResolver, SpatialJoinRule
from .streaming import FeedReplayer, StreamingConfig, StreamingRca
from .temporal import ExpandOption, TemporalExpansion, TemporalJoinRule

__all__ = [
    "CalibrationResult",
    "CoOccurrence",
    "co_occurring_signatures",
    "format_exploration",
    "FeedReplayer",
    "LagSample",
    "StreamingConfig",
    "StreamingRca",
    "calibrate_temporal_rule",
    "coverage_curve",
    "exclude_preceded_by",
    "pair_for_calibration",
    "require_preceded_by",
    "BayesianEngine",
    "BayesianVerdict",
    "BreakdownRow",
    "Diagnosis",
    "DiagnosisGraph",
    "DiagnosisRule",
    "EngineConfig",
    "CandidateSet",
    "EventDefinition",
    "EventInstance",
    "EventLibrary",
    "ExpandOption",
    "FuzzyRatio",
    "GraphError",
    "JoinLevel",
    "KnowledgeLibrary",
    "Location",
    "LocationResolver",
    "LocationType",
    "MatchedEvidence",
    "ResultBrowser",
    "RetrievalContext",
    "RcaEngine",
    "RootCauseModel",
    "RuleBasedResult",
    "SpatialJoinRule",
    "TemporalExpansion",
    "TemporalJoinRule",
    "UNKNOWN",
    "names",
    "retrieve_events",
    "train_ratios_from_labels",
]
