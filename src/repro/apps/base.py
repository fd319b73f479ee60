"""The scaffold every RCA application shares.

An application *is* its event definitions and its diagnosis graph
(Section II: "configured only by event definitions and joining rules");
everything else — holding the platform, wiring the engine, retrieving
symptoms, running a window — is identical across applications and lives
here once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.browser import ResultBrowser
from ..core.engine import EngineConfig, RcaEngine
from ..core.events import EventInstance, EventLibrary
from ..core.graph import DiagnosisGraph
from ..obs.trace import Tracer
from ..platform import GrcaPlatform
from ..service.workers import parallel_diagnose


@dataclass
class RcaApp:
    """A configured RCA tool: platform, scoped events, engine."""

    platform: GrcaPlatform
    events: EventLibrary
    engine: RcaEngine

    @classmethod
    def wire(
        cls,
        platform: GrcaPlatform,
        events: EventLibrary,
        graph: DiagnosisGraph,
        services: Optional[Dict[str, Any]] = None,
    ):
        """Build the app around an engine for ``graph`` on ``platform``.

        ``services`` replaces the platform's retrieval services when an
        application's events need extra handles.
        """
        engine = RcaEngine(
            graph=graph,
            library=events,
            resolver=platform.resolver,
            store=platform.store,
            config=EngineConfig(
                services=platform.services if services is None else services,
                health=platform.health,
            ),
        )
        return cls(platform=platform, events=events, engine=engine)

    def find_symptoms(
        self, start: float, end: float, tracer: Optional[Tracer] = None
    ) -> List[EventInstance]:
        """Retrieve the application's symptom instances in a window
        (:meth:`RcaEngine.find_symptoms`)."""
        return self.engine.find_symptoms(start, end, tracer)

    def run(self, start: float, end: float, jobs: int = 1) -> ResultBrowser:
        """Diagnose every symptom in the window; browse the results.

        ``jobs > 1`` diagnoses contiguous time chunks in forked workers
        where the machine allows (see
        :func:`~repro.service.workers.parallel_diagnose`); results are
        identical to the serial path.
        """
        symptoms = self.find_symptoms(start, end)
        return ResultBrowser(parallel_diagnose(self.engine, symptoms, jobs=jobs))
