"""Observability: diagnosis tracing, stage breakdowns, trace export,
and the metrics registry.

``repro.obs`` is the platform's answer to "where did this diagnosis
spend its time and which rule fired on which evidence?" — a span tree
per diagnosis mirroring the diagnosis-graph walk, produced only when a
caller opts in (the default :data:`~repro.obs.trace.NULL_TRACER` is a
no-op on the hot path).  :mod:`repro.obs.metrics` holds the metric
types and the one registry a process's metrics are named in.  See
``docs/observability.md``.
"""

from .report import (
    format_stage_lines,
    load_trace,
    stage_breakdown,
    stage_counts,
    summarize_stages,
    trace_document,
    trace_to_json,
    write_trace,
)
from .trace import (
    NULL_TRACER,
    TRACE_SCHEMA,
    NullTracer,
    Span,
    SteppingClock,
    Tracer,
)

__all__ = [
    "NULL_TRACER",
    "TRACE_SCHEMA",
    "NullTracer",
    "Span",
    "SteppingClock",
    "Tracer",
    "format_stage_lines",
    "load_trace",
    "stage_breakdown",
    "stage_counts",
    "summarize_stages",
    "trace_document",
    "trace_to_json",
    "write_trace",
]
