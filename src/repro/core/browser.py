"""The Result Browser (Fig. 1).

Operators use the Result Browser to (a) see root-cause *breakdowns* of
many diagnosed symptoms — the views published as Tables IV, VI and
VIII; (b) *filter* symptoms by root cause, e.g. to set aside explained
events and concentrate on the unexplained rest (Section II-E); (c)
*drill down* into one symptom, pulling the raw records around its time
and location from any store table; and (d) *trend* causes over time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..collector.store import DataStore, Record
from .engine import Diagnosis
from .reasoning.rule_based import UNKNOWN


def escape_markdown_cell(text: str) -> str:
    """Escape a value for interpolation into a markdown table cell.

    Pipes delimit columns and newlines end rows, so a root-cause label
    containing either would corrupt the table.  Shared by
    :meth:`ResultBrowser.report` and the incident report renderer
    (:mod:`repro.incident.report`).
    """
    return (
        str(text)
        .replace("\\", "\\\\")
        .replace("|", "\\|")
        .replace("\n", " ")
    )


@dataclass(frozen=True)
class BreakdownRow:
    """One row of a root-cause breakdown table."""

    root_cause: str
    count: int
    percentage: float


class ResultBrowser:
    """Breakdowns, filtering, drill-down and trending over diagnoses."""

    def __init__(self, diagnoses: Sequence[Diagnosis]) -> None:
        self.diagnoses: List[Diagnosis] = list(diagnoses)

    def __len__(self) -> int:
        return len(self.diagnoses)

    # ------------------------------------------------------------------
    # breakdown (Tables IV / VI / VIII)

    def breakdown(
        self, order: Optional[Sequence[str]] = None, annotated: bool = False
    ) -> List[BreakdownRow]:
        """Counts and percentages by primary root cause.

        ``order`` fixes row order (a paper table's order, say); causes
        not listed are appended by descending count, with Unknown last.
        With ``annotated=True`` the Unknown bucket splits by evidence
        health (``Diagnosis.annotated_cause``): "no evidence found" vs
        "evidence unavailable".
        """
        counts: Dict[str, int] = {}
        for diagnosis in self.diagnoses:
            cause = diagnosis.annotated_cause if annotated else diagnosis.primary_cause
            counts[cause] = counts.get(cause, 0) + 1
        total = len(self.diagnoses)
        ordered: List[str] = []
        if order:
            ordered.extend(cause for cause in order if cause in counts)
        remaining = sorted(
            (c for c in counts if c not in ordered),
            key=lambda c: (c == UNKNOWN or c.startswith(UNKNOWN + " ("), -counts[c], c),
        )
        ordered.extend(remaining)
        return [
            BreakdownRow(cause, counts[cause], 100.0 * counts[cause] / total)
            for cause in ordered
        ]

    def format_breakdown(self, order: Optional[Sequence[str]] = None) -> str:
        """Render the breakdown in the paper's two-column table style."""
        rows = self.breakdown(order)
        width = max([len("Root Cause")] + [len(r.root_cause) for r in rows])
        lines = [f"{'Root Cause':<{width}}  Percentage (%)"]
        for row in rows:
            lines.append(f"{row.root_cause:<{width}}  {row.percentage:>12.2f}")
        return "\n".join(lines)

    def explained_fraction(self) -> float:
        """Share of symptoms with a diagnosed root cause (PIM's >98%)."""
        if not self.diagnoses:
            return 0.0
        explained = sum(1 for d in self.diagnoses if d.is_explained)
        return explained / len(self.diagnoses)

    # ------------------------------------------------------------------
    # filtering (the iterative-analysis workflow)

    def filter(
        self,
        cause: Optional[str] = None,
        explained: Optional[bool] = None,
        predicate: Optional[Callable[[Diagnosis], bool]] = None,
    ) -> "ResultBrowser":
        """A new browser restricted to matching diagnoses."""
        kept = []
        for diagnosis in self.diagnoses:
            if cause is not None and diagnosis.primary_cause != cause:
                continue
            if explained is not None and diagnosis.is_explained != explained:
                continue
            if predicate is not None and not predicate(diagnosis):
                continue
            kept.append(diagnosis)
        return ResultBrowser(kept)

    def unexplained(self) -> "ResultBrowser":
        """Symptoms with no known root cause — the mining input."""
        return self.filter(explained=False)

    def degraded(self) -> "ResultBrowser":
        """Diagnoses whose evidence feeds were impaired (caveated)."""
        return self.filter(predicate=lambda d: d.is_degraded)

    def mean_confidence(self) -> float:
        """Average diagnosis confidence (1.0 when the view is empty)."""
        if not self.diagnoses:
            return 1.0
        return sum(d.confidence for d in self.diagnoses) / len(self.diagnoses)

    def with_cause(self, cause: str) -> "ResultBrowser":
        """A browser restricted to one primary root cause."""
        return self.filter(cause=cause)

    # ------------------------------------------------------------------
    # drill-down (manual data exploration)

    def drill_down(
        self,
        store: DataStore,
        diagnosis: Diagnosis,
        window_seconds: float = 600.0,
        tables: Optional[Sequence[str]] = None,
        router: Optional[str] = None,
    ) -> Dict[str, List[Record]]:
        """Raw records around one symptom's time (and router, if known).

        Mirrors "the integrated data drilling-through functionality ...
        to explore additional information such as syslog messages and
        workflow logs that appear on the same router or location as the
        event being analyzed".
        """
        start = diagnosis.symptom.start - window_seconds
        end = diagnosis.symptom.end + window_seconds
        if router is None:
            try:
                router = diagnosis.symptom.location.router_part
            except ValueError:
                router = None
        table_names = list(tables) if tables else sorted(store.tables)
        result: Dict[str, List[Record]] = {}
        for name in table_names:
            table = store.table(name)
            if router is not None and "router" in table.indexed_columns:
                records = table.query(start, end, router=router)
            else:
                records = table.query(start, end)
            if records:
                result[name] = records
        return result

    # ------------------------------------------------------------------
    # trending

    def trend(
        self, bucket_seconds: float = 86400.0
    ) -> Dict[str, List[Tuple[float, int]]]:
        """Per-cause counts over time buckets (daily by default).

        Buckets are floor-aligned to multiples of ``bucket_seconds``, so
        a pre-epoch timestamp lands in the bucket *below* it (e.g. start
        ``-10`` with daily buckets belongs to bucket ``-86400.0``), not
        in bucket ``0``.  ``bucket_seconds`` must be positive.
        """
        if bucket_seconds <= 0:
            raise ValueError(
                f"bucket_seconds must be positive, got {bucket_seconds!r}"
            )
        series: Dict[str, Dict[float, int]] = {}
        for diagnosis in self.diagnoses:
            bucket = diagnosis.symptom.start - (
                diagnosis.symptom.start % bucket_seconds
            )
            per_cause = series.setdefault(diagnosis.primary_cause, {})
            per_cause[bucket] = per_cause.get(bucket, 0) + 1
        return {
            cause: sorted(buckets.items()) for cause, buckets in sorted(series.items())
        }

    def report(self, title: str = "Root cause analysis report") -> str:
        """A self-contained markdown report of this browser's view.

        The textual equivalent of the Result Browser GUI: breakdown
        table, explained fraction, daily trend and a worked example
        trace per cause.
        """
        lines = [f"# {title}", ""]
        lines.append(f"Symptoms diagnosed: **{len(self.diagnoses)}** — "
                     f"explained: **{100 * self.explained_fraction():.1f}%**")
        degraded = len(self.degraded())
        if degraded:
            lines.append("")
            lines.append(
                f"Degraded evidence: **{degraded}** diagnoses carry caveats — "
                f"mean confidence **{self.mean_confidence():.2f}**"
            )
        lines.append("")
        lines.append("## Root cause breakdown")
        lines.append("")
        lines.append("| Root Cause | Count | Percentage (%) |")
        lines.append("|---|---:|---:|")
        for row in self.breakdown():
            lines.append(
                f"| {escape_markdown_cell(row.root_cause)} "
                f"| {row.count} | {row.percentage:.2f} |"
            )
        lines.append("")
        lines.append("## Daily trend")
        lines.append("")
        lines.append("```")
        lines.append(self.format_trend())
        lines.append("```")
        lines.append("")
        lines.append("## Example diagnoses")
        seen = set()
        for diagnosis in self.diagnoses:
            cause = diagnosis.primary_cause
            if cause in seen:
                continue
            seen.add(cause)
            lines.append("")
            lines.append(f"### {cause}")
            lines.append("```")
            lines.append(diagnosis.explain())
            lines.append("```")
        return "\n".join(lines) + "\n"

    def trend_shift(
        self, split_time: float, min_count: int = 5
    ) -> Dict[str, Tuple[float, float]]:
        """Per-cause daily rates before vs after ``split_time``.

        The "identify anomalous behavior that requires investigation
        (e.g. behavioral changes after new software upgrades)" use of
        the BGP application: a cause whose rate jumps after a change
        window stands out.  Causes with fewer than ``min_count`` total
        events are omitted (too noisy to trend).
        """
        starts = [d.symptom.start for d in self.diagnoses]
        if not starts:
            return {}
        lo, hi = min(starts), max(starts)
        before_days = max((split_time - lo) / 86400.0, 1e-9)
        after_days = max((hi - split_time) / 86400.0, 1e-9)
        rates: Dict[str, Tuple[float, float]] = {}
        counts: Dict[str, List[int]] = {}
        for diagnosis in self.diagnoses:
            pair = counts.setdefault(diagnosis.primary_cause, [0, 0])
            pair[diagnosis.symptom.start >= split_time] += 1
        for cause, (before, after) in sorted(counts.items()):
            if before + after < min_count:
                continue
            rates[cause] = (before / before_days, after / after_days)
        return rates

    def format_trend(self, bucket_seconds: float = 86400.0) -> str:
        """Render the trend as aligned text (cause x bucket counts).

        ``bucket_seconds`` must be positive (see :meth:`trend`).
        """
        if bucket_seconds <= 0:
            raise ValueError(
                f"bucket_seconds must be positive, got {bucket_seconds!r}"
            )
        trend = self.trend(bucket_seconds)
        all_buckets = sorted({b for rows in trend.values() for b, _ in rows})
        if not all_buckets:
            return "(no diagnoses)"
        width = max(len(c) for c in trend)
        lines = []
        for cause, rows in trend.items():
            counts = dict(rows)
            cells = " ".join(f"{counts.get(b, 0):>5}" for b in all_buckets)
            lines.append(f"{cause:<{width}}  {cells}")
        return "\n".join(lines)
