"""Temporal join rules (Section II-C, Fig. 3).

A temporal joining rule has six parameters: a left expansion margin X,
a right margin Y and an expanding option (Start/End, Start/Start or
End/End) *for each* of the symptom and diagnostic events.  Margins can
be positive or negative.  Two event instances join when their expanded
time windows overlap.

The paper's worked example, preserved as a doctest::

    >>> symptom = TemporalExpansion(ExpandOption.START_START, 180, 5)
    >>> symptom.expand(1000, 2000)
    (820.0, 1005.0)
    >>> diagnostic = TemporalExpansion(ExpandOption.START_END, 5, 5)
    >>> diagnostic.expand(900, 901)
    (895.0, 906.0)
    >>> TemporalJoinRule(symptom, diagnostic).joined((1000, 2000), (900, 901))
    True
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union


class ExpandOption(enum.Enum):
    """How an event's [start, end] becomes an expanded window (Fig. 3).

    * ``START_END`` — window anchored at [start, end] (the full event);
    * ``START_START`` — window anchored at [start, start];
    * ``END_END`` — window anchored at [end, end].
    """

    START_END = "Start/End"
    START_START = "Start/Start"
    END_END = "End/End"


@dataclass(frozen=True)
class TemporalExpansion:
    """One side of a temporal join rule: option plus X/Y margins.

    ``left`` (X) extends the window backward in time from its left
    anchor; ``right`` (Y) extends it forward from its right anchor.
    Negative values shift inward.
    """

    option: ExpandOption
    left: float  # X, seconds
    right: float  # Y, seconds

    def describe(self) -> str:
        """Compact identity string, e.g. ``Start/Start X=180 Y=5``.

        Used as the temporal half of a rule's identity in trace spans
        (:mod:`repro.obs`): two rules with the same six parameters
        describe identically, so golden traces pin rule identity
        without repr noise.
        """
        return f"{self.option.value} X={self.left:g} Y={self.right:g}"

    def expand(self, start: float, end: float) -> Tuple[float, float]:
        """Expanded window for an event instance's [start, end]."""
        if end < start:
            raise ValueError(f"event ends ({end}) before it starts ({start})")
        if self.option is ExpandOption.START_END:
            anchor_lo, anchor_hi = start, end
        elif self.option is ExpandOption.START_START:
            anchor_lo, anchor_hi = start, start
        else:  # END_END
            anchor_lo, anchor_hi = end, end
        lo = anchor_lo - self.left
        hi = anchor_hi + self.right
        if hi < lo:
            # negative margins may invert the window; treat as empty by
            # collapsing to a zero-length window at the midpoint
            mid = (lo + hi) / 2.0
            return (mid, mid)
        return (float(lo), float(hi))


class IntervalColumns:
    """Candidate intervals as parallel sorted arrays, for batch joins.

    ``starts`` must be non-decreasing (the engine's retrieval cache
    guarantees it: :meth:`EventDefinition.retrieve` sorts rows by
    ``(start, end)``).  The end-sorted permutation and its value array
    are derived lazily and memoized, so one candidate set can be joined
    against many symptoms — the batch-join equivalents of building a
    secondary index once per retrieval cover.
    """

    __slots__ = ("starts", "ends", "_end_order", "_sorted_ends")

    def __init__(self, starts: Sequence[float], ends: Sequence[float]) -> None:
        if len(starts) != len(ends):
            raise ValueError(
                f"parallel interval arrays differ in length: "
                f"{len(starts)} starts vs {len(ends)} ends"
            )
        self.starts = starts
        self.ends = ends
        self._end_order: Optional[List[int]] = None
        self._sorted_ends: Optional[List[float]] = None

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def end_order(self) -> List[int]:
        """Candidate indices sorted by (end, index); lazy, memoized."""
        if self._end_order is None:
            ends = self.ends
            self._end_order = sorted(range(len(ends)), key=ends.__getitem__)
            self._sorted_ends = [ends[k] for k in self._end_order]
        return self._end_order

    @property
    def sorted_ends(self) -> List[float]:
        """End values in :attr:`end_order` order; lazy, memoized."""
        if self._sorted_ends is None:
            self.end_order  # builds both
        return self._sorted_ends  # type: ignore[return-value]


@dataclass(frozen=True)
class TemporalJoinRule:
    """Expansions for the symptom and the diagnostic event."""

    symptom: TemporalExpansion
    diagnostic: TemporalExpansion

    def describe(self) -> str:
        """Full six-parameter identity (both expansions) for tracing."""
        return (
            f"symptom[{self.symptom.describe()}] "
            f"diagnostic[{self.diagnostic.describe()}]"
        )

    def joined(
        self,
        symptom_interval: Tuple[float, float],
        diagnostic_interval: Tuple[float, float],
    ) -> bool:
        """True when the two expanded (closed) windows overlap."""
        s_lo, s_hi = self.symptom.expand(*symptom_interval)
        d_lo, d_hi = self.diagnostic.expand(*diagnostic_interval)
        return s_lo <= d_hi and d_lo <= s_hi

    def joined_batch(
        self,
        symptom_interval: Tuple[float, float],
        starts: Union[IntervalColumns, Sequence[float]],
        ends: Optional[Sequence[float]] = None,
    ) -> List[int]:
        """Indices of candidates joining the symptom, via sorted arrays.

        The batch equivalent of calling :meth:`joined` once per
        candidate: ``starts``/``ends`` are parallel arrays of candidate
        intervals sorted by ``(start, end)`` (pass a prebuilt
        :class:`IntervalColumns` as ``starts`` to reuse its memoized
        end-order across calls).  Returns ascending candidate indices —
        the same survivors, in the same order, as the scalar loop.

        Every :class:`ExpandOption` of the diagnostic expansion reduces
        to one or two :mod:`bisect` probes over the sorted vectors:

        * ``Start/Start`` — the expanded window is ``[start-X, start+Y]``
          (or its midpoint collapse, a constant shift of ``start``), so
          joiners form one contiguous run of the start-sorted array.
        * ``End/End`` — same argument on the end-sorted permutation.
        * ``Start/End`` with ``X+Y >= 0`` — joiners are the intersection
          of a *prefix* of the start order (``start <= s_hi + X``) and a
          *suffix* of the end order (``end >= s_lo - Y``); the smaller
          side is enumerated and the other inequality checked by O(1)
          array lookup.
        * ``Start/End`` with ``X+Y < 0`` — a candidate's window inverts
          (collapses to its midpoint) only when its duration is below
          ``-(X+Y)``, which is per-candidate; this rare configuration
          evaluates :meth:`joined` per candidate.
        """
        columns = (
            starts
            if isinstance(starts, IntervalColumns)
            else IntervalColumns(starts, ends if ends is not None else [])
        )
        n = len(columns)
        if n == 0:
            return []
        s_lo, s_hi = self.symptom.expand(*symptom_interval)
        d = self.diagnostic
        x, y = d.left, d.right
        if d.option is ExpandOption.START_START:
            if x + y >= 0:
                # [start-X, start+Y] overlaps [s_lo, s_hi] iff
                # s_lo - Y <= start <= s_hi + X
                lo_t, hi_t = s_lo - y, s_hi + x
            else:
                # inverted: window collapses to start + (Y-X)/2
                shift = (y - x) / 2.0
                lo_t, hi_t = s_lo - shift, s_hi - shift
            i = bisect_left(columns.starts, lo_t)
            j = bisect_right(columns.starts, hi_t, i)
            return list(range(i, j))
        if d.option is ExpandOption.END_END:
            if x + y >= 0:
                lo_t, hi_t = s_lo - y, s_hi + x
            else:
                shift = (y - x) / 2.0
                lo_t, hi_t = s_lo - shift, s_hi - shift
            sorted_ends = columns.sorted_ends
            p = bisect_left(sorted_ends, lo_t)
            q = bisect_right(sorted_ends, hi_t, p)
            return sorted(columns.end_order[p:q])
        # START_END
        if x + y < 0:
            return [
                k
                for k in range(n)
                if self.joined(
                    symptom_interval, (columns.starts[k], columns.ends[k])
                )
            ]
        # window is [start-X, end+Y] (never inverted since duration >= 0
        # and X+Y >= 0): joins iff start <= s_hi + X and end >= s_lo - Y
        start_cut = s_hi + x
        end_cut = s_lo - y
        j = bisect_right(columns.starts, start_cut)  # prefix [0, j)
        p = bisect_left(columns.sorted_ends, end_cut)  # suffix of end order
        if j <= n - p:
            ends_arr = columns.ends
            return [k for k in range(j) if ends_arr[k] >= end_cut]
        return sorted(k for k in columns.end_order[p:] if k < j)

    def reaches(self) -> Tuple[float, float]:
        """How far (before, after) the symptom's expanded window the raw
        interval of a joinable diagnostic instance may lie.

        The diagnostic expansion inverted conservatively.  A regular
        window reaches left by max(X, 0) of its earliest anchor and
        right by max(Y, 0); anchors lie within [start, end].  An
        *inverted* window (X + Y < 0) collapses to its midpoint, which
        sits up to -X right of an anchor and up to -Y left of one — so
        each side's reach is the max over both cases.
        """
        d = self.diagnostic
        return max(d.right, -d.left, 0.0), max(d.left, -d.right, 0.0)

    def search_window(self, symptom_interval: Tuple[float, float]) -> Tuple[float, float]:
        """Raw-time range a diagnostic event must intersect to possibly join.

        Bounds the store query before the exact check: a diagnostic
        instance whose raw [start, end] lies wholly outside this range
        cannot join regardless of its expansion.  (The engine's compiled
        plan holds :meth:`reaches` per rule and applies them itself.)
        """
        s_lo, s_hi = self.symptom.expand(*symptom_interval)
        before, after = self.reaches()
        return (s_lo - before, s_hi + after)


def default_rule(slack_seconds: float = 5.0) -> TemporalJoinRule:
    """A symmetric Start/End rule with small timestamp-noise slack."""
    expansion = TemporalExpansion(ExpandOption.START_END, slack_seconds, slack_seconds)
    return TemporalJoinRule(expansion, expansion)
