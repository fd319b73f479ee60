"""``detect_shift`` as it was written first: the reference.

Each key keeps every sample it accepted, and every sample re-sorts the
last ``baseline_window`` of them to take their median.
``repro.core.knowledge.detectors.detect_shift`` keeps the trailing
window sorted as values come and go instead; ``test_shift.py`` holds it
to this one.
"""

from typing import Dict, Hashable, Iterable, List, Tuple

from repro.core.knowledge.detectors import Anomaly


def detect_shift(
    samples: Iterable[Tuple[float, Hashable, float]],
    direction: str,
    factor: float,
    min_baseline_samples: int = 3,
    baseline_window: int = 12,
    absolute_floor: float = 0.0,
) -> List[Anomaly]:
    """Flag samples that shift from their per-key trailing median.

    ``direction`` is ``"increase"`` (value >= factor * baseline, e.g.
    delay or loss) or ``"decrease"`` (value <= baseline / factor, e.g.
    throughput).  ``absolute_floor`` suppresses noise on near-zero
    baselines (a loss series hovering at 0.0% should not alarm at
    0.001%).
    """
    if direction not in ("increase", "decrease"):
        raise ValueError(f"direction must be increase/decrease, got {direction!r}")
    if factor <= 1.0:
        raise ValueError("factor must exceed 1.0")
    if min_baseline_samples < 1:
        raise ValueError("a baseline needs at least one sample")
    history: Dict[Hashable, List[float]] = {}
    anomalies: List[Anomaly] = []
    for timestamp, key, value in sorted(samples, key=lambda s: s[0]):
        past = history.setdefault(key, [])
        if len(past) >= min_baseline_samples:
            # the trailing median, as statistics.median computes it
            trailing = sorted(past[-baseline_window:])
            middle = len(trailing) // 2
            baseline = (
                trailing[middle] if len(trailing) % 2
                else (trailing[middle - 1] + trailing[middle]) / 2
            )
            if direction == "increase":
                flagged = value >= max(baseline * factor, baseline + absolute_floor)
            else:
                flagged = value <= min(
                    baseline / factor, baseline - absolute_floor
                ) and baseline > 0
            if flagged:
                anomalies.append(Anomaly(timestamp, key, value, baseline))
                # do not pollute the baseline with anomalous values
                continue
        past.append(value)
    return anomalies
