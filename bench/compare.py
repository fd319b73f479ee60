"""``--compare A.json B.json``: judge run-set B against run-set A.

One row per (workload, end-to-end metric).  The verdict follows the
choosing-metrics guide (section 6, step 5, and section 8):

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread (the wider interquartile range
  of the two sides, as a share of A's median) exceeds the bound and the
  two sides' samples interleave, so "unchanged" cannot be claimed;
* ``better``     — every B sample beats every A sample, or B's median is
  better by more than A's own interquartile range;
* ``same``       — none of the above.

Every ratio is printed with its base (B over A, both medians shown).
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List


def _iqr(samples: List[float]) -> float:
    if len(samples) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


def verdict(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """Judge metric summary ``b`` against ``a`` (``grca-bench/1`` e2e entries)."""
    base = a["median"]
    sign = 1.0 if a["better"] == "lower" else -1.0
    # positive = B worse, as a share of A's median
    worsening = sign * (b["median"] - base) / base if base else 0.0
    xs, ys = a["samples"], b["samples"]
    b_all_better = max(sign * y for y in ys) < min(sign * x for x in xs)
    b_all_worse = min(sign * y for y in ys) > max(sign * x for x in xs)
    spread = max(_iqr(xs), _iqr(ys)) / abs(base) if base else 0.0
    if spread > a["bound"] and not (b_all_better or b_all_worse):
        return "unresolved"
    if worsening > a["bound"]:
        return "worse"
    if b_all_better or -worsening * abs(base) > _iqr(xs) > 0.0:
        return "better"
    return "same"


def main(path_a: str, path_b: str) -> int:
    """Print the comparison; exit 1 on any ``worse`` or ``unresolved``."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    print(f"A = {path_a} ({a['env']['git_sha'][:12]}, seed {a['env']['seed']})")
    print(f"B = {path_b} ({b['env']['git_sha'][:12]}, seed {b['env']['seed']})")
    print(f"{'workload':<20} {'metric':<17} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'bound':>6}  verdict")
    bad = 0
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            print(f"{name:<20} missing from B")
            bad += 1
            continue
        same_seed = a["env"]["seed"] == b["env"]["seed"]
        for key in ("digest", "accuracy", "failed"):
            if entry_a[key] != entry_b[key]:
                print(f"{name:<20} {key}: A {entry_a[key]} != B {entry_b[key]}")
                if key != "digest" or same_seed:  # digests differ by seed
                    bad += 1
        for metric, m_a in entry_a["e2e"].items():
            m_b = entry_b["e2e"][metric]
            outcome = verdict(m_a, m_b)
            bad += outcome in ("worse", "unresolved")
            ratio = m_b["median"] / m_a["median"] if m_a["median"] else float("nan")
            print(f"{name:<20} {metric:<17} {m_a['median']:>12.4f} {m_b['median']:>12.4f} "
                  f"{ratio:>7.3f} {m_a['bound']:>6.2f}  {outcome} ({m_a['unit']}, "
                  f"{m_a['better']} is better, n={m_a['n']}/{m_b['n']})")
    return 1 if bad else 0
