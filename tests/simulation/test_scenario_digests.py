"""The seven scenario builders, pinned byte for byte.

Each builder runs at a small size and a fixed seed, and one sha256 is
taken over what it hands the platform: every table's rows in the
store's ``(timestamp, arrival)`` order, the collector's per-feed
statistics, the ground truth, the window and ``extras``.  A change to
the order of any seeded draw, to what is emitted, or to how it is
ingested moves the digest; a refactor of the builders must not.

To see it fail, swap two ``rng`` draws in one builder (e.g. the
``rng.choice(pers)`` router and the ``rng.uniform`` time in
``cpu_bgp_study``'s benign-activity loop): that builder's case goes
red.  Nothing here may depend on ``PYTHONHASHSEED``; run the file under
two values to check.
"""

import hashlib

import pytest

from repro.simulation import (
    backbone_probe_month,
    bgp_flap_storm,
    bgp_month,
    cdn_month,
    cpu_bgp_study,
    linecard_crash,
    pim_fortnight,
)

CASES = {
    "bgp_month": (
        lambda: bgp_month(total_flaps=40, seed=3, duration_days=10),
        "81160bf637537775669ed527c7aab41df75e142502b77ff04ca5a1223ef1baea",
    ),
    "bgp_flap_storm": (
        lambda: bgp_flap_storm(total_flaps=40, seed=3, duration_days=10),
        "42a2b0aebaf4724e753c977ba33fed17a6aed2b8ffb652ff068e5b61a4053520",
    ),
    "pim_fortnight": (
        lambda: pim_fortnight(total_changes=40, seed=3, duration_days=7),
        "67d702ed66ac677b5f26e88075d70d668129c5c2f1a33d3623aa2e5a50f82ae1",
    ),
    "cdn_month": (
        lambda: cdn_month(total_degradations=20, seed=3, duration_days=7,
                          n_clients=8),
        "fbf2a6971c866104df995213dbd3e8d5598010eb199d7380de489ce9799b374a",
    ),
    "backbone_probe_month": (
        lambda: backbone_probe_month(total_losses=12, seed=3, duration_days=4,
                                     n_probe_pairs=4),
        "6af8d73857acc8dc21ded6f09c4972bb93eee02f0bb238c1d704317bca23d14f",
    ),
    "cpu_bgp_study": (
        lambda: cpu_bgp_study(seed=3, duration_days=10, n_provisioning=20,
                              n_other_flaps=60, n_pure_cpu_flaps=5),
        "0fbe48a5d7eccad0a1049af853e8be7048ddbbb99aded8b8b792a4a70718850e",
    ),
    "linecard_crash": (
        lambda: linecard_crash(seed=3, duration_days=5, n_background_flaps=15),
        "6f2eaea6f45b96eabb674b40f35ee57120ce8972531daf1598d0a3b97e42a8c2",
    ),
}


def scenario_digest(result) -> str:
    digest = hashlib.sha256()

    def put(text: str) -> None:
        digest.update(text.encode())
        digest.update(b"\n")

    for name, table in sorted(result.collector.store.tables.items()):
        put(f"table {name} {len(table)}")
        for record in table.scan():
            put(f"{record.timestamp!r} {record.fields!r}")
    for line in result.collector.feed_stats_lines():
        put(line)
    for truth in result.ground_truth:
        put(repr(truth))
    put(f"window {result.start!r} {result.end!r}")
    put(repr(sorted(result.extras.items())))
    return digest.hexdigest()


@pytest.mark.parametrize("builder", sorted(CASES))
def test_builder_output_is_pinned(builder):
    build, pinned = CASES[builder]
    assert scenario_digest(build()) == pinned
