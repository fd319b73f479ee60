"""Every route serves one incident in one spelling: the stored document.

The incident list (``GET /v1/incidents``), one incident
(``GET /v1/incidents/{id}``), its revision log (``?timeline=1``) and the
CLI's ``incidents show`` / ``report --json`` must agree byte for byte on
every incident.  The world is a bgp month whose rule margins are
integers: a document decoded and re-encoded spells a margin ``15`` as
``15.0``, so a route that serves a decode instead of the stored
document shows up here.
"""

import http.client
import json
from unittest import mock

import pytest

from repro import cli
from repro.apps import BgpFlapApp
from repro.incident import IncidentAggregator, IncidentStore, incident_from_dict
from repro.service.http import RcaGateway
from repro.simulation import bgp_month

GAP = 3600.0


@pytest.fixture(scope="module")
def world():
    """The folded store, served by a one-shard gateway."""
    result = bgp_month(total_flaps=60, seed=1)
    platform = result.platform()
    app = BgpFlapApp.build(platform)
    store = IncidentStore()
    aggregator = IncidentAggregator(gap_seconds=GAP, sink=store.record)
    diagnoses = app.run(result.start, result.end).diagnoses
    for diagnosis in diagnoses:
        aggregator.observe(diagnosis)
    aggregator.advance(result.end + GAP + 1.0)
    router = platform.serve_sharded({"bgp": app}, shards=1, workers=1, incidents=store)
    gateway = RcaGateway(router).start()
    yield gateway, store, aggregator, len(diagnoses)
    gateway.stop(shutdown_shards=True)


def http_get(gateway, path):
    conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def listed(gateway):
    """``GET /v1/incidents`` entries, each re-encoded on its own: json
    keeps ``15`` and ``15.0`` apart, so this is the list's own spelling."""
    status, raw = http_get(gateway, "/v1/incidents")
    assert status == 200
    return {
        entry["incident_id"]: entry for entry in json.loads(raw)["incidents"]
    }


def cli_out(world, capsys, *argv):
    _gateway, store, aggregator, n_diagnoses = world
    with mock.patch.object(
        cli, "_build_incident_store", return_value=(store, aggregator, n_diagnoses)
    ):
        assert cli.main(["incidents", *argv[:1], "bgp-month", *argv[1:]]) == 0
    return capsys.readouterr().out


def pretty(document):
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


def test_the_world_has_documents_a_round_trip_respells(world):
    gateway, store, _aggregator, _n = world
    entries = listed(gateway)
    assert len(entries) == len(store) > 50
    respelled = [
        i
        for i, entry in entries.items()
        if json.dumps(incident_from_dict(entry).to_json()) != json.dumps(entry)
    ]
    assert len(respelled) > len(entries) // 2


def test_one_incident_and_its_last_revision_are_the_listed_bytes(world):
    gateway = world[0]
    entries, differ = listed(gateway), []
    for incident_id, entry in entries.items():
        want = json.dumps(entry).encode()
        status, body = http_get(gateway, f"/v1/incidents/{incident_id}")
        assert status == 200
        status, raw = http_get(gateway, f"/v1/incidents/{incident_id}?timeline=1")
        assert status == 200
        revisions = json.loads(raw)["revisions"]
        assert [r["revision"] for r in revisions] == list(
            range(1, entry["revision"] + 1)
        )
        if body != want or json.dumps(revisions[-1]).encode() != want:
            differ.append(incident_id)
    assert not differ, f"{len(differ)} of {len(entries)} incidents differ"


def test_incidents_show_prints_the_listed_bytes(world, capsys):
    entries, differ = listed(world[0]), []
    for incident_id, entry in entries.items():
        shown = cli_out(world, capsys, "show", incident_id)
        timeline = json.loads(cli_out(world, capsys, "show", incident_id, "--timeline"))
        if shown != pretty(entry) or pretty(timeline[-1]) != pretty(entry):
            differ.append(incident_id)
    assert not differ, f"{len(differ)} of {len(entries)} incidents differ"


def test_incidents_report_json_prints_the_listed_bytes(world, capsys):
    entries = listed(world[0])
    worst = max(
        entries.values(),
        key=lambda d: (
            d["flap_count"], incident_from_dict(d).duration, d["incident_id"]
        ),
    )
    assert cli_out(world, capsys, "report", "--json") == pretty(worst)
    some = sorted(entries)[len(entries) // 2]
    shown = cli_out(world, capsys, "report", "--json", "--id", some)
    assert shown == pretty(entries[some])
