"""Call budget of a served request: what the gateway spends around a job.

A cache-hit diagnosis costs the engine nothing, so what a client waits
for is the connection thread: read the request head, route, submit or
poll, encode, write.  Counted in ``call`` + ``c_call`` profile events on
that thread, which no machine makes faster or slower: a failure here is
a regression in the gateway's per-request path, never a slow runner.
"""

import email
import http.client
import json
import os

from repro.core.serialize import instance_to_dict

from ...budget import profile_events
from .conftest import SHARD1_ROUTER

#: profile events per request on the connection thread, averaged over
#: ``POST /v1/jobs`` + ``GET /v1/jobs/{id}?wait=`` pairs of one cached
#: symptom sent by ``http.client`` (three header lines).  367 on 3.11 when
#: the head went through ``email.parser`` and the response through
#: ``send_response`` / ``send_header``; 175 since.
CALLS_PER_REQUEST = 230

PAIRS = 25
EMAIL_PACKAGE = os.path.dirname(email.__file__) + os.sep


def test_connection_thread_calls_stay_in_budget(gateway, seeded_symptoms):
    body = json.dumps(
        {
            "kind": "diagnose",
            "app": "mini",
            "symptoms": [instance_to_dict(seeded_symptoms[SHARD1_ROUTER][0])],
        }
    )

    def served_pair(conn):
        conn.request("POST", "/v1/jobs", body=body)
        response = conn.getresponse()
        submitted = json.loads(response.read())
        assert response.status == 202, submitted
        conn.request("GET", f"/v1/jobs/{submitted['job_id']}?wait=30")
        response = conn.getresponse()
        document = json.loads(response.read())
        assert response.status == 200 and document["state"] == "done", document

    warm = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
    served_pair(warm)  # the miss: every pair below is answered from the cache
    warm.close()

    hits_before = gateway.router.metrics()["aggregate"]["cache"]["hits"]
    # installed in threads started from here on
    with profile_events(threads=True) as events:
        conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
        for _ in range(PAIRS):
            served_pair(conn)
        conn.close()
    email_frames = sorted(
        (code.co_filename, code.co_name)
        for code in events.codes
        if code.co_filename.startswith(EMAIL_PACKAGE)
    )
    hits = gateway.router.metrics()["aggregate"]["cache"]["hits"]
    assert hits - hits_before == PAIRS

    # the one thread born under the profile is the connection's
    [on_connection_thread] = events.per_thread.values()
    per_request = on_connection_thread / (2 * PAIRS)
    assert per_request <= CALLS_PER_REQUEST, per_request
    assert not email_frames, email_frames
