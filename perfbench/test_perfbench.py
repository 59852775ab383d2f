"""Self-tests of the benchmark: span coverage, exact counts, oracles.

    PYTHONPATH=src python -m pytest perfbench -q

Every span count is cross-checked against a counter the program keeps
itself, so a wrapper that patched a name no call site uses (the way
``PacketTracer`` misses ``Network.cast``) fails here instead of
reporting a layer as free.
"""

from __future__ import annotations

import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import SITES, Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OPS = {"session_images": 3, "session_events": 12, "fabric_churn": 6, "broker_fanout": 10}


def _traced(name: str, seed: int = 3):
    """Build ``name``, warm it up, then run ``OPS[name]`` traced ops.

    Returns (workload, tracer, counter deltas, oracle errors)."""
    wl = WORKLOADS[name](seed)
    wl.build()
    for i in range(wl.warmup_ops):
        wl.prepare(i)
        wl.run(i)
        assert wl.check(i) == []
    first = wl.warmup_ops
    tracer = Tracer(keep_ops=first + OPS[name])
    before = wl.counters()
    uninstall = install(tracer)
    errors = []
    try:
        for i in range(first, first + OPS[name]):
            wl.prepare(i)
            tracer.begin_op(i)
            wl.run(i)
            tracer.end_op()
            errors += wl.check(i)
    finally:
        uninstall()
    after = wl.counters()
    return wl, tracer, {k: after[k] - before[k] for k in before}, errors


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    return request.param, _traced(request.param)


def test_every_claimed_layer_has_samples(traced):
    name, (wl, tracer, _counts, errors) = traced
    assert errors == []
    assert wl.claims
    for span in wl.claims:
        assert tracer.calls(span, kept_only=True) > 0, f"{name}: no {span} spans"


def test_spans_agree_with_program_counters(traced):
    name, (wl, tracer, counts, _errors) = traced
    ops = OPS[name]
    calls = tracer.site_calls.get
    if name.startswith("session"):
        # one local subscription per endpoint: one interpret per received message
        assert tracer.calls("core.interpret", kept_only=True) == counts["received"]
        assert calls("repro.messaging.transport:decode_message", 0) == counts["received"]
        assert calls("repro.messaging.transport:encode_message", 0) == counts["sent_messages"]
        assert tracer.calls("network.send", kept_only=True) == counts["packets_sent"]
        # every delivered datagram is an RTP fragment fed to one reassembler,
        # except the request and the response of each SNMP poll
        ingests = tracer.calls("messaging.ingest", kept_only=True)
        assert ingests == counts["packets_delivered"] - 2 * counts["snmp_requests"]
        # every base-station downlink send reached its wireless client
        assert calls("repro.core.basestation:encode_message", 0) == counts["wireless_received"]
        assert calls("repro.core.basestation:encode_message", 0) > 0
    elif name == "fabric_churn":
        assert tracer.calls("network.routing.cast", kept_only=True) == counts["casts"] == ops
        joins = tracer.calls("network.routing.join", kept_only=True)
        leaves = tracer.calls("network.routing.leave", kept_only=True)
        assert joins + leaves == counts["rebuilds"] == ops
    else:
        assert tracer.calls("messaging.broker.publish", kept_only=True) == counts["publishes"] == ops
        assert tracer.calls("messaging.broker.attach", kept_only=True) == ops
        assert tracer.calls("messaging.broker.detach", kept_only=True) == ops


def test_broker_checked_counts_interpreter_runs():
    """``candidates_checked`` equals the interpreter runs of the matching
    pool, counted on every thread at the call site the shards use."""
    import repro.messaging.sharded as sharded

    lock = threading.Lock()
    runs = [0]
    original = sharded.interpret

    def counting(*args, **kwargs):
        with lock:
            runs[0] += 1
        return original(*args, **kwargs)

    wl = WORKLOADS["broker_fanout"](5)
    wl.build()
    sharded.interpret = counting
    try:
        for i in range(20):
            wl.prepare(i)
            wl.run(i)
            assert wl.check(i) == []
    finally:
        sharded.interpret = original
    assert runs[0] == wl.counters()["checked"] > 0


def test_defining_module_binding_is_blind():
    """Wrapping ``interpret`` where it is defined records nothing: the
    endpoint calls the name it imported.  This is why ``SITES`` lists
    the importing modules."""
    import repro.core.matching as matching

    wl = WORKLOADS["session_events"](3)
    wl.build()
    seen = [0]
    original = matching.interpret

    def counting(*args, **kwargs):
        seen[0] += 1
        return original(*args, **kwargs)

    matching.interpret = counting
    try:
        wl.prepare(0)
        wl.run(0)
    finally:
        matching.interpret = original
    assert seen[0] == 0
    assert wl.check(0) == []


def test_sites_resolve_to_callables():
    from tracing import _resolve

    for span, sites in SITES.items():
        for site in sites:
            owner, attr = _resolve(site)
            assert callable(getattr(owner, attr)), f"{span}: {site}"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly_for_a_seed(name):
    def counts():
        _wl, tracer, deltas, errors = _traced(name, seed=11)
        assert errors == []
        spans = {s: tracer.calls(s, kept_only=True) for s in SITES}
        return deltas, spans, dict(tracer.site_calls)

    assert counts() == counts()


def test_oracle_reports_a_missing_receiver():
    wl = WORKLOADS["fabric_churn"](2)
    wl.build()
    wl.prepare(0)
    wl.run(0)
    assert wl.check(0) == []
    # a member leaves behind the benchmark's back: the next send misses it
    host = sorted(wl.sockets)[0]
    wl.sockets[host].leave()
    wl.prepare(1)
    wl.run(1)
    assert any("receivers differ" in e for e in wl.check(1))


def test_oracle_reports_a_wrong_reconstruction():
    wl = WORKLOADS["session_images"](2)
    wl.build()
    wl.prepare(0)
    wl.run(0)
    assert wl.check(0) == []
    wl.views[0] = wl.views[0] + 1.0
    assert any("reconstruction differs" in e for e in wl.check(0))


def test_oracle_reports_a_wrong_delivery_set():
    wl = WORKLOADS["session_events"](2)
    wl.build()
    wl.prepare(0)
    expected = wl.chat_roles
    # the chat goes to the two other roles instead
    wl.chat_roles = tuple(r for r in wl.roles if r not in expected)
    wl.run(0)
    wl.chat_roles = expected
    assert any("missing" in e for e in wl.check(0))
