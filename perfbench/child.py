"""One workload process: set up, run ops, check them, print one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --mode MODE

``--mode measure`` times ops for ``S`` seconds of op time with tracing
off; ``trace`` alternates traced and untraced blocks of ops for ``S``
seconds and reports per-layer metrics and the tracing overhead.
Run from the root of a checkout: the program is imported from ``src``.

Op and set-up times are reported at reference host speed (see
``speed.py``); their raw wall times are kept in the output too.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speed import Speed  # noqa: E402

# set-up time starts here, once the benchmark's own probe is loaded
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

#: the run ends early after this many failed ops
MAX_FAILURES = 50
#: timed ops a ``measure`` process runs at least, however long they take:
#: the three processes of a run then give p90 15 ops beyond it.  Only
#: ``session_images`` (90-180 ms per op) needs more than its share of
#: ``--seconds`` for that; with 34 ops, its p90 spread by 0.095-0.14
#: (interquartile range over median) over a set of seeds.
MIN_OPS = 50


def _run_op(wl, i: int, tracer=None) -> tuple[float, int, list[str]]:
    """Prepare, time and check op ``i``; returns (seconds, deliveries, errors)."""
    wl.prepare(i)
    before = wl.deliveries()
    errors: list[str] = []
    if tracer is not None:
        tracer.begin_op(i)
    start = time.perf_counter()
    try:
        wl.run(i)
    except Exception as exc:  # an op that does not complete is a failed op
        errors.append(f"op raised {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    delivered = wl.deliveries() - before
    if not errors:
        try:
            errors = wl.check(i)
        except Exception as exc:
            errors = [f"oracle raised {type(exc).__name__}: {exc}"]
    return elapsed, delivered, errors


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("measure", "trace"), required=True)
    ap.add_argument("--spans", default="", help="file the traced run writes its kept spans to")
    args = ap.parse_args()

    from workloads import WORKLOADS  # imports the program

    import_s = time.perf_counter() - T0
    wl = WORKLOADS[args.workload](args.seed)
    t_build = time.perf_counter()
    wl.build()
    failed = 0
    errors: list[str] = []
    for i in range(wl.warmup_ops):
        *_, errs = _run_op(wl, i)
        if errs:
            failed += 1
            errors.extend(f"warm-up op {i}: {e}" for e in errs)
    build_s = time.perf_counter() - t_build
    setup_s = time.perf_counter() - T0
    out = {"raw_setup_s": setup_s}

    attempted = wl.warmup_ops
    i = wl.warmup_ops
    # (raw seconds, traced) per timed op; wl.probes probes run before
    # each op and after the last
    ops: list[tuple[float, bool]] = []
    speed = Speed(wl.speed_exponent)
    deliveries = 0
    rss_mb = None
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer, install

        tracer = Tracer(keep_ops=i + wl.block_ops)
        window_start = wl.counters()
        window_end = None
    spent = 0.0
    block = 0
    min_ops = MIN_OPS if tracer is None else 0
    while (spent < args.seconds or len(ops) < min_ops) and failed < MAX_FAILURES:
        traced = tracer is not None and block % 2 == 0
        uninstall = install(tracer) if traced else None
        for _ in range(wl.block_ops if tracer is not None else 1):
            speed.burst(wl.probes)
            elapsed, delivered, errs = _run_op(wl, i, tracer if traced else None)
            attempted += 1
            i += 1
            spent += elapsed
            ops.append((elapsed, traced))
            deliveries += delivered
            if errs:
                failed += 1
                errors.extend(f"op {i - 1}: {e}" for e in errs)
            if len(ops) == wl.rss_ops:
                rss_mb = _peak_rss_mb()
        if uninstall is not None:
            uninstall()
        if tracer is not None and window_end is None:
            window_end = wl.counters()
        block += 1
    speed.burst(wl.probes)
    final = wl.final_check()
    if final:
        failed += 1
        errors.extend(final)

    k_setup = speed.setup_scale(wl.setup_exponent)
    out.update(setup_s=setup_s * k_setup, import_s=import_s * k_setup, build_s=build_s * k_setup)
    scaled = [(e * speed.scale_between(k, wl.probes), t) for k, (e, t) in enumerate(ops)]
    untraced = [e for e, t in scaled if not t]
    traced_s = [e for e, t in scaled if t]
    out.update(
        attempted=attempted,
        failed=failed,
        errors=errors[:20],
        op_ms=[t * 1e3 for t in untraced],
        raw_op_ms=[e * 1e3 for e, t in ops if not t],
        deliveries=deliveries,
        op_seconds=sum(untraced),
        peak_rss_mb=rss_mb if rss_mb is not None else _peak_rss_mb(),
        threads=threading.active_count(),
        probe_ms=statistics.median(speed.durations) * 1e3,
    )
    if tracer is not None:
        counts = {k: window_end[k] - window_start[k] for k in window_start}
        layer = per_layer(tracer, counts, wl.block_ops, traced_s, untraced, speed.scale())
        layer["setup.import_s"] = out["import_s"]
        layer["setup.build_s"] = out["build_s"]
        for span in wl.claims:
            if tracer.calls(span) == 0:
                failed += 1
                errors.append(f"no {span} spans, though this workload claims that layer")
        out.update(failed=failed, errors=errors[:20], per_layer=layer)
        out["traced_ops"] = len(traced_s)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: span names of each layer whose self time makes its ``self_share``
LAYERS = {
    "media": ("media.encode", "media.decode", "media.describe", "media.sketch"),
    "snmp": ("snmp.poll",),
    "core": ("core.interpret", "core.event_decode", "core.bs_evaluate", "core.infer"),
    "messaging": ("messaging.encode", "messaging.decode", "messaging.ingest"),
    "network": (
        "network.send",
        "network.dispatch",
        "network.routing.join",
        "network.routing.leave",
        "network.routing.cast",
    ),
}

#: per-call self-time metrics: metric -> (span name, scale to its unit)
PER_CALL = {
    "media.encode_ms": ("media.encode", 1e3),
    "media.decode_ms": ("media.decode", 1e3),
    "media.describe_ms": ("media.describe", 1e3),
    "media.sketch_ms": ("media.sketch", 1e3),
    "snmp.poll_ms": ("snmp.poll", 1e3),
    "core.infer_us": ("core.infer", 1e6),
    "core.interpret_us": ("core.interpret", 1e6),
    "core.event_decode_us": ("core.event_decode", 1e6),
    "core.bs_evaluate_ms": ("core.bs_evaluate", 1e3),
    "messaging.encode_us": ("messaging.encode", 1e6),
    "messaging.decode_us": ("messaging.decode", 1e6),
    "messaging.ingest_us": ("messaging.ingest", 1e6),
    "network.send_us": ("network.send", 1e6),
    "network.dispatch_us": ("network.dispatch", 1e6),
    "network.routing.join_ms": ("network.routing.join", 1e3),
    "network.routing.leave_ms": ("network.routing.leave", 1e3),
    "network.routing.cast_ms": ("network.routing.cast", 1e3),
    "messaging.broker.attach_us": ("messaging.broker.attach", 1e6),
    "messaging.broker.detach_us": ("messaging.broker.detach", 1e6),
    "messaging.broker.publish_us": ("messaging.broker.publish", 1e6),
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer, counts: dict, window: int, traced_s: list, untraced_s: list, scale: float) -> dict:
    """Per-layer metrics: self time per call over every traced op (at
    reference speed: times ``scale``), each layer's share of traced op
    time, and exact counts per op over the first ``window`` ops.  A
    layer the workload never calls reads 0."""
    out: dict[str, float] = {}
    for metric, (span, unit) in PER_CALL.items():
        out[metric] = _ratio(tracer.self_seconds(span), tracer.calls(span)) * unit * scale
    op_time = sum(self_s for _calls, self_s in tracer.totals.values())
    for layer, spans in LAYERS.items():
        out[f"{layer}.self_share"] = _ratio(sum(tracer.self_seconds(s) for s in spans), op_time)
    polls = tracer.calls("snmp.poll", kept_only=True)
    out.update(
        {
            "media.payload_bits": counts.get("payload_bits", 0) / window,
            "snmp.requests_per_poll": _ratio(counts.get("snmp_requests", 0), polls),
            "core.accept_ratio": _ratio(counts.get("accepted", 0), counts.get("received", 0)),
            "core.interpret_calls_per_op": tracer.calls("core.interpret", kept_only=True) / window,
            "core.bs_downlink_per_op": tracer.site_calls.get("repro.core.basestation:encode_message", 0)
            / window,
            "messaging.fragments_per_op": counts.get("fragments", 0) / window,
            "network.packets_per_op": counts.get("packets_sent", 0) / window,
            "network.events_per_op": tracer.calls("network.dispatch", kept_only=True) / window,
            "network.routing.rebuilds_per_op": counts.get("rebuilds", 0) / window,
            "network.routing.tx_per_cast": _ratio(counts.get("packets_transmitted", 0), counts.get("casts", 0)),
            "messaging.broker.match_ratio": _ratio(counts.get("delivered", 0), counts.get("checked", 0)),
            "messaging.broker.checked_per_publish": _ratio(counts.get("checked", 0), counts.get("publishes", 0)),
            "trace.overhead_ratio": _ratio(statistics.median(traced_s), statistics.median(untraced_s))
            if traced_s and untraced_s
            else 0.0,
        }
    )
    return out


if __name__ == "__main__":
    sys.exit(main())
