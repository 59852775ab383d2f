"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's side: :func:`install` replaces
each public call named in :data:`SITES` with a wrapper that times it.
The program binds several functions by name (``transport.py`` imports
``interpret``, ``encode_message`` and ``decode_message``; the image
viewer imports ``describe_image``), so a wrapper must replace the name
*the call site sees* — the importing module's global — not the module
that defines the function.  Methods are replaced on their class, which
every call site reaches through attribute lookup.

A span is ``(name, start, end, parent, op)``.  A layer's self time is a
span's duration minus the time its child spans cover.  Only calls made
on the main thread while an op is open are recorded, so oracle checks
between ops and the broker's matching pool never show up.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from typing import Any, Callable, Optional

__all__ = ["SITES", "Tracer", "install"]

#: span name -> call sites ("module:Class.method" or "module:function").
#: A function imported by name is listed once per importing module.
SITES: dict[str, tuple[str, ...]] = {
    "media.encode": ("repro.media.progressive:ProgressiveImage.__init__",),
    "media.decode": ("repro.media.progressive:ReceivedImage.reconstruct",),
    "media.describe": (
        "repro.apps.imageviewer:describe_image",
        "repro.core.basestation:describe_image",
    ),
    "media.sketch": (
        "repro.core.basestation:extract_sketch",
        "repro.core.client:extract_sketch",
    ),
    "snmp.poll": ("repro.core.client:WiredClient.read_system_state",),
    "core.infer": ("repro.core.inference:InferenceEngine.infer",),
    "core.interpret": ("repro.messaging.transport:interpret",),
    "core.event_decode": (
        "repro.core.client:decode_event",
        "repro.core.basestation:decode_event",
        "repro.core.wireless_client:decode_event",
    ),
    "core.bs_evaluate": ("repro.core.basestation:BaseStation.evaluate_qos",),
    "messaging.encode": (
        "repro.messaging.transport:encode_message",
        "repro.core.basestation:encode_message",
        "repro.core.wireless_client:encode_message",
    ),
    "messaging.decode": (
        "repro.messaging.transport:decode_message",
        "repro.core.basestation:decode_message",
        "repro.core.wireless_client:decode_message",
    ),
    "messaging.ingest": ("repro.messaging.rtp:RtpReassembler.ingest",),
    "network.send": ("repro.network.simnet:Network.send",),
    "network.dispatch": ("repro.network.clock:Scheduler.step",),
    "network.routing.join": ("repro.network.routing:MulticastFabric.join",),
    "network.routing.leave": ("repro.network.routing:MulticastFabric.leave",),
    "network.routing.cast": ("repro.network.routing:MulticastFabric.cast",),
    "messaging.broker.attach": ("repro.messaging.sharded:ShardedSemanticBus.attach",),
    "messaging.broker.detach": ("repro.messaging.sharded:ShardedSemanticBus.detach",),
    "messaging.broker.publish": ("repro.messaging.sharded:ShardedSemanticBus.publish",),
}

#: ``Scheduler.step`` returns False when the queue held nothing to run;
#: such a call dispatched no event and is not a span.
_KEEP: dict[str, Callable[[Any], bool]] = {"network.dispatch": lambda result: result is True}


class Tracer:
    """Span recorder.  Raw spans are kept for ops below ``keep_ops``;
    every traced span also feeds the per-name totals."""

    def __init__(self, keep_ops: int) -> None:
        self.keep_ops = keep_ops
        #: id of the op in progress; None outside ops (nothing recorded)
        self.op: Optional[int] = None
        #: raw spans of the kept ops: (name, start, end, parent, op)
        self.spans: list[tuple[str, float, float, Optional[int], int]] = []
        #: name -> [calls, self seconds]
        self.totals: dict[str, list] = {}
        #: call site -> calls made by kept ops (site-level coverage)
        self.site_calls: dict[str, int] = {}
        self._stack: list[list] = []
        self._main = threading.get_ident()

    # ------------------------------------------------------------------
    def begin_op(self, op: int) -> None:
        self.op = op
        self._enter("op")

    def end_op(self) -> None:
        self._exit(keep=True)
        self.op = None

    def _enter(self, name: str) -> None:
        slot = None
        if self.op is not None and self.op < self.keep_ops:
            slot = len(self.spans)
            self.spans.append(None)  # type: ignore[arg-type]
        # [name, start, child seconds, raw-span slot]
        self._stack.append([name, time.perf_counter(), 0.0, slot])

    def _exit(self, keep: bool) -> None:
        end = time.perf_counter()
        name, start, child, slot = self._stack.pop()
        if not keep:
            # not a span: its time stays with the caller's self time
            if slot is not None:
                self.spans[slot] = ("", start, end, None, -1)
            return
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0]
        total[0] += 1
        total[1] += duration - child
        if slot is not None:
            parent = self._stack[-1][3] if self._stack else None
            self.spans[slot] = (name, start, end, parent, self.op)

    def wrap(self, name: str, site: str, fn: Callable) -> Callable:
        tracer = self
        keep = _KEEP.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None or threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            tracer._enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                kept = keep is None or keep(result)
                tracer._exit(kept)
                if kept and tracer.op < tracer.keep_ops:
                    tracer.site_calls[site] = tracer.site_calls.get(site, 0) + 1

        return traced

    # ------------------------------------------------------------------
    def calls(self, name: str, kept_only: bool = False) -> int:
        """Spans recorded under ``name`` (optionally only in kept ops)."""
        if kept_only:
            return sum(1 for s in self.spans if s[0] == name)
        return self.totals.get(name, (0, 0.0))[0]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0))[1]

    def dump(self, path: str) -> None:
        """Write the kept raw spans, one JSON object a line; ``parent``
        is the ``id`` of the enclosing span."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, (name, start, end, parent, op) in enumerate(self.spans):
                if name:
                    record = {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                    fh.write(json.dumps(record) + "\n")


def _resolve(site: str) -> tuple[Any, str]:
    module_name, _, qual = site.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every call site of :data:`SITES`; returns a function that
    restores the originals."""
    restore: list[tuple[Any, str, Any]] = []
    for name, sites in SITES.items():
        for site in sites:
            owner, attr = _resolve(site)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, tracer.wrap(name, site, original))
            restore.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return uninstall
