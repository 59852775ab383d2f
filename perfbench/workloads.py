"""The benchmark's four workloads.

Each workload is a closed loop with one caller: op ``i`` starts only
after op ``i - 1`` has drained.  ``prepare(i)`` makes the op's inputs
from the seed (untimed), ``run(i)`` is the timed op and ``check(i)`` is
its oracle (untimed).  Every op of a workload has the same composition,
so its latency distribution has one mode.

``counters()`` returns cumulative program counters; the traced run turns
their deltas over a fixed window of ops into the exact per-op counts.
"""

from __future__ import annotations

import random

import numpy as np

from repro import ClientProfile, CollaborationFramework
from repro.core.events import ChatEvent, ProfileUpdateEvent, WhiteboardEvent
from repro.core.matching import Decision, interpret
from repro.core.policies import ModalityTier
from repro.hosts.workload import Trace
from repro.media.images import collaboration_scene
from repro.media.progressive import ProgressiveImage
from repro.messaging.message import SemanticMessage
from repro.messaging.sharded import ShardedSemanticBus
from repro.network.clock import Scheduler
from repro.network.multicast import MulticastGroup, MulticastSocket
from repro.network.routing import MulticastFabric
from repro.network.simnet import Network

__all__ = ["WORKLOADS"]

#: virtual seconds one session op drains.  Every endpoint re-arms a
#: reassembly-expiry timer, and each base station its QoS loop, every
#: 0.5 s, so the session event queue never empties; the window covers
#: every delivery with room to spare and fires each timer about once per
#: op.  An op whose deliveries are missing after the window counts as
#: failed.
SESSION_WINDOW = 0.5

#: host CPU-load bands (integer %) the default FIG7 policy maps to each
#: packet budget, kept one point inside each band edge
LOAD_BANDS = {16: (31, 42), 8: (45, 56), 4: (59, 70), 2: (73, 84), 1: (87, 95)}


class Workload:
    name = ""
    #: untimed ops run at the end of set-up (caches, lazy state)
    warmup_ops = 0
    #: ops per traced/untraced block of the traced run; the first block
    #: is the window the exact per-op counts come from
    block_ops = 0
    #: host-speed probes run between two ops (see ``speed.py``); long ops
    #: take more, so the probes sample a similar share of the op's time
    probes = 1
    #: sensitivity of op time to host speed (see ``speed.py``)
    speed_exponent = 1.0
    #: sensitivity of set-up time to host speed (see ``speed.py``)
    setup_exponent = 0.5
    #: span names (see ``tracing.SITES``) this workload must exercise
    claims: tuple[str, ...] = ()
    #: timed ops after which peak memory is read.  State such as session
    #: archives grows with every op, so memory is compared at a fixed
    #: amount of work, not after however many ops the run fitted.
    rss_ops = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    def build(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int) -> None:
        pass

    def run(self, i: int) -> None:
        raise NotImplementedError

    def check(self, i: int) -> list[str]:
        raise NotImplementedError

    def final_check(self) -> list[str]:
        return []

    def deliveries(self) -> int:
        raise NotImplementedError

    def counters(self) -> dict[str, int]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# collaboration sessions
# ----------------------------------------------------------------------
def _wireless_pair(fw, bs, rng: random.Random, prefix: str):
    """Two clients whose mutual interference puts one in TEXT_AND_SKETCH
    and the other in TEXT_ONLY: a received-power ratio r in [1.3, 2.0]
    gives SIRs of +1.1..+3.0 dB and -3.0..-1.1 dB."""
    near = rng.uniform(25.0, 35.0)
    ratio = rng.uniform(1.3, 2.0) ** 0.25
    sketch = fw.add_wireless_client(f"{prefix}-sketch", bs, distance=near, tx_power=1.0)
    text = fw.add_wireless_client(f"{prefix}-text", bs, distance=near * ratio, tx_power=1.0)
    return sketch, text


class _Session(Workload):
    def _endpoints(self):
        return [c.endpoint for c in self.fw.wired_clients.values()] + [
            b.endpoint for b in self.fw.base_stations.values()
        ]

    def deliveries(self) -> int:
        return sum(e.accepted_messages for e in self._endpoints())

    def _session_counters(self) -> dict[str, int]:
        eps = self._endpoints()
        net = self.fw.network
        return {
            "received": sum(e.received_messages for e in eps),
            "accepted": sum(e.accepted_messages for e in eps),
            "sent_messages": sum(e.sent_messages for e in eps),
            "fragments": sum(e.sent_fragments for e in eps),
            "packets_sent": net.packets_sent,
            "packets_transmitted": net.packets_transmitted,
            "packets_delivered": net.packets_delivered,
            "snmp_requests": sum(c.snmp.requests_sent for c in self.fw.wired_clients.values()),
            "wireless_received": sum(len(w.received_events) for w in self.fw.wireless_clients.values()),
        }

    def _tier_errors(self, expected: dict[str, ModalityTier]) -> list[str]:
        errors = []
        for bs in self.fw.base_stations.values():
            for cid, att in bs.attachments.items():
                if att.tier is not expected[cid]:
                    errors.append(f"{cid}: tier {att.tier.name}, expected {expected[cid].name}")
        return errors


class SessionImages(_Session):
    """One sharer, six wired receivers, two base stations.

    Per op every receiver adapts (SNMP poll, then inference), the sharer
    shares one fresh seeded 64x64 grey image, the session drains and
    every receiver reconstructs its view.  64x64 is the image size of
    ``fig6``-``fig8`` and the examples; grey is the channel count of
    ``fig6``, ``fig8``, ``benchmarks/`` and two of the three examples.
    The colour images of ``fig7`` made ops ~60% longer and p90
    unsteady: over six seeds run alternately with grey, its spread
    (interquartile range over median) was 0.12 against grey's 0.03,
    and 0.22 over a set of ten.  Receiver budgets
    are a seeded permutation of (1, 2, 4, 8, 16, 16) on every op.

    Under the paper's Eq. (1) one base station cannot hold a FULL client
    next to a TEXT_AND_SKETCH one (the full client needs +4 dB over the
    sum of the others, the sketch client 0 dB over the full one), so a
    near cell serves the FULL client alone and a far cell holds the
    sketch/text pair, each at the default SIR policy.
    """

    name = "session_images"
    warmup_ops = 2
    block_ops = 8
    rss_ops = 30
    probes = 4
    speed_exponent = 0.85
    setup_exponent = 0.9
    claims = ("media.encode", "media.decode", "media.describe", "media.sketch", "snmp.poll", "core.infer")
    size = 64
    budgets = (1, 2, 4, 8, 16, 16)
    trace_len = 512

    def build(self) -> None:
        rng = self.rng
        self.fw = fw = CollaborationFramework("bench-images", objective="image sharing", seed=self.seed)
        self.sharer = fw.add_wired_client("sharer")
        # per-op budgets, then a CPU-load trace per receiver realising them
        self.op_budgets = []
        for _ in range(self.trace_len):
            perm = list(self.budgets)
            rng.shuffle(perm)
            self.op_budgets.append(perm)
        self.receivers = []
        for r in range(len(self.budgets)):
            loads = [float(rng.randint(*LOAD_BANDS[ops[r]])) for ops in self.op_budgets]
            self.receivers.append(fw.add_wired_client(f"rx{r}", cpu_workload=Trace(loads)))
        near = fw.add_base_station("bs-near")
        far = fw.add_base_station("bs-far")
        self.w_full = fw.add_wireless_client("near-full", near, distance=rng.uniform(15.0, 25.0))
        self.w_sketch, self.w_text = _wireless_pair(fw, far, rng, "far")
        for c in [self.sharer, *self.receivers]:
            c.join()
        fw.run_for(SESSION_WINDOW)
        for bs in (near, far):
            bs.apply_power_control()
        fw.run_for(SESSION_WINDOW)
        for bs in (near, far):
            bs.start_qos_loop(interval=SESSION_WINDOW)
        fw.run_for(SESSION_WINDOW)
        errors = self._tier_errors(
            {
                "near-full": ModalityTier.FULL_IMAGE,
                "far-sketch": ModalityTier.TEXT_AND_SKETCH,
                "far-text": ModalityTier.TEXT_ONLY,
            }
        )
        if errors:
            raise RuntimeError("wireless placement: " + "; ".join(errors))
        self.bits = 0

    def prepare(self, i: int) -> None:
        tick = i % self.trace_len
        for rx in self.receivers:
            self.fw.hosts[rx.name].advance_to_tick(tick)
        self.image = collaboration_scene(self.size, self.size, seed=self.seed * 100_003 + i)
        self.image_id = f"img-{i}"
        self.wireless_before = {
            w.name: (len(w.announces), len(w.image_packets), len(w.texts), len(w.sketches))
            for w in (self.w_full, self.w_sketch, self.w_text)
        }

    def run(self, i: int) -> None:
        self.decisions = [rx.monitor_and_adapt().packets for rx in self.receivers]
        self.sharer.share_image(self.image_id, self.image)
        self.fw.run_for(SESSION_WINDOW)
        self.views = [rx.viewer.reconstruct(self.image_id) for rx in self.receivers]

    def check(self, i: int) -> list[str]:
        errors = []
        budgets = self.op_budgets[i % self.trace_len]
        reference = ProgressiveImage(self.image, n_packets=16, target_bpp=2.2)
        shared = self.sharer.viewer.shared[self.image_id]
        self.bits += shared.total_bits
        if shared.total_bits != reference.total_bits:
            errors.append(f"sharer coded {shared.total_bits} bits, the reference {reference.total_bits}")
        expected_views: dict[int, np.ndarray] = {}
        for rx, k, got, view in zip(self.receivers, budgets, self.decisions, self.views):
            if got != k:
                errors.append(f"{rx.name}: budget {got}, expected {k}")
            if k not in expected_views:
                expected_views[k] = reference.reconstruct(k)
            if not np.array_equal(view, expected_views[k]):
                errors.append(f"{rx.name}: reconstruction differs from the reference at k={k}")
        full = self._wireless_delta(self.w_full)
        if full != (1, 16, 0, 0):
            errors.append(f"near-full got (announce, packets, text, sketch) {full}, expected (1, 16, 0, 0)")
        sketch = self._wireless_delta(self.w_sketch)
        if sketch != (0, 0, 1, 1):
            errors.append(f"far-sketch got {sketch}, expected (0, 0, 1, 1)")
        text = self._wireless_delta(self.w_text)
        if text != (0, 0, 1, 0):
            errors.append(f"far-text got {text}, expected (0, 0, 1, 0)")
        return errors

    def _wireless_delta(self, w) -> tuple[int, ...]:
        before = self.wireless_before[w.name]
        image_id = self.image_id
        now = (
            sum(1 for a in w.announces[before[0]:] if a.image_id == image_id),
            sum(1 for p in w.image_packets[before[1]:] if p.image_id == image_id),
            sum(1 for t in w.texts[before[2]:] if t.ref_id == image_id),
            sum(1 for s in w.sketches[before[3]:] if s.ref_id == image_id),
        )
        extra = (
            len(w.announces) - before[0],
            len(w.image_packets) - before[1],
            len(w.texts) - before[2],
            len(w.sketches) - before[3],
        )
        return now if now == extra else extra + ("unrelated",)

    def counters(self) -> dict[str, int]:
        out = self._session_counters()
        out["payload_bits"] = self.bits
        return out


class SessionEvents(_Session):
    """Twenty-four wired clients in four roles plus one base station with
    a sketch-tier and a text-tier wireless client.

    One op, each part from a different seeded client: a chat line
    targeted by selector at two roles, a whiteboard stroke targeted at
    one role and the base station (so half and three quarters of the
    receivers reject them), one profile change announced session-wide
    and one SNMP adaptation.  Roles hold six clients each and senders
    lie outside their audience, so every op has the same deliveries.
    """

    name = "session_events"
    warmup_ops = 20
    block_ops = 150
    rss_ops = 400
    claims = ("core.interpret", "core.event_decode", "core.bs_evaluate", "messaging.encode", "messaging.decode",
              "messaging.ingest", "network.send", "network.dispatch", "snmp.poll")
    speed_exponent = 0.85
    setup_exponent = 0.8
    n_clients = 24
    roles = ("command", "medic", "field", "logistics")

    def build(self) -> None:
        rng = self.rng
        self.fw = fw = CollaborationFramework("bench-events", objective="coordination", seed=self.seed)
        self.clients = []
        self.role_of: dict[str, str] = {}
        roles = [self.roles[n % len(self.roles)] for n in range(self.n_clients)]
        rng.shuffle(roles)
        for n, role in enumerate(roles):
            name = f"c{n:02d}"
            self.role_of[name] = role
            profile = ClientProfile(name, {"session": fw.session.name, "role": role, "client_id": name})
            self.clients.append(fw.add_wired_client(name, profile=profile))
        self.bs = fw.add_base_station("bs")
        self.wireless = list(_wireless_pair(fw, self.bs, rng, "w"))
        for c in self.clients:
            c.join()
        fw.run_for(SESSION_WINDOW)
        self.bs.apply_power_control()
        fw.run_for(SESSION_WINDOW)
        self.bs.start_qos_loop(interval=SESSION_WINDOW)
        fw.run_for(SESSION_WINDOW)
        errors = self._tier_errors({"w-sketch": ModalityTier.TEXT_AND_SKETCH, "w-text": ModalityTier.TEXT_ONLY})
        if errors:
            raise RuntimeError("wireless placement: " + "; ".join(errors))
        # the replayed script the final check compares against
        self.script: list[tuple] = []
        self.last_status: dict[str, str] = {}

    def _publish(self, client, event, roles: tuple[str, ...]) -> None:
        audience = ", ".join(f"'{r}'" for r in roles)
        client.endpoint.publish(
            SemanticMessage.create(
                sender=client.name,
                selector=client.session.selector_text(f"role in [{audience}]"),
                headers=event.headers(),
                body=event.to_body(),
                kind=event.kind,
            )
        )

    def prepare(self, i: int) -> None:
        rng = self.rng
        roles = list(self.roles)
        rng.shuffle(roles)
        self.chat_roles = tuple(sorted(roles[:2]))
        self.stroke_roles = (roles[2], "base-station")
        chatter = rng.choice([c for c in self.clients if self.role_of[c.name] not in self.chat_roles])
        drawer = rng.choice([c for c in self.clients if self.role_of[c.name] != roles[2] and c is not chatter])
        announcer, adapter = rng.sample([c for c in self.clients if c not in (chatter, drawer)], 2)
        self.op_actors = (chatter, drawer, announcer, adapter)
        self.chat_text = f"op {i:06d}: " + "".join(rng.choice("abcdefghij ") for _ in range(24))
        self.stroke_id = f"s{i:06d}"
        self.stroke = tuple(round(rng.uniform(0.0, 100.0), 3) for _ in range(12))
        self.status = f"busy-{rng.randint(0, 9)}"
        self.before = {c.name: len(c.events_received) for c in self.clients}
        self.w_before = {w.name: len(w.received_events) for w in self.wireless}

    def run(self, i: int) -> None:
        chatter, drawer, announcer, adapter = self.op_actors
        now = self.fw.now
        event = chatter.chat.compose(self.chat_text)
        chatter.chat.on_chat(event, now)
        self._publish(chatter, event, self.chat_roles)
        self._publish(drawer, drawer.whiteboard.draw(self.stroke_id, self.stroke, now), self.stroke_roles)
        announcer.announce_profile_change(status=self.status)
        adapter.monitor_and_adapt()
        self.fw.run_for(SESSION_WINDOW)

    def _audience(self, roles: tuple[str, ...], sender: str) -> set[str]:
        return {n for n, r in self.role_of.items() if r in roles and n != sender}

    def check(self, i: int) -> list[str]:
        chatter, drawer, announcer, _adapter = self.op_actors
        self.script.append((chatter.name, self.chat_text, self.chat_roles, drawer.name, self.stroke_id,
                            self.stroke, self.stroke_roles))
        self.last_status[announcer.name] = self.status
        chat_to = self._audience(self.chat_roles, chatter.name)
        stroke_to = self._audience(self.stroke_roles, drawer.name)
        errors = []
        for c in self.clients:
            got = set()
            for _t, ev in c.events_received[self.before[c.name]:]:
                if isinstance(ev, ChatEvent):
                    got.add(("chat", ev.author, ev.text))
                elif isinstance(ev, WhiteboardEvent):
                    got.add(("stroke", ev.author, ev.object_id, tuple(ev.points)))
                elif isinstance(ev, ProfileUpdateEvent):
                    got.add(("profile", ev.client_id, ev.changes))
                else:
                    got.add(("other", type(ev).__name__))
            want = set()
            if c.name in chat_to:
                want.add(("chat", chatter.name, self.chat_text))
            if c.name in stroke_to:
                want.add(("stroke", drawer.name, self.stroke_id, self.stroke))
            if c is not announcer:
                want.add(("profile", announcer.name, (("status", self.status),)))
            if got != want:
                errors.append(f"{c.name}: delivered {sorted(map(str, got - want))} extra,"
                              f" {sorted(map(str, want - got))} missing")
        # the base station forwards what reached it to both wireless tiers
        w_want = 1 + ("base-station" in self.chat_roles) + ("base-station" in self.stroke_roles)
        for w in self.wireless:
            got = len(w.received_events) - self.w_before[w.name]
            if got != w_want:
                errors.append(f"{w.name}: {got} downlink events, expected {w_want}")
        return errors

    def final_check(self) -> list[str]:
        errors = []
        for c in self.clients:
            transcript = [
                f"{author}: {text}"
                for author, text, roles, *_ in self.script
                if author == c.name or self.role_of[c.name] in roles
            ]
            if c.chat.transcript != transcript:
                errors.append(f"{c.name}: chat transcript differs from the replayed script")
            board = {
                oid: list(points)
                for _a, _t, _r, drawer, oid, points, roles in self.script
                if drawer == c.name or self.role_of[c.name] in roles
            }
            if c.whiteboard.objects() != board:
                errors.append(f"{c.name}: whiteboard differs from the replayed script")
            for peer, status in self.last_status.items():
                if peer != c.name and c.peer_profiles[peer].get("status") != status:
                    errors.append(f"{c.name}: peer profile of {peer} is stale")
        return errors

    def counters(self) -> dict[str, int]:
        return self._session_counters()


# ----------------------------------------------------------------------
# multicast routing fabric
# ----------------------------------------------------------------------
class FabricChurn(Workload):
    """A two-domain router hierarchy (core, two aggregation routers, two
    sub-aggregates each, four access routers apiece) with 256 members
    placed on seeded access routers and 8 spare hosts.

    One op: a seeded member leaves (even ops) or a seeded spare rejoins
    (odd ops), then the sender makes one group send and the network
    drains.
    """

    name = "fabric_churn"
    warmup_ops = 10
    block_ops = 100
    rss_ops = 300
    claims = ("network.routing.join", "network.routing.leave", "network.routing.cast", "network.dispatch")
    speed_exponent = 0.8
    setup_exponent = 0.7
    members = 256
    spares = 8
    group = "239.77.0.1"
    port = 5000

    def build(self) -> None:
        rng = self.rng
        self.sched = Scheduler()
        self.net = net = Network(self.sched, seed=self.seed)
        self.fabric = fab = MulticastFabric(net)
        fab.add_domain("core")
        fab.add_router("core0", "core", latency=0.0005)
        access = []
        for dom in ("east", "west"):
            fab.add_domain(dom, parent="core")
            fab.add_router(f"agg-{dom}", dom, parent="core0", latency=0.0005)
            for s in range(2):
                fab.add_router(f"sub-{dom}{s}", dom, parent=f"agg-{dom}", latency=0.0003)
                for a in range(4):
                    fab.add_router(f"acc-{dom}{s}{a}", dom, parent=f"sub-{dom}{s}", latency=0.0002)
                    access.append(f"acc-{dom}{s}{a}")
        fab.attach_host("tx", rng.choice(access), latency=0.0001)
        hosts = [f"m{m:03d}" for m in range(self.members + self.spares)]
        for host in hosts:
            fab.attach_host(host, rng.choice(access), latency=0.0001)
        self.mgroup = MulticastGroup(net, self.group, self.port, fabric=fab)
        self.received: list[tuple[str, bytes]] = []
        self.sockets = {h: self._join(h) for h in hosts[: self.members]}
        self.out = hosts[self.members:]
        self.sender = MulticastSocket(net, "tx", self.mgroup)
        self.delivered = 0

    def _join(self, host: str) -> MulticastSocket:
        def on_receive(data: bytes, src, host=host) -> None:
            self.received.append((host, data))

        return MulticastSocket(self.net, host, self.mgroup, on_receive=on_receive)

    def prepare(self, i: int) -> None:
        if i % 2 == 0:
            self.mover = self.rng.choice(sorted(self.sockets))
        else:
            self.mover = self.rng.choice(self.out)
        self.payload = b"op-%d" % i
        self.received.clear()

    def run(self, i: int) -> None:
        if i % 2 == 0:
            self.sockets.pop(self.mover).leave()
            self.out.append(self.mover)
        else:
            self.out.remove(self.mover)
            self.sockets[self.mover] = self._join(self.mover)
        self.sender.send(self.payload)
        self.sched.run()

    def check(self, i: int) -> list[str]:
        self.delivered += len(self.received)
        hosts = [h for h, data in self.received if data == self.payload]
        errors = []
        if len(hosts) != len(self.received):
            errors.append("a member received a datagram of another op")
        if sorted(hosts) != sorted(self.sockets):
            missing = set(self.sockets) - set(hosts)
            extra = set(hosts) - set(self.sockets)
            errors.append(f"receivers differ from membership: {len(missing)} missing, {len(extra)} extra,"
                          f" {len(hosts) - len(set(hosts))} duplicates")
        return errors

    def deliveries(self) -> int:
        return self.delivered + len(self.received)

    def counters(self) -> dict[str, int]:
        stats = self.fabric.stats()
        return {
            "packets_sent": self.net.packets_sent,
            "packets_transmitted": self.net.packets_transmitted,
            "casts": stats["casts"],
            "rebuilds": stats["rebuilds"],
        }


# ----------------------------------------------------------------------
# in-process sharded broker
# ----------------------------------------------------------------------
class BrokerFanout(Workload):
    """A default :class:`ShardedSemanticBus` (8 shards; its matching pool
    has ``min(8, cpu_count)`` workers) with 12,000 subscribers.

    Profiles carry a cell, a role and one of four attribute signatures;
    a third of them filter on message priority.  One op detaches a
    seeded subscriber, attaches a replacement with a different profile
    and publishes one cell- and role-targeted message.  Every op checks
    that each delivery matches; a seeded one op in ``full_check_every``
    is also compared with a linear scan of the whole population.
    """

    name = "broker_fanout"
    warmup_ops = 20
    block_ops = 200
    rss_ops = 600
    claims = ("messaging.broker.attach", "messaging.broker.detach", "messaging.broker.publish")
    speed_exponent = 0.7
    subscribers = 12_000
    cells = 48
    roles = ("medic", "scout", "engineer", "observer")
    extras = ((), ("team",), ("zone",), ("team", "zone"))
    full_check_every = 100

    def _profile(self, n: int) -> ClientProfile:
        rng = self.rng
        attrs = {"cell": f"cell{rng.randrange(self.cells):02d}", "role": rng.choice(self.roles)}
        for extra in rng.choice(self.extras):
            attrs[extra] = f"{extra}{rng.randrange(4)}"
        interest = f"priority >= {rng.randint(1, 3)}" if rng.random() < 1 / 3 else None
        return ClientProfile(f"s{n}", attrs, interest=interest)

    def build(self) -> None:
        self.bus = ShardedSemanticBus()
        self.got: list[ClientProfile] = []
        self.subs = [self._attach(self._profile(n)) for n in range(self.subscribers)]
        self.next_id = self.subscribers
        self.results: list = []
        self.delivered = 0

    def _attach(self, profile: ClientProfile):
        return self.bus.attach(profile, lambda delivery: self.got.append(profile))

    def prepare(self, i: int) -> None:
        rng = self.rng
        self.victim = rng.randrange(len(self.subs))
        old = self.subs[self.victim].profile
        while True:
            self.new_profile = self._profile(self.next_id)
            if self.new_profile.snapshot() != old.snapshot():
                break
        self.next_id += 1
        self.message = SemanticMessage.create(
            sender="publisher",
            selector=f"cell == 'cell{rng.randrange(self.cells):02d}' and role == '{rng.choice(self.roles)}'",
            headers={"priority": rng.randint(0, 3), "seq": i},
            kind="broker-op",
        )
        self.got = []

    def run(self, i: int) -> None:
        self.bus.detach(self.subs[self.victim])
        self.subs[self.victim] = self._attach(self.new_profile)
        self.result = self.bus.publish(self.message)

    def check(self, i: int) -> list[str]:
        self.delivered += len(self.got)
        self.results.append(self.result)
        msg = self.message
        headers = msg.effective_headers()
        errors = []
        if self.result.delivered != len(self.got):
            errors.append(f"result counts {self.result.delivered} deliveries, callbacks saw {len(self.got)}")
        for profile in self.got:
            if interpret(msg.selector, headers, profile).decision is Decision.REJECT:
                errors.append(f"{profile.client_id} received a message it rejects")
        if random.Random(self.seed * 7919 + i).randrange(self.full_check_every) == 0:
            want = {
                s.profile.client_id
                for s in self.subs
                if interpret(msg.selector, headers, s.profile).decision is not Decision.REJECT
            }
            if sorted(p.client_id for p in self.got) != sorted(want):
                errors.append("delivered set differs from the linear scan")
        return errors

    def deliveries(self) -> int:
        return self.delivered + len(self.got)

    def counters(self) -> dict[str, int]:
        return {
            "publishes": len(self.results),
            "checked": sum(r.candidates_checked for r in self.results),
            "delivered": sum(r.delivered for r in self.results),
        }


WORKLOADS = {w.name: w for w in (SessionImages, SessionEvents, FabricChurn, BrokerFanout)}
