"""Traced runs: per-layer time and work, measured from outside the program.

:class:`Tracer` wraps public entry points of the ``repro`` modules at
runtime (class attributes and module globals), records a span around
each call and restores every original on :meth:`Tracer.uninstall`.
Nothing under ``src/`` changes.  A span's *self time* is its duration
minus the time of the wrapped spans nested inside it, so each second is
charged to exactly one layer; time in code no wrapper covers stays with
the innermost wrapped caller.  Spans nest per thread (the daemon runs
variants on its own worker threads); totals are summed over threads, so
on ``service-mixed`` they are busy time, not wall time.

The wrappers cost time of their own.  ``trace_overhead_s`` reports it:
traced minus untraced wall time of one pass of the same workload.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
import time

#: Per-layer metrics: (name, unit, better, end-to-end metric and workload
#: it should move).  Every ``*_s`` metric is self time, summed over threads.
PER_LAYER = (
    ("sim.crypto.signs", "count", "lower",
     "variants_per_s, variant_p90_ms on registry; ~0 on fleet-n256"),
    ("sim.crypto.macs", "count", "lower",
     "variants_per_s, variant_p90_ms on registry; ~0 on fleet-n256"),
    ("sim.crypto.self_s", "s", "lower",
     "variants_per_s, variant_p90_ms on registry; ~0 on fleet-n256"),
    ("sim.controls.admits", "count", "lower", "variants_per_s on registry"),
    ("sim.controls.rejects", "count", "lower", "variants_per_s on registry"),
    ("sim.controls.self_s", "s", "lower", "variants_per_s on registry"),
    ("sim.network.sends", "count", "lower",
     "variants_per_s on registry (floods) and fleet-n256 (fan-out)"),
    ("sim.network.delivered", "count", "lower",
     "variants_per_s on registry (floods) and fleet-n256 (fan-out)"),
    ("sim.network.dropped", "count", "lower",
     "variants_per_s on registry (floods) and fleet-n256 (fan-out)"),
    ("sim.network.self_s", "s", "lower",
     "variants_per_s on registry (floods) and fleet-n256 (fan-out)"),
    ("sim.events.subscribes", "count", "lower", "variants_per_s on fleet-n256"),
    ("sim.events.setup_s", "s", "lower", "variants_per_s on fleet-n256"),
    ("sim.events.publishes", "count", "lower", "variants_per_s on fleet-n256"),
    ("sim.events.publish_s", "s", "lower", "variants_per_s on fleet-n256"),
    ("sim.events.inlined_tallies", "count", "lower",
     "none: work done past publish(), listed to size the blind spot"),
    ("sim.topology.steps", "count", "lower", "variants_per_s on fleet-n256"),
    ("sim.topology.self_s", "s", "lower", "variants_per_s on fleet-n256"),
    ("sim.monitor.checks", "count", "lower", "variants_per_s on fleet-n256"),
    ("sim.monitor.self_s", "s", "lower", "variants_per_s on fleet-n256"),
    ("sim.clock.events", "count", "lower",
     "variants_per_s on registry and fleet-n256"),
    ("sim.clock.self_s", "s", "lower",
     "variants_per_s on registry and fleet-n256"),
    ("engine.spec.builds", "count", "lower",
     "variant_p50_ms on registry, variants_per_s on fleet-n256"),
    ("engine.spec.build_s", "s", "lower",
     "variant_p50_ms on registry, variants_per_s on fleet-n256"),
    ("engine.attacks.arm_s", "s", "lower",
     "variant_p50_ms on registry, variants_per_s on fleet-n256"),
    ("testing.harness.self_s", "s", "lower", "variant_p50_ms on registry"),
    ("engine.campaign.self_s", "s", "lower", "variant_p50_ms on registry"),
    ("service.memo.lookups", "count", "lower",
     "submit_p50_ms, submit_p99_ms on service-mixed"),
    ("service.memo.hits", "count", "higher",
     "submit_p50_ms, submit_p99_ms on service-mixed"),
    ("service.memo.hit_ratio", "ratio", "higher",
     "submit_p50_ms, submit_p99_ms on service-mixed"),
    ("service.memo.lookup_s", "s", "lower",
     "submit_p50_ms, submit_p99_ms on service-mixed"),
    ("service.memo.records", "count", "lower",
     "variants_per_s on service-mixed"),
    ("service.memo.record_s", "s", "lower", "variants_per_s on service-mixed"),
    ("service.memo.journal_bytes", "bytes", "lower",
     "variants_per_s on service-mixed"),
    ("service.protocol.encode_s", "s", "lower",
     "submit_p50_ms on service-mixed"),
    ("service.protocol.decode_s", "s", "lower",
     "submit_p50_ms on service-mixed"),
    ("service.protocol.bytes", "bytes", "lower",
     "submit_p50_ms on service-mixed"),
    ("service.scheduler.submit_s", "s", "lower",
     "submit_p50_ms on service-mixed"),
    ("trace_overhead_s", "s", "lower", "none: cost of tracing itself"),
)

#: Counters that must repeat exactly across runs and seeds: every count
#: except byte sizes, which carry measured wall times inside the JSON.
DETERMINISTIC = tuple(
    name for name, unit, _better, _moves in PER_LAYER if unit == "count"
) + ("service.memo.hit_ratio",)

#: Work the program does past the public functions wrapped here.
NOTES = (
    "sim.events.publishes counts EventBus.publish calls only: Channel "
    "deliveries and ControlPipeline denials increment TopicProbe.counts "
    "directly when nothing observes the topic, as does EventBus.tally; "
    "that work shows in sim.events.inlined_tallies and its time stays "
    "with the caller",
    "sim.network.self_s covers Channel.send only: delivery "
    "(Channel._deliver) runs as a clock callback, so its fan-out loop is "
    "in sim.clock.self_s and the receivers' admit() in sim.controls",
    "sim.crypto.signs counts Message.create_signed; Message.signed() tags "
    "through compute_mac and shows only in sim.crypto.macs, which counts "
    "every HMAC computed, including the one inside each verify_mac",
    "Message.mac_verified memoises verify_mac per message and key: a "
    "broadcast checked by N receivers costs one verify_mac",
    "sim.clock.self_s is the event loop plus every callback not wrapped "
    "here: vehicle ticks, ECU service slots, deliveries and the monitor's "
    "sweep loop around its wrapped checks",
    "sim.events.subscribes counts subscribe() and retain() calls; each one "
    "clears the dispatch plans and re-answers every TopicProbe",
)


class _ThreadState:
    """One thread's open spans, totals and objects awaiting harvest."""

    def __init__(self) -> None:
        #: Child time accumulated under each open span, innermost last.
        self.stack: list[float] = []
        #: span -> [calls, self seconds]
        self.spans: dict[str, list] = collections.defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, int] = collections.defaultdict(int)
        self.channels: list = []
        self.buses: list = []


class Tracer:
    """Runtime wrappers around the layers' public functions."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def span(self, name: str, fn, after=None):
        """``fn`` recording a ``name`` span; ``after(state, args, result)``
        may add counters once it returns."""
        state_of = self._state
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                record = state.spans[name]
                record[0] += 1
                record[1] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(state, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        self._replace(owner, attr, lambda fn: self.span(name, fn, after))

    def install(self) -> None:
        """Wrap every layer boundary (see :data:`PER_LAYER`)."""
        from repro.engine import campaign, spec
        from repro.service import memo, protocol, scheduler
        from repro.sim import clock, crypto, events, monitor, network, topology
        from repro.sim.controls import base as controls
        from repro.testing import harness

        wrap = self._wrap
        wrap(network.Message, "create_signed", "sim.crypto.sign")
        for module in (crypto, network):
            wrap(module, "compute_mac", "sim.crypto.mac")
            wrap(module, "verify_mac", "sim.crypto.verify")
        wrap(controls.ControlPipeline, "admit", "sim.controls.admit",
             after=_count_reject)
        wrap(network.Channel, "send", "sim.network.send")
        wrap(events.EventBus, "subscribe", "sim.events.setup")
        wrap(events.EventBus, "retain", "sim.events.setup")
        wrap(events.EventBus, "publish", "sim.events.publish")
        wrap(topology.Topology, "step", "sim.topology.step")
        wrap(clock.SimClock, "run_until", "sim.clock.run_until",
             after=_count_events)
        wrap(spec.ScenarioSpec, "build", "engine.spec.build")
        wrap(campaign, "arm_catalog_attack", "engine.attacks.arm")
        wrap(campaign, "execute_variant", "engine.campaign.execute_variant",
             after=_harvest)
        self._replace(harness.TestHarness, "execute", self._traced_execute)
        self._replace(
            monitor.SafetyMonitor, "add_invariant", self._traced_add_invariant
        )
        self._replace(network.Channel, "__init__", self._registering("channels"))
        self._replace(events.EventBus, "__init__", self._registering("buses"))
        wrap(memo.MemoStore, "lookup", "service.memo.lookup", after=_count_hit)
        wrap(memo.MemoStore, "record", "service.memo.record")
        wrap(protocol, "encode_line", "service.protocol.encode",
             after=_count_encoded)
        wrap(protocol, "decode_line", "service.protocol.decode",
             after=_count_decoded)
        wrap(scheduler.Scheduler, "submit", "service.scheduler.submit")

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _traced_execute(self, execute):
        arm = "engine.attacks.arm"

        def traced_execute(harness, test):
            test = dataclasses.replace(
                test, arm_attack=self.span(arm, test.arm_attack)
            )
            return execute(harness, test)

        return self.span("testing.harness.execute", traced_execute)

    def _traced_add_invariant(self, add_invariant):
        def traced_add_invariant(monitor, goal_id, check, until=None):
            return add_invariant(
                monitor, goal_id, self.span("sim.monitor.check", check), until
            )

        return traced_add_invariant

    def _registering(self, kind: str):
        def make(init):
            def registering_init(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                getattr(self._state(), kind).append(obj)

            return registering_init

        return make

    # -- results -------------------------------------------------------------

    def metrics(self, journal_bytes: int, overhead_s: float) -> dict:
        """Every :data:`PER_LAYER` metric, as ``{name: value}``."""
        spans: dict[str, list] = collections.defaultdict(lambda: [0, 0.0])
        counts: dict[str, int] = collections.defaultdict(int)
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, self_s) in state.spans.items():
                spans[name][0] += calls
                spans[name][1] += self_s
            for name, value in state.counts.items():
                counts[name] += value

        def calls(*names: str) -> int:
            return sum(spans[name][0] for name in names)

        def self_s(*names: str) -> float:
            return sum(spans[name][1] for name in names)

        lookups = calls("service.memo.lookup")
        hits = counts["service.memo.hits"]
        return {
            "sim.crypto.signs": calls("sim.crypto.sign"),
            "sim.crypto.macs": calls("sim.crypto.mac"),
            "sim.crypto.self_s": self_s(
                "sim.crypto.sign", "sim.crypto.mac", "sim.crypto.verify"
            ),
            "sim.controls.admits": calls("sim.controls.admit"),
            "sim.controls.rejects": counts["sim.controls.rejects"],
            "sim.controls.self_s": self_s("sim.controls.admit"),
            "sim.network.sends": calls("sim.network.send"),
            "sim.network.delivered": counts["sim.network.delivered"],
            "sim.network.dropped": counts["sim.network.dropped"],
            "sim.network.self_s": self_s("sim.network.send"),
            "sim.events.subscribes": calls("sim.events.setup"),
            "sim.events.setup_s": self_s("sim.events.setup"),
            "sim.events.publishes": calls("sim.events.publish"),
            "sim.events.publish_s": self_s("sim.events.publish"),
            "sim.events.inlined_tallies": max(
                0, counts["sim.events.topic_counts"] - calls("sim.events.publish")
            ),
            "sim.topology.steps": calls("sim.topology.step"),
            "sim.topology.self_s": self_s("sim.topology.step"),
            "sim.monitor.checks": calls("sim.monitor.check"),
            "sim.monitor.self_s": self_s("sim.monitor.check"),
            "sim.clock.events": counts["sim.clock.events"],
            "sim.clock.self_s": self_s("sim.clock.run_until"),
            "engine.spec.builds": calls("engine.spec.build"),
            "engine.spec.build_s": self_s("engine.spec.build"),
            "engine.attacks.arm_s": self_s("engine.attacks.arm"),
            "testing.harness.self_s": self_s("testing.harness.execute"),
            "engine.campaign.self_s": self_s("engine.campaign.execute_variant"),
            "service.memo.lookups": lookups,
            "service.memo.hits": hits,
            "service.memo.hit_ratio": hits / lookups if lookups else 0.0,
            "service.memo.lookup_s": self_s("service.memo.lookup"),
            "service.memo.records": calls("service.memo.record"),
            "service.memo.record_s": self_s("service.memo.record"),
            "service.memo.journal_bytes": journal_bytes,
            "service.protocol.encode_s": self_s("service.protocol.encode"),
            "service.protocol.decode_s": self_s("service.protocol.decode"),
            "service.protocol.bytes": counts["service.protocol.bytes"],
            "service.scheduler.submit_s": self_s("service.scheduler.submit"),
            "trace_overhead_s": overhead_s,
        }


def _count_reject(state, args, decision) -> None:
    if not decision.allowed:
        state.counts["sim.controls.rejects"] += 1


def _count_events(state, args, executed) -> None:
    state.counts["sim.clock.events"] += executed


def _count_hit(state, args, outcome) -> None:
    if outcome is not None:
        state.counts["service.memo.hits"] += 1


def _count_encoded(state, args, line) -> None:
    state.counts["service.protocol.bytes"] += len(line)


def _count_decoded(state, args, message) -> None:
    line = args[0]
    state.counts["service.protocol.bytes"] += len(
        line.encode("utf-8") if isinstance(line, str) else line
    )


def _harvest(state, args, outcome) -> None:
    """Fold the finished variant's channel and bus counters in."""
    counts = state.counts
    for channel in state.channels:
        stats = channel.stats
        counts["sim.network.delivered"] += stats["delivered"]
        counts["sim.network.dropped"] += stats["dropped"]
    for bus in state.buses:
        counts["sim.events.topic_counts"] += bus.count("")
    state.channels.clear()
    state.buses.clear()
