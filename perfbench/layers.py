"""Per-layer attribution traced from outside the program.

The traced run wraps the public entry points of each layer of ``repro`` by
replacing class attributes with timing wrappers, runs one trial, and puts
the original attributes back.  Nothing inside ``src/`` is instrumented.

Every wrapped call becomes a span: name, start, end, parent span and the id
of the simulator event being dispatched when it ran.  A generator such as
``MimicController.establish`` becomes one span made of one segment per
resumption, so its time is the sum of its resumptions.  Spans live in
flat arrays until the end of the run.  A span's *self time* is its duration
minus the time covered by its direct children.

Two leaf predicates are called far too often to span
(``TopologyView.link_on_shortest_path`` runs millions of times per
``sessions`` trial), so they are only counted.
"""

from __future__ import annotations

# Measuring host time is this file's job.  # lint: file-allow(wall-clock)

import time
from array import array
from dataclasses import dataclass

from repro.anonymity import STRATEGIES
from repro.anonymity.base import Strategy
from repro.core.controller import MimicController
from repro.core.maga import ReversibleHash
from repro.core.restrictions import AddressRestrictions
from repro.net.addresses import IPv4Addr
from repro.net.flowtable import FlowTable
from repro.net.fluid import FluidSolver
from repro.net.host import Host
from repro.net.hybrid import HybridEngine
from repro.net.link import Channel
from repro.net.network import Network
from repro.net.switch import Switch
from repro.sdn.controller import Controller
from repro.sdn.discovery import TopologyView
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog
from repro.transport.tcp import TcpConnection

__all__ = ["PER_LAYER", "Tracer", "layer_metrics"]

DISPATCH = "sim.dispatch"

#: (span name, class, attribute, kind) for every wrapped entry point.
#: kind: "span" times the call, "gen" times each resumption of the returned
#: generator, "sized" also adds ``len(result)`` to a counter, "solve" spans
#: ``FluidSolver.rates`` only when it re-solves, "count" only counts.
PROBES = [
    (DISPATCH, Simulator, "step", "dispatch"),
    ("sim.trace.emit", TraceLog, "emit", "span"),
    ("net.switch.receive", Switch, "receive", "span"),
    ("net.flowtable.lookup", FlowTable, "lookup", "span"),
    ("net.flowtable.apply", FlowTable, "apply", "span"),
    ("net.flowtable.install", FlowTable, "install", "span"),
    ("net.flowtable.install_many", FlowTable, "install_many", "span"),
    ("net.flowtable.remove_by_cookie", FlowTable, "remove_by_cookie", "span"),
    ("net.link.send", Channel, "send", "span"),
    ("net.host.receive", Host, "receive", "span"),
    ("net.host.send_packet", Host, "send_packet", "span"),
    ("net.addr.str", IPv4Addr, "__str__", "count"),
    ("transport.tcp.handle_segment", TcpConnection, "handle_segment", "span"),
    ("net.fluid.solve", FluidSolver, "rates", "solve"),
    ("net.hybrid.fidelity_for", HybridEngine, "fidelity_for", "span"),
    ("net.hybrid.start_flow", HybridEngine, "start_flow", "span"),
    ("sdn.install", Controller, "install", "span"),
    ("sdn.install_batch", Controller, "install_batch", "span"),
    ("sdn.install_group", Controller, "install_group", "span"),
    ("sdn.remove_by_cookie", Controller, "remove_by_cookie", "span"),
    ("sdn.view.plausible_host_pairs", TopologyView, "plausible_host_pairs", "span"),
    ("sdn.view.link_on_shortest_path", TopologyView, "link_on_shortest_path", "count"),
    ("sdn.view.paths_with_min_switches", TopologyView, "paths_with_min_switches", "span"),
    ("sdn.view.set_link_state", TopologyView, "set_link_state", "span"),
    ("core.mc.establish", MimicController, "establish", "gen"),
    ("core.mc.teardown", MimicController, "teardown", "span"),
    ("core.mc.on_link_event", MimicController, "on_link_event", "span"),
    ("core.restrictions.pairs_for_segment", AddressRestrictions, "pairs_for_segment", "sized"),
    ("core.restrictions.sample_pair", AddressRestrictions, "sample_pair", "span"),
    ("core.maga.solve", ReversibleHash, "solve", "span"),
    ("anonymity.draw_addresses", Strategy, "draw_addresses", "span"),
    ("anonymity.compile_flow", Strategy, "compile_flow", "span"),
]


class Tracer:
    """Span store plus the wrappers that feed it.

    ``install()`` swaps every probed class attribute for a wrapper (on each
    class that defines it, so strategy subclasses that override a method
    are covered); ``restore()`` puts the very same original objects back.
    ``begin()``/``end()`` bound the measured window: spans recorded outside
    it are not aggregated.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.networks: list[Network] = []
        self._originals: list[tuple[type, str, object]] = []
        self.reset()

    # -- the span store --------------------------------------------------
    def reset(self) -> None:
        """Drop every span and count recorded so far."""
        self.name = array("i")
        self.parent = array("i")
        self.event = array("i")
        self.group = array("i")
        self.starts = array("d")
        self.ends = array("d")
        #: open spans; the sentinel -1 is the parent of a root span
        self.stack = [-1]
        self.current_event = -1
        for key in self.counts:
            self.counts[key] = 0
        self.window = (0.0, 0.0)
        self.n_window = 0
        self._net_before: dict = {}

    def name_id(self, name: str) -> int:
        """Index of ``name`` in :attr:`names`, added on first use."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        """Start a span; returns its index."""
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.event.append(self.current_event)
        self.group.append(i)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(self.clock())
        return i

    def close(self, i: int) -> None:
        """Finish span ``i`` (the innermost open one)."""
        self.ends[i] = self.clock()
        self.stack.pop()

    # -- the measured window ---------------------------------------------
    def begin(self) -> None:
        """Start of the measured phase: forget set-up spans and counts."""
        nets = self.networks
        self.reset()
        self.networks = nets
        self._net_before = {id(n): _net_counters(n) for n in nets}
        self.window = (self.clock(), 0.0)

    def end(self) -> None:
        """End of the measured phase: later spans are not aggregated."""
        self.window = (self.window[0], self.clock())
        self.n_window = len(self.name)
        self.window_counts = dict(self.counts)
        zero = (0, 0, 0)
        totals = [0, 0, 0]
        for n in self.networks:
            before = self._net_before.get(id(n), zero)
            for k, (now, was) in enumerate(zip(_net_counters(n), before)):
                totals[k] += now - was
        self.net_deltas = dict(zip(("cache_hits", "cache_misses", "link_drops"), totals))
        self.trace_records = sum(len(n.trace.records) for n in self.networks)

    # -- wrappers ----------------------------------------------------------
    def install(self) -> None:
        """Swap every probe in (once; :meth:`restore` undoes it)."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        for name, cls, attr, kind in PROBES:
            classes = [cls]
            if cls is Strategy:
                classes += [c for c in STRATEGIES.values() if attr in vars(c)]
            for owner in classes:
                if attr not in vars(owner):
                    continue
                fn = vars(owner)[attr]
                self._originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, kind, fn))
        init = vars(Network)["__init__"]
        self._originals.append((Network, "__init__", init))
        networks = self.networks

        def captured_init(net, *args, **kwargs):
            init(net, *args, **kwargs)
            networks.append(net)

        Network.__init__ = captured_init

    def restore(self) -> None:
        """Put back the original class attributes (the same objects)."""
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()
        self.networks.clear()

    def _wrap(self, name: str, kind: str, fn):
        nid = self.name_id(name)
        open_, close = self.open, self.close
        counts = self.counts
        if kind == "count":
            counts[name] = 0

            def counted(*args):
                counts[name] += 1
                return fn(*args)

            return counted
        if kind == "dispatch":
            tracer = self

            def dispatch(sim):
                tracer.current_event += 1
                i = open_(nid)
                try:
                    return fn(sim)
                finally:
                    close(i)

            return dispatch
        if kind == "gen":
            resumed = self.resumed

            def generator(*args, **kwargs):
                return resumed(nid, fn(*args, **kwargs))

            return generator
        if kind == "sized":
            sized_key = name + ".items"
            counts[sized_key] = 0

            def sized(*args, **kwargs):
                i = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                    counts[sized_key] += len(result)
                    return result
                finally:
                    close(i)

            return sized
        if kind == "solve":
            flows_key = name + ".flows"
            counts[flows_key] = 0

            def solve(solver):
                if not solver.dirty:
                    return fn(solver)
                counts[flows_key] += len(solver)
                i = open_(nid)
                try:
                    return fn(solver)
                finally:
                    close(i)

            return solve

        def spanned(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return spanned

    def resumed(self, nid: int, gen):
        """Generator: drive ``gen``, one span segment per resumption, all
        segments sharing the first segment's group id."""
        group = -1
        value = None
        exc: BaseException | None = None
        while True:
            i = self.open(nid)
            if group < 0:
                group = i
            self.group[i] = group
            try:
                target = gen.throw(exc) if exc is not None else gen.send(value)
            except StopIteration as stop:
                self.close(i)
                return stop.value
            except BaseException:
                self.close(i)
                raise
            self.close(i)
            try:
                value = yield target
                exc = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:  # delivered into the generator
                value, exc = None, thrown

    # -- output --------------------------------------------------------------
    def write_spans(self, path: str) -> None:
        """Write the window's spans as CSV (one row per span segment)."""
        t0 = self.window[0]
        with open(path, "w", encoding="utf-8") as out:
            out.write("index,name,start_s,end_s,parent,event,group\n")
            for i in range(self.n_window):
                out.write(
                    f"{i},{self.names[self.name[i]]},{self.starts[i] - t0:.9f},"
                    f"{self.ends[i] - t0:.9f},{self.parent[i]},{self.event[i]},"
                    f"{self.group[i]}\n"
                )


def _net_counters(net: Network) -> tuple[int, int, int]:
    hits = misses = drops = 0
    for sw in net.switches():
        hits += sw.table.cache_hits
        misses += sw.table.cache_misses
    for link in net.links:
        drops += link.forward.stats.drops + link.reverse.stats.drops
    return hits, misses, drops


@dataclass
class SpanStats:
    """Per-name totals over the measured window."""

    calls: int = 0
    groups: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: time of spans not nested inside a span of the same family
    outer_s: float = 0.0


def span_stats(tracer: Tracer, families: dict[str, str] | None = None) -> dict[str, SpanStats]:
    """Aggregate the window's spans by name.

    ``families`` maps span names to a family; a span's ``outer_s`` counts
    only when its parent is not in the same family, so nested calls of one
    family (``install_many`` → ``install``) are not counted twice.
    """
    n = tracer.n_window
    families = families or {}
    names, parent, group = tracer.name, tracer.parent, tracer.group
    starts, ends = tracer.starts, tracer.ends
    dur = [ends[i] - starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    fam_of = [families.get(name) for name in tracer.names]
    stats = {name: SpanStats() for name in tracer.names}
    by_id = [stats[name] for name in tracer.names]
    for i in range(n):
        s = by_id[names[i]]
        s.calls += 1
        if group[i] == i:
            s.groups += 1
        s.total_s += dur[i]
        s.self_s += dur[i] - child[i]
        p = parent[i]
        fam = fam_of[names[i]]
        if fam is None or p < 0 or fam_of[names[p]] != fam:
            s.outer_s += dur[i]
    return stats


#: (metric, unit) in the order they are reported; BENCHMARK.json lists the same
PER_LAYER = [
    ("sim.events", "count"),
    ("sim.dispatch_self_s", "s"),
    ("sim.trace.emits", "count"),
    ("sim.trace.emit_s", "s"),
    ("sim.trace.records", "count"),
    ("net.switch.rx", "count"),
    ("net.switch.self_s", "s"),
    ("net.flowtable.lookups", "count"),
    ("net.flowtable.lookups_per_rx", "ratio"),
    ("net.flowtable.lookup_s", "s"),
    ("net.flowtable.cache_hit_ratio", "ratio"),
    ("net.flowtable.writes", "count"),
    ("net.flowtable.write_s", "s"),
    ("net.link.tx", "count"),
    ("net.link.drops", "count"),
    ("net.link.self_s", "s"),
    ("net.host.rx", "count"),
    ("net.host.self_s", "s"),
    ("net.addr.str_calls", "count"),
    ("transport.tcp.segments", "count"),
    ("transport.tcp.self_s", "s"),
    ("net.fluid.solves", "count"),
    ("net.fluid.flows_per_solve", "flows"),
    ("net.fluid.solve_s", "s"),
    ("net.hybrid.fidelity_s", "s"),
    ("net.hybrid.start_flow_s", "s"),
    ("sdn.flowmods", "count"),
    ("sdn.flowmod_s", "s"),
    ("sdn.view.pair_scans", "count"),
    ("sdn.view.pair_checks", "count"),
    ("sdn.view.pair_scan_s", "s"),
    ("sdn.view.path_s", "s"),
    ("sdn.view.relinks", "count"),
    ("sdn.view.relink_s", "s"),
    ("core.mc.establishes", "count"),
    ("core.mc.establish_self_s", "s"),
    ("core.mc.link_events", "count"),
    ("core.restrictions.segments", "count"),
    ("core.restrictions.pairs_built", "count"),
    ("core.restrictions.s", "s"),
    ("core.maga.solves", "count"),
    ("core.maga.solve_s", "s"),
    ("anonymity.draw_s", "s"),
    ("anonymity.compile_s", "s"),
    ("bench.attributed_frac", "ratio"),
    ("bench.trace_overhead", "ratio"),
]

_FAMILIES = {
    "net.flowtable.install": "write",
    "net.flowtable.install_many": "write",
    "net.flowtable.remove_by_cookie": "write",
    "sdn.install": "flowmod",
    "sdn.install_batch": "flowmod",
    "sdn.install_group": "flowmod",
    "sdn.remove_by_cookie": "flowmod",
    "core.restrictions.pairs_for_segment": "restrictions",
    "core.restrictions.sample_pair": "restrictions",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, untraced_wall_s: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from a finished traced window."""
    st = span_stats(tracer, _FAMILIES)
    empty = SpanStats()

    def g(name: str) -> SpanStats:
        return st.get(name, empty)

    def outer(*names: str) -> float:
        return sum(g(n).outer_s for n in names)

    c = tracer.window_counts
    net = tracer.net_deltas
    wall = tracer.window[1] - tracer.window[0]
    named_self = sum(s.self_s for name, s in st.items() if name != DISPATCH)
    rx = g("net.switch.receive").calls
    lookups = g("net.flowtable.lookup").calls
    solves = g("net.fluid.solve").calls
    return {
        "sim.events": g(DISPATCH).calls,
        "sim.dispatch_self_s": g(DISPATCH).self_s,
        "sim.trace.emits": g("sim.trace.emit").calls,
        "sim.trace.emit_s": g("sim.trace.emit").total_s,
        "sim.trace.records": tracer.trace_records,
        "net.switch.rx": rx,
        "net.switch.self_s": g("net.switch.receive").self_s,
        "net.flowtable.lookups": lookups,
        "net.flowtable.lookups_per_rx": _ratio(lookups, rx),
        "net.flowtable.lookup_s": g("net.flowtable.lookup").total_s,
        "net.flowtable.cache_hit_ratio": _ratio(
            net["cache_hits"], net["cache_hits"] + net["cache_misses"]),
        "net.flowtable.writes": g("net.flowtable.install").calls
        + g("net.flowtable.remove_by_cookie").calls,
        "net.flowtable.write_s": outer("net.flowtable.install",
                                       "net.flowtable.install_many",
                                       "net.flowtable.remove_by_cookie"),
        "net.link.tx": g("net.link.send").calls,
        "net.link.drops": net["link_drops"],
        "net.link.self_s": g("net.link.send").self_s,
        "net.host.rx": g("net.host.receive").calls,
        "net.host.self_s": g("net.host.receive").self_s + g("net.host.send_packet").self_s,
        "net.addr.str_calls": c.get("net.addr.str", 0),
        "transport.tcp.segments": g("transport.tcp.handle_segment").calls,
        "transport.tcp.self_s": g("transport.tcp.handle_segment").self_s,
        "net.fluid.solves": solves,
        "net.fluid.flows_per_solve": _ratio(c.get("net.fluid.solve.flows", 0), solves),
        "net.fluid.solve_s": g("net.fluid.solve").total_s,
        "net.hybrid.fidelity_s": g("net.hybrid.fidelity_for").total_s,
        "net.hybrid.start_flow_s": g("net.hybrid.start_flow").total_s,
        "sdn.flowmods": sum(g(n).calls for n in ("sdn.install", "sdn.install_batch",
                                                 "sdn.install_group",
                                                 "sdn.remove_by_cookie")),
        "sdn.flowmod_s": outer("sdn.install", "sdn.install_batch",
                               "sdn.install_group", "sdn.remove_by_cookie"),
        "sdn.view.pair_scans": g("sdn.view.plausible_host_pairs").calls,
        "sdn.view.pair_checks": c.get("sdn.view.link_on_shortest_path", 0),
        "sdn.view.pair_scan_s": g("sdn.view.plausible_host_pairs").total_s,
        "sdn.view.path_s": g("sdn.view.paths_with_min_switches").total_s,
        "sdn.view.relinks": g("sdn.view.set_link_state").calls,
        "sdn.view.relink_s": g("sdn.view.set_link_state").total_s,
        "core.mc.establishes": g("core.mc.establish").groups,
        "core.mc.establish_self_s": g("core.mc.establish").self_s,
        "core.mc.link_events": g("core.mc.on_link_event").calls,
        "core.restrictions.segments": g("core.restrictions.pairs_for_segment").calls,
        "core.restrictions.pairs_built": c.get("core.restrictions.pairs_for_segment.items", 0),
        "core.restrictions.s": outer("core.restrictions.pairs_for_segment",
                                     "core.restrictions.sample_pair"),
        "core.maga.solves": g("core.maga.solve").calls,
        "core.maga.solve_s": g("core.maga.solve").total_s,
        "anonymity.draw_s": g("anonymity.draw_addresses").total_s,
        "anonymity.compile_s": g("anonymity.compile_flow").total_s,
        "bench.attributed_frac": _ratio(named_self, wall),
        "bench.trace_overhead": _ratio(wall, untraced_wall_s),
    }
