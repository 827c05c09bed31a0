"""The three benchmark workloads, each one seeded trial of the paper stack.

A *trial* builds its inputs from the seed, sets the system up (timed as
set-up), runs the measured phase(s) on the host clock and then checks the
program's outputs.  Repeated trials of one (workload, seed, size) do the
same work, so a run may repeat them to steady its host timings; every count
and simulated quantity of a process's first trial is an exact function of
the seed and size.

``window`` is the tracer's view of the measured phase: ``window.begin()``
is called right before the first timed operation and ``window.end()`` right
after the last one.  The untraced run passes :data:`NO_WINDOW`.
"""

from __future__ import annotations

# Measuring host time is this file's job.  # lint: file-allow(wall-clock)

import random
import time
from dataclasses import dataclass, field

from repro.bench import run_hybrid_scenario
from repro.core import MicError
from repro.core.deployment import deploy_mic
from repro.faults import FaultSchedule
from repro.net import HybridEngine, Network, fat_tree
from repro.transport.tcp import TcpError
from repro.workloads.duplex import as_duplex
from repro.workloads.iperf import measure_transfer

__all__ = [
    "BulkSize",
    "HybridSize",
    "NO_WINDOW",
    "SessionsSize",
    "Trial",
    "WORKLOADS",
    "Workload",
]

ECHO_BYTES = 10
#: simulated seconds one operation may take before it counts as failed; a
#: clean session takes ~2 ms and a TCP retransmission 0.2 s
OP_LIMIT_S = 2.0


class _NoWindow:
    def begin(self) -> None:
        pass

    def end(self) -> None:
        pass


NO_WINDOW = _NoWindow()


@dataclass
class Trial:
    """What one trial did, measured and found wrong."""

    #: host seconds from the first line of set-up to the first timed operation
    setup_s: float = 0.0
    #: host seconds of each timed phase
    phase_s: dict[str, float] = field(default_factory=dict)
    #: completed operations per phase (sessions, echoes, channels)
    ops: dict[str, int] = field(default_factory=dict)
    #: simulated application bytes delivered per phase
    payload_bytes: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: simulated samples (seconds or bits/second) keyed by quantity
    sim: dict[str, list[float]] = field(default_factory=dict)
    #: why each failed operation failed
    failures: list[str] = field(default_factory=list)
    #: correctness violations; any entry fails the run
    errors: list[str] = field(default_factory=list)
    #: deterministic summary of what was simulated (same seed, same digest)
    digest: tuple = ()

    def record(self, box: dict) -> bool:
        """Count one operation run by :func:`_guarded`; True if it succeeded."""
        self.attempted += 1
        if box["status"] == "ok":
            return True
        self.failed += 1
        self.failures.append(box.get("error", box["status"]))
        return False


def _guarded(sim, gen, limit_s: float, box: dict):
    """Process generator: run ``gen`` as its own process for at most
    ``limit_s`` simulated seconds.

    Sets ``box["status"]`` to ``"ok"`` (with ``box["value"]``),
    ``"refused"`` (the MC or transport turned the operation down) or
    ``"timeout"`` (the process is interrupted).
    """

    def body():
        try:
            box["value"] = yield from gen
            box["status"] = "ok"
        except (MicError, TcpError) as exc:
            box["status"] = "refused"
            box["error"] = f"refused: {exc}"

    proc = sim.process(body(), name="perfbench.op")
    # A hand-made race: ``sim.any_of`` fires at once when given a Timeout,
    # which counts as triggered from the moment it is created.
    race = sim.event()

    def settle(_ev=None):
        if not race.triggered:
            race.succeed()

    proc.callbacks.append(settle)
    sim.call_later(limit_s, settle)
    yield race
    if "status" not in box:
        box["status"] = "timeout"
        proc.interrupt("perfbench op limit")


def _mn_shift(topo) -> int:
    # fat_tree(8)'s 80 switches overflow the default 64 MN label values;
    # the repo's other fat_tree(8) scenarios widen the space the same way.
    return 2 if len(topo.switches()) <= 60 else 1


def _edge_of(topo, host: str) -> str:
    return next(iter(topo.graph.neighbors(host)))


def _pod_of(switch: str) -> str:
    return switch.split("e")[0]


def _quiesce_checks(dep, trial: Trial) -> None:
    """Correctness after the last shutdown and the last heal."""
    dep.run()
    mic = dep.mic
    footprint = mic.rule_footprint()
    if footprint:
        trial.errors.append(f"MIC rules left after shutdown: {footprint}")
    if mic.parked_flows:
        trial.errors.append(f"{mic.parked_flows} flows still parked")
    report = mic.verify()
    if not report.ok:
        trial.errors.append(f"data-plane verification failed: {report.summary()}")


# ---------------------------------------------------------------------------
# sessions: MC-heavy closed loop on fat_tree(8)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SessionsSize:
    k: int = 8
    clients: int = 16
    rounds: int = 20
    flaps: int = 4
    #: flaps fire in [flap_from_s, flap_to_s) simulated, inside the churn
    flap_from_s: float = 0.005
    flap_to_s: float = 0.05
    flap_down_s: float = 0.004
    port: int = 9000


def sessions_inputs(seed: int, topo, size: SessionsSize):
    """Clients, per-client (responder, payload) rounds and flaps for a seed."""
    rng = random.Random(f"perfbench-sessions-{seed}")
    hosts = sorted(topo.hosts(), key=lambda h: int(h[1:]))
    by_edge: dict[str, list[str]] = {}
    for h in hosts:
        by_edge.setdefault(_edge_of(topo, h), []).append(h)
    edges = sorted(by_edge)
    if size.clients > len(edges):
        raise ValueError(f"{size.clients} clients > {len(edges)} edge switches")
    clients = [rng.choice(by_edge[e]) for e in rng.sample(edges, size.clients)]
    rounds = {
        a: [
            (rng.choice([h for h in hosts if h != a]), rng.randbytes(ECHO_BYTES))
            for _ in range(size.rounds)
        ]
        for a in clients
    }
    agg_core = sorted(
        (a, b) if a.startswith("c") else (b, a)
        for a, b in topo.graph.edges()
        if a.startswith("c") != b.startswith("c")
        and topo.kind(a) == topo.kind(b) == "switch"
    )
    flaps = [
        (*rng.choice(agg_core), rng.uniform(size.flap_from_s, size.flap_to_s))
        for _ in range(size.flaps)
    ]
    return hosts, clients, rounds, flaps


def sessions_setup(seed: int, size: SessionsSize = SessionsSize()):
    """Fabric, MC deployment with its flap schedule, and echo servers on
    every host; returns ``(host seconds, rig)``."""
    t0 = time.perf_counter()
    topo = fat_tree(size.k)
    hosts, clients, rounds, flaps = sessions_inputs(seed, topo, size)
    faults = FaultSchedule(seed=seed)
    for a, b, at_s in flaps:
        faults.link_flap(a, b, at_s=at_s, down_for_s=size.flap_down_s)
    dep = deploy_mic(topo, seed=seed, mic_kwargs={"mn_shift": _mn_shift(topo)},
                     faults=faults)
    sim = dep.sim

    def echo_one(stream):
        try:
            data = yield from stream.recv_exactly(ECHO_BYTES)
        except MicError:
            return
        stream.send(data)

    def serve(server):
        while True:
            stream = yield server.accept()
            sim.process(echo_one(stream), name="perfbench.echo")

    for h in hosts:
        sim.process(serve(dep.server(h, size.port)), name="perfbench.server")
    endpoints = {a: dep.endpoint(a) for a in clients}
    return time.perf_counter() - t0, (dep, rounds, endpoints)


def sessions_trial(seed: int, size: SessionsSize = SessionsSize(),
                   window=NO_WINDOW) -> Trial:
    """16 closed-loop clients: connect → 10-byte echo → shutdown, with flaps."""
    setup_s, (dep, rounds, endpoints) = sessions_setup(seed, size)
    trial = Trial(setup_s=setup_s)
    sim = dep.sim
    clients = list(endpoints)

    connect_s: list[float] = []
    session_s: list[float] = []
    mismatches: list[str] = []

    def session(ep, b, payload):
        t = sim.now
        stream = yield from ep.connect(b, service_port=size.port, n_mns=3, decoys=1)
        connect_s.append(sim.now - t)
        stream.send(payload)
        got = yield from stream.recv_exactly(ECHO_BYTES)
        if got != payload:
            mismatches.append(f"{ep.host.name}->{b}: sent {payload!r} got {got!r}")
        yield from ep.shutdown(stream)
        session_s.append(sim.now - t)

    def client(a):
        for b, payload in rounds[a]:
            box: dict = {}
            yield from _guarded(sim, session(endpoints[a], b, payload), OP_LIMIT_S, box)
            trial.record(box)

    window.begin()
    t1 = time.perf_counter()
    procs = [sim.process(client(a), name=f"perfbench.client.{a}") for a in clients]
    dep.net.run(until=sim.all_of(procs))
    trial.phase_s["sessions"] = time.perf_counter() - t1
    window.end()

    done = trial.attempted - trial.failed
    trial.ops["sessions"] = done
    trial.payload_bytes["sessions"] = 2 * ECHO_BYTES * done
    trial.sim["connect_s"] = connect_s
    trial.errors.extend(mismatches)
    if trial.attempted != size.clients * size.rounds:
        trial.errors.append(f"{trial.attempted} sessions ran, "
                            f"{size.clients * size.rounds} planned")
    trial.digest = (tuple(connect_s), tuple(session_s), sim.now, len(dep.net.trace))
    _quiesce_checks(dep, trial)
    return trial


# ---------------------------------------------------------------------------
# bulk: data-plane-heavy on the paper testbed, fat_tree(4)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BulkSize:
    k: int = 4
    channels: int = 4
    #: mean bytes per channel's transfer and mean echoes per channel; each
    #: channel draws its own within ±20% from the seed
    transfer_bytes: int = 300_000
    echoes: int = 100
    port: int = 5001


def bulk_inputs(seed: int, topo, size: BulkSize):
    """Per channel: a cross-pod (initiator, responder) pair, its transfer
    size and its echo payloads, all drawn from the seed."""
    rng = random.Random(f"perfbench-bulk-{seed}")
    hosts = sorted(topo.hosts(), key=lambda h: int(h[1:]))
    channels = []
    for a in rng.sample(hosts, size.channels):
        pod = _pod_of(_edge_of(topo, a))
        b = rng.choice([h for h in hosts if _pod_of(_edge_of(topo, h)) != pod])
        nbytes = round(size.transfer_bytes * rng.uniform(0.8, 1.2))
        echoes = round(size.echoes * rng.uniform(0.8, 1.2))
        channels.append((a, b, nbytes, [rng.randbytes(ECHO_BYTES) for _ in range(echoes)]))
    return channels


def bulk_setup(seed: int, size: BulkSize = BulkSize()):
    """Fabric, MC deployment and the established long-lived channels;
    returns ``(host seconds, rig)``."""
    t0 = time.perf_counter()
    topo = fat_tree(size.k)
    channels = bulk_inputs(seed, topo, size)
    dep = deploy_mic(topo, seed=seed, mic_kwargs={"mn_shift": _mn_shift(topo)})
    sim = dep.sim
    streams: list = []
    errors: list[str] = []

    def establish(i, a, b, nbytes, payloads):
        server = dep.server(b, size.port + i)
        ep = dep.endpoint(a)
        client = yield from ep.connect(b, service_port=size.port + i,
                                       n_mns=3, decoys=1)
        client.send(b"\x00")  # materializes the responder's stream
        served = yield server.accept()
        pre = yield from served.recv_exactly(1)
        if pre != b"\x00":
            errors.append(f"channel {i}: preamble {pre!r}")
        streams.append((i, ep, client, served, nbytes, payloads))

    procs = [sim.process(establish(i, *ch)) for i, ch in enumerate(channels)]
    dep.net.run(until=sim.all_of(procs))
    streams.sort(key=lambda s: s[0])
    return time.perf_counter() - t0, (dep, streams, errors)


def bulk_trial(seed: int, size: BulkSize = BulkSize(), window=NO_WINDOW) -> Trial:
    """Pre-established channels; a bulk phase, then an echo phase."""
    setup_s, (dep, streams, errors) = bulk_setup(seed, size)
    trial = Trial(setup_s=setup_s, errors=errors)
    sim = dep.sim

    transfer_s: list[float] = []
    goodput_bps: list[float] = []
    rtt_s: list[float] = []
    trial.payload_bytes["bulk"] = 0

    def bulk_phase():
        for i, _ep, client, served, nbytes, _payloads in streams:
            sent, got = client.bytes_sent, served.bytes_received
            box: dict = {}
            yield from _guarded(
                sim, measure_transfer(sim, as_duplex(client), as_duplex(served), nbytes),
                OP_LIMIT_S * 10, box)
            if not trial.record(box):
                continue
            sent, got = client.bytes_sent - sent, served.bytes_received - got
            if sent != nbytes or got != nbytes:
                trial.errors.append(
                    f"channel {i}: asked {nbytes} bytes, sent {sent}, received {got}")
            trial.payload_bytes["bulk"] += got
            result = box["value"]
            transfer_s.append(result.duration_s)
            goodput_bps.append(result.goodput_bps)

    def echo_once(client, served, payload):
        t = sim.now
        client.send(payload)
        echoed = yield from served.recv_exactly(ECHO_BYTES)
        served.send(echoed)
        got = yield from client.recv_exactly(ECHO_BYTES)
        if got != payload:
            trial.errors.append(f"echo mismatch: sent {payload!r} got {got!r}")
        rtt_s.append(sim.now - t)

    def echo_phase():
        for _i, _ep, client, served, _nbytes, payloads in streams:
            for payload in payloads:
                box: dict = {}
                yield from _guarded(sim, echo_once(client, served, payload),
                                    OP_LIMIT_S, box)
                trial.record(box)

    window.begin()
    t1 = time.perf_counter()
    dep.net.run(until=sim.process(bulk_phase(), name="perfbench.bulk"))
    t2 = time.perf_counter()
    dep.net.run(until=sim.process(echo_phase(), name="perfbench.echo"))
    t3 = time.perf_counter()
    window.end()
    trial.phase_s["bulk"] = t2 - t1
    trial.phase_s["echo"] = t3 - t2
    trial.ops["echo"] = len(rtt_s)
    trial.sim["echo_rtt_s"] = rtt_s
    trial.sim["goodput_bps"] = goodput_bps
    trial.digest = (tuple(transfer_s), tuple(rtt_s), sim.now, len(dep.net.trace))

    def close_all():
        for _i, ep, client, *_rest in streams:
            yield from ep.shutdown(client)

    dep.net.run(until=sim.process(close_all(), name="perfbench.close"))
    _quiesce_checks(dep, trial)
    return trial


# ---------------------------------------------------------------------------
# hybrid: fluid-heavy, fat_tree(16), no controller
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class HybridSize:
    k: int = 16
    channels: int = 2000
    sample_rate: float = 0.005
    epoch_s: float = 0.010
    payload_bytes: int = 1_000_000
    time_limit_s: float = 60.0


def hybrid_setup(seed: int, size: HybridSize = HybridSize()):
    """The fabric and engine the scenario starts from; returns
    ``(host seconds, rig)``."""
    t0 = time.perf_counter()
    net = Network(fat_tree(size.k), seed=seed)
    eng = HybridEngine(net, epoch_s=size.epoch_s, sample_rate=size.sample_rate)
    return time.perf_counter() - t0, (net, eng)


def hybrid_trial(seed: int, size: HybridSize = HybridSize(),
                 window=NO_WINDOW) -> Trial:
    """``run_hybrid_scenario`` with the ``mic`` traffic model.

    The scenario builds its own fabric inside the timed call, so set-up is
    timed on a separate, identical build.
    """
    trial = Trial(setup_s=hybrid_setup(seed, size)[0])
    window.begin()
    t1 = time.perf_counter()
    res = run_hybrid_scenario(
        k=size.k, channels=size.channels, payload_bytes=size.payload_bytes,
        sample_rate=size.sample_rate, epoch_s=size.epoch_s, seed=seed,
        time_limit_s=size.time_limit_s, strategy="mic",
    )
    trial.phase_s["channels"] = time.perf_counter() - t1
    window.end()
    finished = res.fluid_finished + res.packet_finished
    trial.attempted = res.lanes
    trial.failed = res.lanes - finished
    trial.failures = ["unfinished"] * trial.failed
    if finished != res.lanes:
        trial.errors.append(
            f"{res.lanes - finished} of {res.lanes} channels unfinished "
            f"within {size.time_limit_s} simulated seconds")
    trial.ops["channels"] = finished
    trial.payload_bytes["channels"] = finished * size.payload_bytes
    fluid = list(res.fluid_goodput_bps.values())
    packet = list(res.packet_goodput_bps.values())
    trial.sim["fluid_goodput_bps"] = fluid
    trial.digest = (res.sim_time_s, res.epochs, res.resolves, res.fluid_flows,
                    res.packet_flows, tuple(packet))
    return trial


@dataclass(frozen=True)
class Workload:
    """One benchmark workload and how its trial's results map to metrics."""

    trial: object
    setup: object
    size: object
    #: phase whose completed operations per host second are ``ops_per_s``
    ops_phase: str
    #: phase whose delivered bytes per host second are ``payload_mb_per_s``
    bytes_phase: str


WORKLOADS = {
    "sessions": Workload(sessions_trial, sessions_setup, SessionsSize(),
                         ops_phase="sessions", bytes_phase="sessions"),
    "bulk": Workload(bulk_trial, bulk_setup, BulkSize(),
                     ops_phase="echo", bytes_phase="bulk"),
    "hybrid": Workload(hybrid_trial, hybrid_setup, HybridSize(),
                       ops_phase="channels", bytes_phase="channels"),
}
