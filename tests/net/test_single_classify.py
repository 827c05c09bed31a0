"""One lookup per switch reception == a fresh lookup at classify time.

``Switch.receive`` classifies a packet to price its pipeline delay and
hands the entry, with the table version, to ``Switch._classify``, which
reuses it unless the table changed during the delay.  The reference
behaviour is a fresh ``FlowTable.apply(packet, in_port)`` when the delay
ends.  Here installs, higher-priority overrides, cookie removals, group
changes and crash/reboot land at random times, many of them inside a
packet's pipeline delay, and the two switches must agree on everything
observable: emissions, punts, per-entry counters and the full trace.
"""

from hypothesis import given, settings, strategies as st

from repro.net import (
    Drop,
    FlowEntry,
    Group,
    GroupEntry,
    Match,
    Network,
    Output,
    Packet,
    PopMpls,
    PushMpls,
    SetField,
    ToController,
    ip,
    linear,
    mac,
)
from repro.net.packet import reset_identity_counters
from repro.net.switch import Switch

IPS = [ip("10.0.0.1"), ip("10.0.0.2"), ip("10.0.0.3")]
SPORTS = [80, 443]
#: op times on a 0.25 us grid over 6 us: the base pipeline delay is 2 us,
#: so most table changes land while some packet is between receive and
#: classify
TIME = st.integers(0, 24).map(lambda k: k * 0.25e-6)
IN_PORT = 1  # packets enter from h1's port; rules output to ports 2 and 3

ip_field = st.one_of(st.none(), st.sampled_from(IPS))
matches = st.builds(
    Match,
    ip_dst=ip_field,
    ip_src=ip_field,
    sport=st.one_of(st.none(), st.sampled_from(SPORTS)),
    mpls=st.one_of(st.none(), st.just(Match.NO_MPLS), st.just(7)),
)
actions = st.sampled_from([
    (Output(2),),
    (Output(3),),
    (SetField("ip_dst", IPS[2]), Output(3)),
    (SetField("sport", 443), SetField("ip_src", IPS[1]), Output(2), Output(3)),
    (PushMpls(7), Output(2)),
    (PopMpls(), SetField("dport", 22), Output(3)),
    (Group(1),),
    (ToController(), Output(2)),
    (ToController(),),
    (Drop(),),
])
rules = st.tuples(matches, actions, st.integers(0, 3), st.integers(1, 3))
packets = st.tuples(
    st.sampled_from(IPS), st.sampled_from(IPS), st.sampled_from(SPORTS),
    st.one_of(st.none(), st.just(7)),
)
arrivals = st.lists(
    st.tuples(st.just("packet"), TIME, packets), min_size=2, max_size=10
)
changes = st.lists(st.one_of(
    st.tuples(st.just("install"), TIME, rules),
    st.tuples(st.just("remove_cookie"), TIME, st.integers(1, 3)),
    st.tuples(st.just("group"), TIME, st.sampled_from([2, 3])),
    st.tuples(st.just("crash"), TIME, st.none()),
    st.tuples(st.just("reboot"), TIME, st.none()),
), min_size=1, max_size=8)


def _fresh_classify(switch):
    """Reference ``_classify``: ignore the hint, apply afresh."""

    def classify(packet, in_port, entry=None, version=None):
        Switch._classify(switch, packet, in_port)

    return classify


def _run(initial, schedule, reference):
    reset_identity_counters()
    net = Network(linear(1, hosts_per_switch=3))
    sw = net.switch("s1")
    if reference:
        sw._classify = _fresh_classify(sw)
    sim = net.sim
    installed = []
    punts = []
    sw.connect_controller(
        lambda s, p, port: punts.append((sim.now, p.uid, p.ip_dst, p.sport, port))
    )

    def install(rule):
        match, acts, priority, cookie = rule
        entry = FlowEntry(match, list(acts), priority=priority, cookie=cookie)
        installed.append(entry)
        if sw.alive:
            sw.table.install(entry)

    def inject(spec):
        src, dst, sport, mpls = spec
        pkt = Packet(
            eth_src=mac(1), eth_dst=mac(2), ip_src=src, ip_dst=dst,
            sport=sport, dport=80, mpls=mpls, payload_size=64,
        )
        sw.receive(pkt, IN_PORT)

    def group(port):
        sw.table.install_group(
            GroupEntry(1, [[Output(port)], [SetField("ip_dst", IPS[0]), Output(2)]])
        )

    for rule in initial:
        install(rule)
    group(3)
    handlers = {
        "packet": inject,
        "install": install,
        "remove_cookie": lambda cookie: sw.table.remove_by_cookie(cookie),
        "group": group,
        "crash": lambda _: sw.crash(),
        "reboot": lambda _: (sw.reboot(), group(3)),  # controller re-sync
    }
    for kind, when, arg in schedule:
        sim.call_at(when, lambda h=handlers[kind], a=arg: h(a))
    net.run()
    lookups = sw.table.cache_hits + sw.table.cache_misses
    return {
        "trace": list(net.trace.records),
        "punts": punts,
        "counters": [(e.packet_count, e.byte_count, e.last_hit_s) for e in installed],
        "forwarded": sw.packets_forwarded,
        "punted": sw.packets_punted,
        "dead": sw.packets_dropped_dead,
    }, lookups


@settings(max_examples=150, deadline=None)
@given(initial=st.lists(rules, max_size=6), arrivals=arrivals, changes=changes)
def test_single_classify_matches_fresh_apply(initial, arrivals, changes):
    # arrivals first: at equal times a packet is received before the change
    schedule = arrivals + changes
    fast, fast_lookups = _run(initial, schedule, reference=False)
    ref, ref_lookups = _run(initial, schedule, reference=True)
    assert fast == ref
    # the fast path looks up once per reception, and again only after a
    # table change: never more often than the reference's two
    assert fast_lookups <= ref_lookups


def test_flowmod_inside_the_pipeline_delay_is_seen():
    # A higher-priority override lands 1 us into a packet's 2 us pipeline:
    # the packet must take the override, exactly as a fresh lookup would.
    initial = [(Match(ip_dst=IPS[1]), (Output(2),), 0, 1)]
    override = (Match(ip_dst=IPS[1]), (Output(3),), 5, 2)
    schedule = [
        ("packet", 0.0, (IPS[0], IPS[1], 80, None)),
        ("install", 1e-6, override),
    ]
    fast, fast_lookups = _run(initial, schedule, reference=False)
    ref, _ = _run(initial, schedule, reference=True)
    assert fast == ref
    fwd = [r for r in fast["trace"] if r.category == "switch.fwd"]
    assert [r["out_port"] for r in fwd] == [3]
    assert fast["counters"] == [(0, 0, -1.0), (1, fwd[0]["size"], 2e-6)]
    assert fast_lookups == 2  # on receive, and again after the flow-mod


def test_unchanged_table_costs_one_lookup_per_reception():
    initial = [(Match(ip_dst=IPS[1]), (Output(2),), 0, 1)]
    schedule = [
        ("packet", k * 1e-6, (IPS[0], IPS[1], 80, None)) for k in range(5)
    ]
    fast, fast_lookups = _run(initial, schedule, reference=False)
    ref, ref_lookups = _run(initial, schedule, reference=True)
    assert fast == ref
    assert (fast_lookups, ref_lookups) == (5, 10)
