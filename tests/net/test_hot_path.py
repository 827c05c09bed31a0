"""The per-hop cost contract of the packet data plane.

Three promises the hot path keeps while it cuts host cost:

* an emitted packet is a snapshot built through the constructor, so header
  values a ``SetField`` rewrote are range-checked there, and later actions
  in the same list cannot change it;
* a switch looks up each packet once per reception;
* the simulation does the same work as before: the kernel events, trace
  records and per-category counts of a seeded MIC echo are pinned.
"""

import collections
import itertools

import pytest

from repro.core import channel, controller, deploy_mic
from repro.net import (
    FlowEntry,
    FlowTable,
    Group,
    GroupEntry,
    Match,
    Network,
    Output,
    PushMpls,
    SetField,
    flowtable,
    ip,
    linear,
    mac,
    packet as packet_mod,
)
from repro.net.packet import Packet
from repro.net.switch import Switch
from repro.sim import Simulator


def _pkt(**kw):
    base = dict(
        eth_src=mac(1), eth_dst=mac(2), ip_src=ip(1), ip_dst=ip(2),
        sport=1000, dport=80, payload_size=10,
    )
    base.update(kw)
    return Packet(**base)


def _forward_through(actions):
    """Send one packet from h1 through s1 with ``actions`` installed."""
    net = Network(linear(1, hosts_per_switch=2))
    s1, h1, h2 = net.switch("s1"), net.host("h1"), net.host("h2")
    s1.table.install(FlowEntry(Match(ip_dst=h2.ip), actions))
    h1.send_packet(h1.make_packet(h2.ip, dport=80, payload_size=10))
    net.run()
    return net


# -- the snapshot copy keeps the constructor's checks ------------------------
@pytest.mark.parametrize(
    "action, message",
    [
        (SetField("sport", 70000), "sport out of range"),
        (SetField("dport", -1), "dport out of range"),
        (SetField("mpls", 1 << 32), "mpls label out of range"),
        (SetField("mpls", -5), "mpls label out of range"),
        (PushMpls(1 << 32), "mpls label out of range"),
    ],
)
def test_forwarding_an_out_of_range_rewrite_raises(action, message):
    with pytest.raises(ValueError, match=message):
        _forward_through([action, Output(2)])


def test_in_range_rewrite_forwards():
    net = _forward_through([SetField("sport", 0xFFFF), SetField("mpls", 7), Output(2)])
    fwd = net.trace.by_category("switch.fwd")
    assert [r["mpls"] for r in fwd] == [7]


def test_out_of_range_rewrite_raises_in_a_group_bucket():
    table = FlowTable()
    table.install_group(GroupEntry(1, [[SetField("sport", 1 << 16), Output(2)]]))
    table.install(FlowEntry(Match(), [Group(1)]))
    with pytest.raises(ValueError, match="sport out of range"):
        table.apply(_pkt(), 1)


def test_emission_is_a_snapshot_of_the_header_at_output_time():
    table = FlowTable()
    table.install(FlowEntry(Match(), [
        Output(1),
        SetField("ip_dst", ip(9)), SetField("sport", 7), PushMpls(5),
        Output(2),
        SetField("ip_dst", ip(10)),
        Output(3),
    ]))
    pkt = _pkt()
    uid, tag = pkt.uid, pkt.content_tag
    emissions, _ctrl, _entry = table.apply(pkt, 4)
    (p1, first), (p2, second), (p3, third) = emissions
    assert (p1, p2, p3) == (1, 2, 3)
    # later rewrites in the same action list left earlier emissions alone
    assert (first.ip_dst, first.sport, first.mpls) == (ip(2), 1000, None)
    assert (second.ip_dst, second.sport, second.mpls) == (ip(9), 7, 5)
    assert (third.ip_dst, third.sport, third.mpls) == (ip(10), 7, 5)
    # the first emission keeps the uid; extra ones are new packets on the
    # wire with fresh uids, all carrying the same content
    assert first.uid == uid
    assert len({first.uid, second.uid, third.uid}) == 3
    assert {first.content_tag, second.content_tag, third.content_tag} == {tag}
    # and none of them aliases the live packet
    pkt.ip_dst = ip(11)
    assert ip(11) not in (first.ip_dst, second.ip_dst, third.ip_dst)


def test_copy_carries_every_field():
    pkt = _pkt(proto="udp", mpls=3, ttl=9, payload="x", created_at=1.5)
    same = pkt.copy(fresh_identity=False)
    assert same == pkt and same is not pkt
    fresh = pkt.copy()
    assert fresh.uid != pkt.uid
    fresh.uid = pkt.uid
    assert fresh == pkt


def test_rewrite_count_follows_a_replaced_action_list():
    entry = FlowEntry(Match(), [SetField("sport", 1), Output(1)])
    assert entry.rewrites == 1
    entry.actions = [SetField("sport", 1), PushMpls(3), Output(1)]
    assert entry.rewrites == 2


# -- exact work counters on a seeded MIC echo --------------------------------
MESSAGE = b"m" * 300

#: pinned from the implementation that looked every packet up twice; the
#: single-lookup path must simulate exactly the same run
PINNED_EVENTS = 269
PINNED_CATEGORIES = {
    "ctrl.packet_in": 1,
    "host.rx": 16,
    "host.tx": 16,
    "link.tx": 100,
    "mic.establish": 1,
    "switch.flowmod": 11,
    "switch.fwd": 83,
    "switch.miss": 1,
}


def _reset_id_counters():
    packet_mod._uid_counter = itertools.count(1)
    packet_mod._tag_counter = itertools.count(1)
    flowtable._entry_counter = itertools.count(1)
    channel._channel_ids = itertools.count(1)
    controller._group_ids = itertools.count(1)
    controller._cookie_ids = itertools.count(0x4D49_0000)


def test_mic_echo_work_counters(monkeypatch):
    """fat_tree(4), 3 MNs and a decoy: one lookup per switch reception, and
    the same kernel events and trace records as before."""
    _reset_id_counters()
    counts = collections.Counter()
    receive, step = Switch.receive, Simulator.step

    def counted_receive(self, pkt, in_port):
        counts["rx"] += 1
        return receive(self, pkt, in_port)

    def counted_step(self):
        counts["events"] += 1
        return step(self)

    monkeypatch.setattr(Switch, "receive", counted_receive)
    monkeypatch.setattr(Simulator, "step", counted_step)

    dep = deploy_mic(seed=7)
    server = dep.server("h16", 80)
    alice = dep.endpoint("h1")

    def client():
        stream = yield from alice.connect("h16", service_port=80, n_mns=3, decoys=1)
        for _ in range(3):
            stream.send(MESSAGE)
            yield from stream.recv_exactly(len(MESSAGE))

    def srv():
        stream = yield server.accept()
        for _ in range(3):
            data = yield from stream.recv_exactly(len(MESSAGE))
            stream.send(data)

    dep.sim.process(client())
    dep.sim.process(srv())
    dep.run_for(2.0)

    lookups = sum(
        sw.table.cache_hits + sw.table.cache_misses for sw in dep.net.switches()
    )
    assert counts["rx"] == 84
    assert lookups == counts["rx"]
    assert counts["events"] == PINNED_EVENTS
    assert len(dep.net.trace) == sum(PINNED_CATEGORIES.values())
    categories = collections.Counter(r.category for r in dep.net.trace.records)
    assert dict(categories) == PINNED_CATEGORIES
