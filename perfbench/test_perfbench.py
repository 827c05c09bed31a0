"""Tests of the benchmark itself: span arithmetic, wrapper hygiene and
exact repetition of counts at a reduced size.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from layers import PER_LAYER, PROBES, Tracer, span_stats  # noqa: E402
from repro.net.network import Network  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_restore_puts_back_the_same_objects():
    before = {(cls, attr): vars(cls)[attr] for _n, cls, attr, _k in PROBES}
    init = vars(Network)["__init__"]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(vars(cls)[attr] is not fn for (cls, attr), fn in before.items())
        assert vars(Network)["__init__"] is not init
    finally:
        tracer.restore()
    assert all(vars(cls)[attr] is fn for (cls, attr), fn in before.items())
    assert vars(Network)["__init__"] is init


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    outer, inner = tr.name_id("outer"), tr.name_id("inner")
    tr.begin()
    a = tr.open(outer)          # outer: 0 .. 10
    clock.now = 1.0
    b = tr.open(inner)          # inner: 1 .. 4
    clock.now = 4.0
    tr.close(b)
    clock.now = 6.0
    c = tr.open(inner)          # inner: 6 .. 7
    clock.now = 7.0
    tr.close(c)
    clock.now = 10.0
    tr.close(a)
    tr.end()
    st = span_stats(tr)
    assert st["outer"].total_s == pytest.approx(10.0)
    assert st["outer"].self_s == pytest.approx(6.0)
    assert st["inner"].calls == 2
    assert st["inner"].self_s == pytest.approx(4.0)
    assert tr.parent[b] == a and tr.parent[c] == a and tr.parent[a] == -1


def test_generator_span_sums_its_resumptions():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    gen_id, child_id = tr.name_id("gen"), tr.name_id("child")

    def body():
        clock.now += 1.0                 # first resumption: 1 s of own work
        got = yield "wait-1"
        i = tr.open(child_id)            # second: 2 s of child, 0.5 s own
        clock.now += 2.0
        tr.close(i)
        clock.now += 0.5
        yield got
        clock.now += 3.0                 # third: 3 s of own work
        return "done"

    tr.begin()
    wrapped = tr.resumed(gen_id, body())
    assert next(wrapped) == "wait-1"
    clock.now += 100.0                   # time between resumptions is not the span's
    assert wrapped.send("x") == "x"
    clock.now += 100.0
    with pytest.raises(StopIteration) as stop:
        wrapped.send(None)
    assert stop.value.value == "done"
    tr.end()
    st = span_stats(tr)
    assert st["gen"].calls == 3 and st["gen"].groups == 1
    assert st["gen"].total_s == pytest.approx(6.5)
    assert st["gen"].self_s == pytest.approx(4.5)
    assert st["child"].total_s == pytest.approx(2.0)


def test_generator_span_forwards_thrown_exceptions():
    tr = Tracer(clock=FakeClock())
    gid = tr.name_id("gen")

    def body():
        try:
            yield 1
        except KeyError:
            return "caught"

    wrapped = tr.resumed(gid, body())
    next(wrapped)
    with pytest.raises(StopIteration) as stop:
        wrapped.throw(KeyError("k"))
    assert stop.value.value == "caught"
    assert tr.stack == [-1]


# -- exact repetition at a reduced size -------------------------------------
SMALL = {
    "sessions": "SessionsSize(k=4, clients=4, rounds=3, flaps=1)",
    "bulk": "BulkSize(channels=2, transfer_bytes=100_000, echoes=20)",
    "hybrid": "HybridSize(k=4, channels=200, sample_rate=0.05)",
}

_CHILD = textwrap.dedent("""
    import json, sys
    sys.path[:0] = [{src!r}, {here!r}]
    import workloads as W
    from layers import PER_LAYER, Tracer, layer_metrics
    size = W.{size}
    wl = W.WORKLOADS[{name!r}]
    tracer = Tracer()
    if {traced}:
        tracer.install()
        trial = wl.trial({seed}, size, window=tracer)
        tracer.restore()
        values = layer_metrics(tracer, 1.0)
        counts = {{k: values[k] for k, unit in PER_LAYER if unit != "s"
                   and not k.startswith("bench.")}}
    else:
        trial = wl.trial({seed}, size)
        counts = {{}}
    print(json.dumps({{"counts": counts, "sim": trial.sim, "digest": trial.digest,
                      "errors": trial.errors, "failed": trial.failed}}))
""")


def _fresh_trial(name: str, seed: int, traced: bool) -> dict:
    code = _CHILD.format(src=str(HERE.parent / "src"), here=str(HERE),
                         size=SMALL[name], name=name, seed=seed, traced=traced)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_and_sim_metrics_repeat_exactly(name):
    first = _fresh_trial(name, seed=3, traced=True)
    again = _fresh_trial(name, seed=3, traced=True)
    other = _fresh_trial(name, seed=4, traced=True)
    plain = _fresh_trial(name, seed=3, traced=False)
    assert not first["errors"] and first["failed"] == 0
    assert first["counts"]["sim.events"] > 0
    assert first["counts"] == again["counts"]
    assert first["sim"] == again["sim"] and first["digest"] == again["digest"]
    assert first["counts"] != other["counts"]
    assert first["sim"] != other["sim"]
    # the wrappers do not change what is simulated
    assert plain["sim"] == first["sim"] and plain["digest"] == first["digest"]


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
