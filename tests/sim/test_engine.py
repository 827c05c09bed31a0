"""Unit tests for the DES kernel."""

import pytest

from repro.sim import AllOf, AnyOf, Interrupt, SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.call_later(3.0, lambda: order.append("c"))
    sim.call_later(1.0, lambda: order.append("a"))
    sim.call_later(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.call_later(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_call_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.call_later(1.0, lambda: sim.call_at(5.0, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [5.0]


def test_process_return_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        return 42

    proc = sim.process(worker())
    sim.run()
    assert proc.processed and proc.value == 42


def test_process_receives_timeout_value():
    sim = Simulator()
    got = []

    def worker():
        v = yield sim.timeout(1.0, value="payload")
        got.append(v)

    sim.process(worker())
    sim.run()
    assert got == ["payload"]


def test_process_waits_on_process():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return "child-result"

    def parent():
        result = yield sim.process(child())
        return ("parent-saw", result)

    p = sim.process(parent())
    sim.run()
    assert p.value == ("parent-saw", "child-result")
    assert sim.now == 2.0


def test_process_chain_runs_at_same_time_without_drift():
    sim = Simulator()

    def worker():
        for _ in range(5):
            yield sim.timeout(0)
        return sim.now

    p = sim.process(worker())
    sim.run()
    assert p.value == 0.0


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    woke = []

    def waiter():
        v = yield gate
        woke.append((sim.now, v))

    sim.process(waiter())
    sim.call_later(4.0, lambda: gate.succeed("opened"))
    sim.run()
    assert woke == [(4.0, "opened")]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_process():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter())
    sim.call_later(1.0, lambda: gate.fail(ValueError("boom")))
    sim.run()
    assert caught == ["boom"]


def test_yield_already_processed_event():
    sim = Simulator()
    done = sim.event()
    done.succeed("early")
    results = []

    def late_waiter():
        yield sim.timeout(5.0)
        v = yield done  # already processed by now
        results.append((sim.now, v))

    sim.process(late_waiter())
    sim.run()
    assert results == [(5.0, "early")]


def test_interrupt_delivers_cause():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as i:
            log.append((sim.now, i.cause))

    p = sim.process(sleeper())
    sim.call_later(3.0, lambda: p.interrupt("wakeup"))
    sim.run(until=p)
    assert log == [(3.0, "wakeup")]
    assert sim.now == 3.0  # the original 100 s timeout no longer holds us


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(0)

    p = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_uncaught_interrupt_fails_process():
    sim = Simulator()

    def sleeper():
        yield sim.timeout(100.0)

    p = sim.process(sleeper())
    sim.call_later(1.0, lambda: p.interrupt("die"))
    sim.run()
    assert p.processed and not p.ok
    assert isinstance(p.value, Interrupt)


def test_yield_non_event_is_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_all_of_collects_values():
    sim = Simulator()

    def worker():
        evs = [sim.timeout(t, value=t) for t in (3.0, 1.0, 2.0)]
        vals = yield AllOf(sim, evs)
        return vals

    p = sim.process(worker())
    sim.run()
    assert p.value == [3.0, 1.0, 2.0]
    assert sim.now == 3.0


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    ev = AllOf(sim, [])
    sim.run()
    assert ev.processed and ev.value == []


def test_any_of_returns_first():
    sim = Simulator()

    def worker():
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(9.0, value="slow")
        ev, val = yield AnyOf(sim, [fast, slow])
        return val

    p = sim.process(worker())
    sim.run(until=2.0)
    assert p.value == "fast"


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    fired = []
    sim.call_later(1.0, lambda: fired.append(1))
    sim.call_later(10.0, lambda: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0


def test_run_until_event_returns_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(2.0)
        return "finished"

    p = sim.process(worker())
    assert sim.run(until=p) == "finished"


def test_run_until_failed_event_raises():
    sim = Simulator()
    ev = sim.event()
    sim.call_later(1.0, lambda: ev.fail(RuntimeError("nope")))
    with pytest.raises(RuntimeError, match="nope"):
        sim.run(until=ev)


def test_run_until_event_that_cannot_fire():
    sim = Simulator()
    ev = sim.event()  # nobody will ever succeed it
    with pytest.raises(SimulationError):
        sim.run(until=ev)


def test_rng_streams_are_deterministic_and_independent():
    a1 = Simulator(seed=5).rng("x").random()
    a2 = Simulator(seed=5).rng("x").random()
    b = Simulator(seed=5).rng("y").random()
    c = Simulator(seed=6).rng("x").random()
    assert a1 == a2
    assert a1 != b
    assert a1 != c


def test_rng_same_stream_returns_same_object():
    sim = Simulator()
    assert sim.rng("s") is sim.rng("s")


def test_peek_and_step():
    sim = Simulator()
    sim.call_later(2.0, lambda: None)
    assert sim.peek() == 2.0
    assert sim.step() == 2.0
    assert sim.peek() == float("inf")
    with pytest.raises(SimulationError):
        sim.step()


def test_any_of_waits_for_a_pending_timeout():
    # A Timeout counts as triggered from creation, but it has not fired:
    # an event succeeded at t=1 must win over a 5 s timeout.
    sim = Simulator()
    ev = sim.event()
    sim.call_later(1.0, lambda: ev.succeed("ev"))
    race = sim.any_of([sim.timeout(5.0, "timeout"), ev])
    assert not race.triggered
    winner, value = sim.run(until=race)
    assert winner is ev and value == "ev"
    assert sim.now == 1.0


def test_any_of_fires_at_once_on_a_processed_child():
    sim = Simulator()
    done = sim.timeout(1.0, "done")
    sim.run()
    assert done.processed
    race = sim.any_of([sim.event(), done])
    assert race.triggered
    winner, value = sim.run(until=race)
    assert winner is done and value == "done"
    assert sim.now == 1.0


def test_call_later_returns_the_event_that_runs_the_callback():
    sim = Simulator()
    seen = []
    ev = sim.call_later(2.0, lambda: seen.append(sim.now))
    assert type(ev).__name__ == "Event"
    assert ev.triggered and not ev.processed
    ev.callbacks.append(lambda e: seen.append(("callback", e.value)))
    sim.run()
    assert seen == [2.0, ("callback", None)]
    assert ev.processed and ev.ok


def test_call_later_refuses_the_past():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-0.5, lambda: None)
    sim.call_later(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(0.5, lambda: None)
    assert sim.peek() == float("inf")


def test_call_later_reports_to_the_sanitizer():
    sim = Simulator()
    scheduled = []

    class Hook:
        def _on_schedule(self, event, delay):
            scheduled.append((event, delay))

    sim._sanitizer = Hook()
    ev = sim.call_later(0.25, lambda: None)
    assert scheduled == [(ev, 0.25)]
