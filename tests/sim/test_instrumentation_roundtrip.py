"""Round-trip regression tests for the instrumentation live-flag.

The rearchitected run loop dispatches through a zero-overhead fast path
whenever no tracer, profiler, debug mode, or scheduling hook is installed,
and routes through the instrumented :meth:`Environment.step` otherwise.
The switch is the one-cell ``_live`` flag that every hook mutator must
keep current. These tests pin the round-trip property: installing any
hook flips the environment to the instrumented tier, and removing it
restores the fast path *exactly* — same flag, same tracer list, no
leftover instrumentation tax — including when the toggle happens mid-run.
"""

from __future__ import annotations

from repro.observability import SimProfiler
from repro.sim import Environment


def drain(env, horizon=5.0):
    def body():
        while True:
            yield env.timeout(1.0)

    env.process(body())
    env.run(until=horizon)


def test_fresh_environment_is_uninstrumented():
    env = Environment()
    assert env._instrumented is False
    assert env._tracers == []
    assert env.tracer is None
    assert env.profiler is None


def test_add_remove_tracer_round_trip():
    env = Environment()
    fn = lambda t, eid, kind: None  # noqa: E731
    env.add_tracer(fn)
    assert env._instrumented is True
    assert env._tracers == [fn]
    env.remove_tracer(fn)
    assert env._instrumented is False
    assert env._tracers == []


def test_multiple_tracers_stay_instrumented_until_last_removed():
    env = Environment()
    a = lambda t, eid, kind: None  # noqa: E731
    b = lambda t, eid, kind: None  # noqa: E731
    env.add_tracer(a)
    env.add_tracer(b)
    env.remove_tracer(a)
    assert env._instrumented is True
    assert env._tracers == [b]
    env.remove_tracer(b)
    assert env._instrumented is False


def test_tracer_property_setter_round_trip():
    env = Environment()
    fn = lambda t, eid, kind: None  # noqa: E731
    env.tracer = fn
    assert env._instrumented is True
    assert env.tracer is fn
    env.tracer = None
    assert env._instrumented is False
    assert env._tracers == []


def test_profiler_setter_round_trip():
    env = Environment()
    env.profiler = SimProfiler()
    assert env._instrumented is True
    env.profiler = None
    assert env._instrumented is False


def test_debug_setter_round_trip():
    env = Environment()
    env.debug = True
    assert env._instrumented is True
    env.debug = False
    assert env._instrumented is False


def test_schedule_hook_round_trip():
    env = Environment()
    env._on_schedule = lambda event: None
    assert env._instrumented is True
    env._on_schedule = None
    assert env._instrumented is False


def test_debug_constructor_flag_instruments():
    assert Environment(debug=True)._instrumented is True


def test_traced_block_round_trip():
    events = []
    with Environment.traced(lambda t, eid, kind: events.append(kind)):
        env = Environment()
        assert env._instrumented is True
        drain(env)
    assert events  # the block's environments fed the tracer
    # Environments created after the block are back on the fast path.
    after = Environment()
    assert after._instrumented is False
    assert Environment._default_tracers == ()


def test_nested_traced_blocks_stack_and_unwind():
    outer, inner = [], []
    with Environment.traced(lambda t, eid, kind: outer.append(kind)):
        with Environment.traced(lambda t, eid, kind: inner.append(kind)):
            env = Environment()
            assert len(env._tracers) == 2
            drain(env)
        assert len(Environment._default_tracers) == 1
    assert Environment._default_tracers == ()
    assert outer == inner  # both hooks saw the same dispatch stream


def test_profiled_block_round_trip():
    with Environment.profiled(SimProfiler()) as prof:
        env = Environment()
        assert env.profiler is prof
        assert env._instrumented is True
        drain(env)
    assert Environment._default_profiler is None
    assert Environment()._instrumented is False
    assert prof.dispatches > 0


def test_live_flag_identity_is_stable():
    # run() pre-binds the _live cell once; mutators must update the cell
    # in place, never rebind it, or a running loop would consult a stale
    # flag forever.
    env = Environment()
    cell = env._live
    env.add_tracer(lambda t, eid, kind: None)
    env.debug = True
    env.profiler = SimProfiler()
    env.tracer = None
    env.profiler = None
    env.debug = False
    assert env._live is cell
    assert env._instrumented is False


def test_mid_run_round_trip_restores_fast_path():
    # Toggle instrumentation twice inside one run(): the traced windows
    # must capture exactly their dispatches and the untraced gaps none,
    # while the worker's wake-up times stay unperturbed.
    env = Environment()
    seen = []
    fn = lambda t, eid, kind: seen.append(t)  # noqa: E731
    times = []

    def work():
        for _ in range(8):
            yield env.timeout(1.0)
            times.append(env.now)

    def toggler():
        yield env.timeout(1.5)
        env.add_tracer(fn)
        yield env.timeout(2.0)
        env.remove_tracer(fn)
        assert env._instrumented is False
        yield env.timeout(2.0)
        env.add_tracer(fn)
        yield env.timeout(1.0)
        env.remove_tracer(fn)

    env.process(work())
    env.process(toggler())
    env.run()
    assert times == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    assert env._instrumented is False
    assert env._tracers == []
    # Traced windows were (1.5, 3.5] and (5.5, 6.5]: worker timeouts at
    # 2, 3 and 6, plus the toggler's own timeouts at 3.5 and 6.5.
    assert [t for t in seen if t == int(t)] == [2.0, 3.0, 6.0]


def test_mid_run_profiler_round_trip():
    env = Environment()
    prof = SimProfiler()

    def work():
        for _ in range(6):
            yield env.timeout(1.0)

    def toggler():
        yield env.timeout(2.5)
        env.profiler = prof
        yield env.timeout(2.0)
        env.profiler = None

    env.process(work())
    env.process(toggler())
    env.run()
    assert env._instrumented is False
    # Profiled window (2.5, 4.5]: worker timeouts at 3, 4 and the toggler's.
    assert prof.dispatches == 3
