"""Kernel conformance suite: the semantics the speed work must preserve.

These tests pin the *observable contract* of the DES kernel — dispatch
ordering, clock behavior, ``run`` termination modes, interrupt
semantics, and condition completion order — independently of how the
hot path is implemented. They were written against the pre-rearchitecture
kernel and must stay green through every perf refactor: if one of these
fails, the refactor changed behavior, not just speed.

Organized by contract area:

- ``TestDispatchOrder`` — same-time FIFO, priority ties, cross-time order
- ``TestClock`` — monotonicity, ``peek``, ``EmptySchedule`` edges
- ``TestRunModes`` — ``run()``, ``run(until=t)``, ``run(until=event)``
  equivalence and error cases
- ``TestCancellation`` — interrupts, stale wakeups, terminated processes
- ``TestConditions`` — ``all_of``/``any_of`` completion order and values
- ``TestDeterminism`` — bit-identical replay of a mixed workload
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AllOf, AnyOf, Environment, Event, Interrupt, Timeout
from repro.sim.environment import EmptySchedule
from repro.sim.events import _NORMAL, _URGENT


class TestDispatchOrder:
    def test_same_time_same_priority_is_fifo(self):
        """Events scheduled at one instant dispatch in insertion order."""
        env = Environment()
        order = []
        events = [env.event() for _ in range(8)]
        for i, ev in enumerate(events):
            ev.callbacks.append(lambda _e, i=i: order.append(i))
        # Trigger in insertion order; all land at t=0.
        for ev in events:
            ev.succeed()
        env.run()
        assert order == list(range(8))

    def test_urgent_beats_normal_at_same_time(self):
        env = Environment()
        order = []
        normal = env.event()
        normal.callbacks.append(lambda _e: order.append("normal"))
        urgent = env.event()
        urgent.callbacks.append(lambda _e: order.append("urgent"))
        # Schedule the normal event first, then the urgent one: priority
        # must still win over insertion order at the same timestamp.
        env._schedule(normal, priority=_NORMAL)
        normal._value = None
        env._schedule(urgent, priority=_URGENT)
        urgent._value = None
        env.run()
        assert order == ["urgent", "normal"]

    def test_priority_ties_fall_back_to_insertion_order(self):
        env = Environment()
        order = []
        for i in range(6):
            ev = env.event()
            ev.callbacks.append(lambda _e, i=i: order.append(i))
            env._schedule(ev, priority=_URGENT)
            ev._value = None
        env.run()
        assert order == list(range(6))

    def test_time_order_dominates_priority(self):
        """An urgent event later in time never jumps an earlier normal one."""
        env = Environment()
        order = []

        def late_urgent(env):
            yield env.timeout(2)
            victim.interrupt("late")  # urgent, but at t=2

        def early(env):
            yield env.timeout(1)
            order.append(("early", env.now))
            yield env.timeout(5)

        def victim_proc(env):
            try:
                yield env.timeout(10)
            except Interrupt as intr:
                order.append((intr.cause, env.now))

        victim = env.process(victim_proc(env))
        env.process(early(env))
        env.process(late_urgent(env))
        env.run()
        assert order == [("early", 1), ("late", 2)]

    def test_interrupt_preempts_pending_same_time_normal_events(self):
        """An interrupt scheduled at t jumps ahead of normal events still
        queued at t — but never ahead of ones already dispatched."""
        env = Environment()
        order = []

        def sleeper(env):
            try:
                yield env.timeout(10)
            except Interrupt:
                order.append("interrupted")

        def bystander(env):
            yield env.timeout(5)
            order.append("bystander")

        def interrupter(env, victim):
            yield env.timeout(5)
            victim.interrupt()

        victim = env.process(sleeper(env))
        # The interrupter's t=5 timeout has a lower event id than the
        # bystander's, so it dispatches first; the urgent interrupt it
        # schedules then beats the bystander's still-queued normal event.
        env.process(interrupter(env, victim))
        env.process(bystander(env))
        env.run()
        assert order == ["interrupted", "bystander"]

    def test_interrupt_cannot_preempt_already_dispatched_events(self):
        """Flip the creation order: once the bystander's timeout has been
        dispatched, the urgent interrupt lands after it."""
        env = Environment()
        order = []

        def sleeper(env):
            try:
                yield env.timeout(10)
            except Interrupt:
                order.append("interrupted")

        def bystander(env):
            yield env.timeout(5)
            order.append("bystander")

        def interrupter(env, victim):
            yield env.timeout(5)
            victim.interrupt()

        victim = env.process(sleeper(env))
        env.process(bystander(env))
        env.process(interrupter(env, victim))
        env.run()
        assert order == ["bystander", "interrupted"]


class TestClock:
    def test_clock_only_moves_at_dispatch(self):
        env = Environment()
        env.timeout(5)
        assert env.now == 0.0
        env.step()
        assert env.now == 5.0

    def test_clock_is_monotone_over_mixed_workload(self):
        env = Environment()
        seen = []

        def proc(env, d):
            yield env.timeout(d)
            seen.append(env.now)
            yield env.timeout(0)
            seen.append(env.now)

        for d in (5, 1, 3, 1, 0, 8):
            env.process(proc(env, d))
        env.run()
        assert seen == sorted(seen)

    def test_peek_returns_next_event_time_without_popping(self):
        env = Environment()
        env.timeout(7)
        env.timeout(3)
        assert env.peek() == 3.0
        assert env.peek() == 3.0  # idempotent
        assert env.now == 0.0  # did not advance

    def test_peek_empty_is_inf_and_step_raises(self):
        env = Environment()
        assert env.peek() == float("inf")
        with pytest.raises(EmptySchedule):
            env.step()

    def test_peek_sees_urgent_and_normal_alike(self):
        env = Environment()
        ev = env.event()
        env._schedule(ev, priority=_URGENT, delay=2.0)
        assert env.peek() == 2.0

    def test_dispatch_count_is_exact(self):
        env = Environment()
        for _ in range(5):
            env.timeout(1)
        env.run()
        assert env.dispatch_count == 5

    def test_initial_time_offsets_everything(self):
        env = Environment(initial_time=100.0)
        fired = []

        def proc(env):
            yield env.timeout(2.5)
            fired.append(env.now)

        env.process(proc(env))
        env.run()
        assert fired == [102.5]


class TestRunModes:
    @staticmethod
    def _workload(env, log):
        def proc(env, d, tag):
            yield env.timeout(d)
            log.append((tag, env.now))

        for i, d in enumerate((1, 2, 2, 4, 7)):
            env.process(proc(env, d, i))

    def test_until_time_and_until_event_agree_on_prefix(self):
        """Running to t=4 and running to the event firing at t=4 observe
        the identical dispatch prefix."""
        log_t, log_e = [], []

        env = Environment()
        self._workload(env, log_t)
        env.run(until=4)
        # until=t runs events strictly before t, then pins the clock at t.
        assert env.now == 4.0

        env2 = Environment()
        self._workload(env2, log_e)

        def marker(env):
            yield env.timeout(4)
            return "mark"

        assert env2.run(until=env2.process(marker(env2))) == "mark"
        assert env2.now == 4.0
        # until=t stops *before* t=4 events; until=event runs through the
        # marker, which was scheduled after the 4s workload timeout.
        assert log_t == [(0, 1.0), (1, 2.0), (2, 2.0)]
        assert log_e == log_t + [(3, 4.0)]

    def test_bounded_run_with_mid_run_tracer_matches_untraced_run(self):
        """A tracer added and removed mid-run switches dispatch tiers
        inside one bounded run without changing what the run does."""
        def bounded_run(toggle):
            env = Environment()
            log, seen = [], []
            self._workload(env, log)
            tracer = lambda t, eid, kind: seen.append(t)  # noqa: E731

            def toggler(env):
                yield env.timeout(1.5)
                if toggle:
                    env.add_tracer(tracer)
                yield env.timeout(1.0)
                if toggle:
                    env.remove_tracer(tracer)
                yield env.timeout(10.0)

            env.process(toggler(env))
            env.run(until=6)
            return env, log, seen

        plain, plain_log, _ = bounded_run(toggle=False)
        traced, traced_log, seen = bounded_run(toggle=True)
        assert traced.now == plain.now == 6.0
        assert traced.dispatch_count == plain.dispatch_count
        assert traced_log == plain_log == [
            (0, 1.0), (1, 2.0), (2, 2.0), (3, 4.0)]
        # Traced window (1.5, 2.5]: the two t=2 timeouts, their process
        # completions, and the toggler's own timeout at 2.5.
        assert seen == [2.0] * 4 + [2.5]
        assert traced._instrumented is False

    def test_until_time_with_no_event_at_t_still_sets_now(self):
        env = Environment()
        env.timeout(1)
        env.run(until=9.5)
        assert env.now == 9.5

    def test_until_in_the_past_raises(self):
        env = Environment(initial_time=5)
        with pytest.raises(ValueError):
            env.run(until=5)
        with pytest.raises(ValueError):
            env.run(until=4.999)

    def test_until_event_already_processed_returns_its_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)
            return 42

        p = env.process(proc(env))
        env.run()
        assert env.run(until=p) == 42

    def test_until_event_already_failed_raises_its_error(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1)
            raise ValueError("boom")

        def shield(env, target):
            try:
                yield target
            except ValueError:
                pass

        p = env.process(bad(env))
        env.process(shield(env, p))
        env.run()
        with pytest.raises(ValueError, match="boom"):
            env.run(until=p)

    def test_until_event_failure_mid_run_raises(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1)
            raise RuntimeError("mid-run")

        with pytest.raises(RuntimeError, match="mid-run"):
            env.run(until=env.process(bad(env)))

    def test_queue_dry_before_until_event_raises(self):
        env = Environment()
        with pytest.raises(RuntimeError, match="ran dry"):
            env.run(until=env.event())

    def test_run_without_until_drains_queue(self):
        env = Environment()
        log = []
        self._workload(env, log)
        env.run()
        assert len(log) == 5
        assert env.peek() == float("inf")

    def test_run_resumes_after_until(self):
        """Consecutive run(until=...) calls continue the same schedule."""
        env = Environment()
        log = []
        self._workload(env, log)
        env.run(until=3)
        mid = list(log)
        env.run()
        assert log[:len(mid)] == mid
        assert [tag for tag, _ in log] == [0, 1, 2, 3, 4]


class TestCancellation:
    def test_interrupt_delivers_cause_at_current_time(self):
        env = Environment()
        record = []

        def sleeper(env):
            try:
                yield env.timeout(50)
            except Interrupt as intr:
                record.append((env.now, intr.cause))

        def killer(env, victim):
            yield env.timeout(3)
            victim.interrupt("cancel")

        victim = env.process(sleeper(env))
        env.process(killer(env, victim))
        env.run()
        assert record == [(3.0, "cancel")]

    def test_stale_target_does_not_resume_twice(self):
        """The timeout the victim was waiting on still fires later; it
        must not wake the already-moved-on process a second time."""
        env = Environment()
        wakeups = []

        def sleeper(env):
            try:
                yield env.timeout(10)
                wakeups.append("timeout")
            except Interrupt:
                wakeups.append("interrupt")
            yield env.timeout(100)
            wakeups.append("second-sleep")

        def killer(env, victim):
            yield env.timeout(1)
            victim.interrupt()

        victim = env.process(sleeper(env))
        env.process(killer(env, victim))
        env.run()
        assert wakeups == ["interrupt", "second-sleep"]

    def test_interrupting_terminated_process_raises(self):
        env = Environment()

        def quick(env):
            yield env.timeout(1)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(RuntimeError, match="terminated"):
            p.interrupt()

    def test_self_interrupt_raises(self):
        env = Environment()
        errors = []

        def narcissist(env):
            try:
                env.active_process.interrupt()
            except RuntimeError as err:
                errors.append(str(err))
            yield env.timeout(1)

        env.process(narcissist(env))
        env.run()
        assert errors and "cannot interrupt itself" in errors[0]

    def test_uncaught_interrupt_kills_the_process(self):
        env = Environment()

        def sleeper(env):
            yield env.timeout(10)

        def killer(env, victim):
            yield env.timeout(1)
            victim.interrupt("die")

        victim = env.process(sleeper(env))
        env.process(killer(env, victim))
        with pytest.raises(Interrupt):
            env.run()
        assert not victim.is_alive


class TestConditions:
    def test_all_of_fires_when_last_completes(self):
        env = Environment()
        t1, t2, t3 = env.timeout(1, "a"), env.timeout(5, "b"), env.timeout(3, "c")
        done_at = []
        cond = env.all_of([t1, t2, t3])
        cond.callbacks.append(lambda _e: done_at.append(env.now))
        env.run()
        assert done_at == [5.0]
        assert cond.value == {t1: "a", t2: "b", t3: "c"}

    def test_all_of_value_preserves_constituent_order(self):
        env = Environment()
        # Completion order (3, 1, 2) differs from constituent order.
        ts = [env.timeout(3, "x"), env.timeout(1, "y"), env.timeout(2, "z")]
        cond = env.all_of(ts)
        env.run()
        assert list(cond.value.keys()) == ts
        assert list(cond.value.values()) == ["x", "y", "z"]

    def test_any_of_fires_at_first_completion(self):
        env = Environment()

        def worker(env, delay, tag):
            yield env.timeout(delay)
            return tag

        slow = env.process(worker(env, 9, "slow"))
        fast = env.process(worker(env, 2, "fast"))
        cond = env.any_of([slow, fast])
        done_at = []
        cond.callbacks.append(lambda _e: done_at.append(env.now))
        env.run()
        assert done_at == [2.0]
        # Only the fast process had completed when the condition fired.
        assert cond.value == {fast: "fast"}

    def test_any_of_collects_everything_triggered_at_fire_time(self):
        """Timeouts are *triggered at creation* (their value is known up
        front), so an any_of over timeouts collects all of them even
        though it fires at the earliest one. This is a long-standing
        kernel quirk the refactor must not change."""
        env = Environment()
        slow, fast = env.timeout(9, "slow"), env.timeout(2, "fast")
        assert slow.triggered and fast.triggered
        cond = env.any_of([slow, fast])
        done_at = []
        cond.callbacks.append(lambda _e: done_at.append(env.now))
        env.run()
        assert done_at == [2.0]
        assert cond.value == {slow: "slow", fast: "fast"}

    def test_any_of_same_time_tie_collects_both_completions(self):
        """Two processes completing at one instant: the condition fires
        on the first-scheduled completion, and by the time its dispatch
        runs both completions have triggered, so both are collected."""
        env = Environment()

        def worker(env, tag):
            yield env.timeout(4)
            return tag

        first = env.process(worker(env, "first"))
        second = env.process(worker(env, "second"))
        cond = env.any_of([second, first])
        env.run()
        assert cond.value == {first: "first", second: "second"}

    def test_empty_conditions_succeed_immediately(self):
        env = Environment()
        assert env.all_of([]).value == {}
        assert env.any_of([]).value == {}

    def test_all_of_fails_fast_on_first_failure(self):
        env = Environment()
        caught = []

        def bad(env):
            yield env.timeout(2)
            raise ValueError("broken")

        def waiter(env, cond):
            try:
                yield cond
            except ValueError as err:
                caught.append((env.now, str(err)))

        cond = env.all_of([env.timeout(10), env.process(bad(env))])
        env.process(waiter(env, cond))
        env.run()
        assert caught == [(2.0, "broken")]

    def test_operator_composition_matches_factories(self):
        env = Environment()
        a, b = env.timeout(1, "a"), env.timeout(2, "b")
        both = a & b
        either = env.timeout(3, "c") | env.timeout(4, "d")
        assert isinstance(both, AllOf)
        assert isinstance(either, AnyOf)
        env.run()
        assert both.value == {a: "a", b: "b"}

    def test_cross_environment_events_rejected(self):
        env, other = Environment(), Environment()
        with pytest.raises(ValueError, match="different environments"):
            env.all_of([env.timeout(1), other.timeout(1)])


class TestEventLifecycle:
    def test_succeed_twice_raises(self):
        env = Environment()
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError, match="already triggered"):
            ev.succeed(2)

    def test_fail_requires_exception_instance(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-0.001)

    def test_timeout_carries_value(self):
        env = Environment()
        got = []

        def proc(env):
            got.append((yield env.timeout(2, value="payload")))

        env.process(proc(env))
        env.run()
        assert got == ["payload"]

    def test_value_and_ok_before_trigger_raise(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(RuntimeError):
            ev.value
        with pytest.raises(RuntimeError):
            ev.ok


class TestDeterminism:
    @staticmethod
    def _mixed_run():
        env = Environment()
        log = []

        def worker(env, i):
            yield env.timeout(i % 5)
            log.append(("w", i, env.now))
            if i % 3 == 0:
                child = env.process(TestDeterminism._child(env, i, log))
                yield child
            yield env.timeout((i * 7) % 4)
            log.append(("done", i, env.now))

        for i in range(40):
            env.process(worker(env, i))
        env.run()
        return log, env.dispatch_count

    @staticmethod
    def _child(env, i, log):
        yield env.timeout(0.5)
        log.append(("c", i, env.now))

    def test_replay_is_bit_identical(self):
        first = self._mixed_run()
        second = self._mixed_run()
        assert first == second

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_fifo_holds_for_arbitrary_same_time_batches(self, seed):
        """Property: any batch of same-delay timeouts resumes processes
        in spawn order, whatever the delay value."""
        delay = (seed % 97) / 7.0
        env = Environment()
        order = []

        def proc(env, i):
            yield env.timeout(delay)
            order.append(i)

        for i in range(10):
            env.process(proc(env, i))
        env.run()
        assert order == list(range(10))
