"""Tests for resources, containers, and stores."""

import pytest

from repro.sim import (
    BoundedQueue,
    Container,
    Environment,
    FilterStore,
    Interrupt,
    PreemptiveResource,
    Preempted,
    PriorityResource,
    PriorityStore,
    Resource,
    Store,
)


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    active = []

    def user(env, res, tag):
        with res.request() as req:
            yield req
            active.append((tag, env.now))
            yield env.timeout(10)

    for tag in range(3):
        env.process(user(env, res, tag))
    env.run()
    # Two start at t=0; the third only after a release at t=10.
    assert active[:2] == [(0, 0), (1, 0)]
    assert active[2] == (2, 10)


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, res, tag, arrival):
        yield env.timeout(arrival)
        with res.request() as req:
            yield req
            order.append(tag)
            yield env.timeout(5)

    for tag, arrival in enumerate([0, 1, 2, 3]):
        env.process(user(env, res, tag, arrival))
    env.run()
    assert order == [0, 1, 2, 3]


def test_resource_zero_capacity_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_context_manager_releases_on_exception():
    env = Environment()
    res = Resource(env, capacity=1)
    got_it = []

    def crasher(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(1)
            raise ValueError("die")

    def waiter(env, res):
        with res.request() as req:
            yield req
            got_it.append(env.now)

    def supervisor(env):
        crash_proc = env.process(crasher(env, res))
        env.process(waiter(env, res))
        try:
            yield crash_proc
        except ValueError:
            pass

    env.process(supervisor(env))
    env.run()
    assert got_it == [1]


def test_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(100)

    def impatient(env, res):
        req = res.request()
        result = yield req | env.timeout(5)
        if req not in result:
            req.cancel()
            return "gave up"
        return "got it"

    env.process(holder(env, res))
    p = env.process(impatient(env, res))
    assert env.run(until=p) == "gave up"
    assert len(res.queue) == 0


def test_priority_resource_orders_queue():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder(env, res):
        with res.request(priority=0) as req:
            yield req
            yield env.timeout(10)

    def user(env, res, tag, priority):
        yield env.timeout(1)
        with res.request(priority=priority) as req:
            yield req
            order.append(tag)
            yield env.timeout(1)

    env.process(holder(env, res))
    env.process(user(env, res, "low", 5))
    env.process(user(env, res, "high", 1))
    env.process(user(env, res, "mid", 3))
    env.run()
    assert order == ["high", "mid", "low"]


def test_preemptive_resource_evicts_weaker_user():
    env = Environment()
    res = PreemptiveResource(env, capacity=1)
    record = []

    def weak(env, res):
        with res.request(priority=10) as req:
            try:
                yield req
                record.append(("weak acquired", env.now))
                yield env.timeout(100)
                record.append("weak finished")
            except Interrupt as intr:
                assert isinstance(intr.cause, Preempted)
                record.append(("weak preempted", env.now))

    def strong(env, res):
        yield env.timeout(5)
        with res.request(priority=1) as req:
            yield req
            record.append(("strong acquired", env.now))
            yield env.timeout(1)

    env.process(weak(env, res))
    env.process(strong(env, res))
    env.run()
    assert ("weak acquired", 0) in record
    assert ("weak preempted", 5) in record
    assert ("strong acquired", 5) in record
    assert "weak finished" not in record


def test_preemptive_resource_equal_priority_not_preempted():
    env = Environment()
    res = PreemptiveResource(env, capacity=1)
    record = []

    def first(env, res):
        with res.request(priority=5) as req:
            yield req
            yield env.timeout(10)
            record.append("first finished")

    def second(env, res):
        yield env.timeout(2)
        with res.request(priority=5) as req:
            yield req
            record.append(("second acquired", env.now))

    env.process(first(env, res))
    env.process(second(env, res))
    env.run()
    assert record == ["first finished", ("second acquired", 10)]


def test_container_get_blocks_until_level():
    env = Environment()
    tank = Container(env, capacity=100, init=0)
    got = []

    def consumer(env, tank):
        yield tank.get(30)
        got.append(env.now)

    def producer(env, tank):
        for _ in range(3):
            yield env.timeout(5)
            yield tank.put(10)

    env.process(consumer(env, tank))
    env.process(producer(env, tank))
    env.run()
    assert got == [15]
    assert tank.level == 0


def test_container_put_blocks_at_capacity():
    env = Environment()
    tank = Container(env, capacity=10, init=10)
    times = []

    def producer(env, tank):
        yield tank.put(5)
        times.append(env.now)

    def consumer(env, tank):
        yield env.timeout(7)
        yield tank.get(5)

    env.process(producer(env, tank))
    env.process(consumer(env, tank))
    env.run()
    assert times == [7]


def test_container_rejects_nonpositive_amounts():
    env = Environment()
    tank = Container(env, capacity=10, init=5)
    with pytest.raises(ValueError):
        tank.get(0)
    with pytest.raises(ValueError):
        tank.put(-1)


def test_container_init_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Container(env, capacity=5, init=6)


def test_store_fifo():
    env = Environment()
    store = Store(env)
    received = []

    def producer(env, store):
        for item in "abc":
            yield store.put(item)
            yield env.timeout(1)

    def consumer(env, store):
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert received == ["a", "b", "c"]


def test_store_get_blocks_when_empty():
    env = Environment()
    store = Store(env)
    times = []

    def consumer(env, store):
        yield store.get()
        times.append(env.now)

    def producer(env, store):
        yield env.timeout(9)
        yield store.put("x")

    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert times == [9]


def test_store_put_blocks_at_capacity():
    env = Environment()
    store = Store(env, capacity=1)
    done = []

    def producer(env, store):
        yield store.put(1)
        yield store.put(2)
        done.append(env.now)

    def consumer(env, store):
        yield env.timeout(4)
        yield store.get()

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert done == [4]


def test_filter_store_matches_predicate():
    env = Environment()
    store = FilterStore(env)
    got = []

    def consumer(env, store):
        item = yield store.get(lambda x: x % 2 == 0)
        got.append(item)

    def producer(env, store):
        for item in [1, 3, 4, 5]:
            yield store.put(item)

    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert got == [4]
    assert store.items == [1, 3, 5]


@pytest.mark.parametrize("kind", [Store, FilterStore, PriorityStore])
def test_interrupted_store_get_does_not_swallow_the_next_item(kind):
    # A waiter interrupted at t=1 withdraws its get: the item put at t=3
    # goes to the live consumer that asked at t=2, not to the dead one.
    env = Environment()
    store = kind(env)
    got = []

    def waiter(env, store):
        try:
            yield store.get()
        except Interrupt:
            got.append(("interrupted", env.now))

    def interrupter(env, victim):
        yield env.timeout(1)
        victim.interrupt()

    def consumer(env, store):
        yield env.timeout(2)
        got.append(((yield store.get()), env.now))

    def producer(env, store):
        yield env.timeout(3)
        yield store.put("A")

    victim = env.process(waiter(env, store))
    env.process(interrupter(env, victim))
    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert got == [("interrupted", 1), ("A", 3)]
    assert store._getters == [] and store.items == []


def test_priority_store_yields_smallest():
    env = Environment()
    store = PriorityStore(env)
    got = []

    def producer(env, store):
        for item in [5, 1, 3]:
            yield store.put(item)

    def consumer(env, store):
        yield env.timeout(1)
        for _ in range(3):
            got.append((yield store.get()))

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert got == [1, 3, 5]


def test_resource_count_property():
    env = Environment()
    res = Resource(env, capacity=3)

    def user(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(5)

    for _ in range(2):
        env.process(user(env, res))

    def checker(env, res):
        yield env.timeout(1)
        assert res.count == 2
        assert res.capacity == 3
        yield env.timeout(10)
        assert res.count == 0

    env.process(checker(env, res))
    env.run()


# -- BoundedQueue ----------------------------------------------------------

def test_bounded_queue_reject_policy():
    env = Environment()
    q = BoundedQueue(env, capacity=2, policy="reject")
    assert q.offer("a") and q.offer("b")
    assert q.full
    assert not q.offer("c")
    assert (q.offered, q.accepted, q.rejected, q.shed) == (3, 2, 1, 0)
    assert len(q) == 2


def test_bounded_queue_shed_oldest_policy():
    env = Environment()
    shed_log = []
    q = BoundedQueue(env, capacity=2, policy="shed-oldest",
                     on_shed=lambda item, waited: shed_log.append(item))
    assert q.offer("a") and q.offer("b") and q.offer("c")
    assert shed_log == ["a"]
    assert q.shed == 1
    assert q.pop()[0] == "b"
    assert q.pop()[0] == "c"
    assert q.pop() is None


def test_bounded_queue_reports_wait_times():
    env = Environment()
    q = BoundedQueue(env, capacity=4)

    def scenario(env):
        q.offer("a")
        yield env.timeout(3.0)
        q.offer("b")
        yield env.timeout(2.0)
        assert q.head_delay() == pytest.approx(5.0)
        item, waited = q.pop()
        assert (item, waited) == ("a", pytest.approx(5.0))
        item, waited = q.pop()
        assert (item, waited) == ("b", pytest.approx(2.0))

    env.process(scenario(env))
    env.run()


def test_bounded_queue_shed_head_counts_and_fires_hook():
    env = Environment()
    shed_log = []
    q = BoundedQueue(env, capacity=2,
                     on_shed=lambda item, waited: shed_log.append(item))
    q.offer("a")
    assert q.shed_head() == ("a", 0.0)
    assert q.shed == 1
    assert shed_log == ["a"]
    assert q.shed_head() is None


def test_bounded_queue_get_waits_for_offer():
    env = Environment()
    q = BoundedQueue(env, capacity=2)
    got = []

    def consumer(env):
        item, waited = yield q.get()
        got.append((item, waited, env.now))

    def producer(env):
        yield env.timeout(4.0)
        assert q.offer("x")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    # Handed straight to the waiting getter: zero queueing delay.
    assert got == [("x", 0.0, 4.0)]
    assert q.accepted == 1 and len(q) == 0


def test_bounded_queue_get_immediate_when_nonempty():
    env = Environment()
    q = BoundedQueue(env, capacity=2)
    q.offer("x")

    def consumer(env):
        item, waited = yield q.get()
        assert item == "x" and waited == 0.0

    env.process(consumer(env))
    env.run()


def test_bounded_queue_validation():
    env = Environment()
    with pytest.raises(ValueError):
        BoundedQueue(env, capacity=0)
    with pytest.raises(ValueError):
        BoundedQueue(env, capacity=1, policy="drop-newest")
