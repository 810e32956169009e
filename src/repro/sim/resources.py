"""Contended resources: capacity-limited servers, levels, and object stores.

These model the shared entities of the paper's experiment domains — machine
slots in a cluster, upload capacity of a BitTorrent peer, function instances
in a FaaS pool, game-server CPU, and so on.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, Optional

from repro.sim.events import Event, Interrupt


class Preempted(Exception):
    """Cause attached to the interrupt a preempted user receives."""

    def __init__(self, by: Any, usage_since: float):
        super().__init__(by, usage_since)
        self.by = by
        self.usage_since = usage_since


class Request(Event):
    """A pending claim on one unit of a :class:`Resource`.

    Usable as a context manager so the unit is always released::

        with resource.request() as req:
            yield req
            ... use the resource ...
    """

    __slots__ = ("resource", "usage_since", "process")


    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        self.usage_since: Optional[float] = None
        #: The process that issued the request (preemption target).
        self.process = resource.env.active_process
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the unit if granted; withdraw the claim if still queued."""
        self.resource.release(self)


class PriorityRequest(Request):
    """A request with a priority (lower value = more important)."""

    __slots__ = ("priority", "preempt", "time")


    def __init__(self, resource: "Resource", priority: float = 0,
                 preempt: bool = True):
        self.priority = priority
        self.preempt = preempt
        self.time = resource.env.now
        super().__init__(resource)

    @property
    def key(self) -> tuple:
        # Non-preempting requests sort after preempting ones of equal priority.
        return (self.priority, self.time, not self.preempt)


class Resource:
    """A FIFO resource with fixed integer capacity."""

    def __init__(self, env, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self.users: list[Request] = []
        self.queue: list[Request] = []

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {len(self.users)}/{self._capacity} "
                f"used, {len(self.queue)} queued>")

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Units currently in use."""
        return len(self.users)

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> None:
        if request in self.users:
            self.users.remove(request)
            self._trigger_queue()
        elif request in self.queue:
            self.queue.remove(request)

    # -- internals ---------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self._grant(request)
        else:
            self.queue.append(request)

    def _grant(self, request: Request) -> None:
        self.users.append(request)
        request.usage_since = self.env.now
        request.succeed()

    def _trigger_queue(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            self._grant(self.queue.pop(0))


class PriorityResource(Resource):
    """A resource whose queue is ordered by request priority."""

    def __init__(self, env, capacity: int = 1):
        super().__init__(env, capacity)
        self._pq: list[tuple[tuple, int, PriorityRequest]] = []
        self._tiebreak = count()

    def request(self, priority: float = 0) -> PriorityRequest:  # type: ignore[override]
        return PriorityRequest(self, priority, preempt=False)

    def release(self, request: Request) -> None:
        if request in self.users:
            self.users.remove(request)
            self._trigger_queue()
        else:
            self._pq = [entry for entry in self._pq if entry[2] is not request]
            heapq.heapify(self._pq)

    def _do_request(self, request: PriorityRequest) -> None:  # type: ignore[override]
        if len(self.users) < self._capacity:
            self._grant(request)
        else:
            heapq.heappush(self._pq, (request.key, next(self._tiebreak), request))

    def _trigger_queue(self) -> None:
        while self._pq and len(self.users) < self._capacity:
            _, _, request = heapq.heappop(self._pq)
            self._grant(request)

    @property
    def queue(self):  # type: ignore[override]
        return [entry[2] for entry in sorted(self._pq)]

    @queue.setter
    def queue(self, value):  # pragma: no cover - base-class __init__ writes it
        pass


class PreemptiveResource(PriorityResource):
    """A priority resource where urgent requests evict less-urgent users."""

    def request(self, priority: float = 0,  # type: ignore[override]
                preempt: bool = True) -> PriorityRequest:
        return PriorityRequest(self, priority, preempt)

    def _do_request(self, request: PriorityRequest) -> None:
        if len(self.users) >= self._capacity and request.preempt:
            # Find the weakest current user; evict if strictly weaker.
            victim = max(
                (u for u in self.users if isinstance(u, PriorityRequest)),
                key=lambda u: u.key, default=None)
            if victim is not None and victim.key > request.key:
                self.users.remove(victim)
                proc = getattr(victim, "process", None)
                cause = Preempted(by=request, usage_since=victim.usage_since)
                if proc is not None and proc.is_alive:
                    proc.interrupt(cause)
        super()._do_request(request)


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.amount = amount
        container._get_waiters.append(self)
        container._dispatch()


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.amount = amount
        container._put_waiters.append(self)
        container._dispatch()


class Container:
    """A continuous level between 0 and ``capacity``.

    Models divisible quantities: bandwidth tokens, monetary budget, battery.
    """

    def __init__(self, env, capacity: float = float("inf"), init: float = 0.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must lie in [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._get_waiters: list[ContainerGet] = []
        self._put_waiters: list[ContainerPut] = []

    @property
    def level(self) -> float:
        return self._level

    def get(self, amount: float) -> ContainerGet:
        return ContainerGet(self, amount)

    def put(self, amount: float) -> ContainerPut:
        return ContainerPut(self, amount)

    def _dispatch(self) -> None:
        # Hot loop: pre-bind the waiter lists and capacity; only _level
        # changes across iterations.
        put_waiters = self._put_waiters
        get_waiters = self._get_waiters
        capacity = self.capacity
        progress = True
        while progress:
            progress = False
            if put_waiters:
                put = put_waiters[0]
                if self._level + put.amount <= capacity:
                    put_waiters.pop(0)
                    self._level += put.amount
                    put.succeed()
                    progress = True
            if get_waiters:
                get = get_waiters[0]
                if self._level >= get.amount:
                    get_waiters.pop(0)
                    self._level -= get.amount
                    get.succeed()
                    progress = True


class BoundedQueue:
    """A capacity-bounded FIFO request queue with an explicit overflow policy.

    Unlike :class:`Store` (whose putters *block* when full), arrivals at a
    full BoundedQueue are never suspended: :meth:`offer` either rejects the
    newcomer (``policy="reject"``) or sheds the oldest queued item to make
    room (``policy="shed-oldest"``). Overflow is a visible, counted event —
    the backpressure signal an unbounded FIFO silently swallows.

    Consumers take items with the synchronous :meth:`pop` (e.g. a service
    draining its front-door queue when capacity frees up) or the event-based
    :meth:`get` (a dedicated consumer process); both report how long the
    item waited, which is exactly the signal CoDel-style shedding and
    brownout controllers feed on.
    """

    POLICIES = ("reject", "shed-oldest")

    def __init__(self, env, capacity: int, policy: str = "reject",
                 on_shed: Optional[Callable[[Any, float], None]] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if policy not in self.POLICIES:
            raise ValueError(f"policy must be one of {self.POLICIES}, "
                             f"got {policy!r}")
        self.env = env
        self.capacity = int(capacity)
        self.policy = policy
        #: Called as ``on_shed(item, waited_s)`` for every shed item.
        self.on_shed = on_shed
        #: Queued entries as (enqueued_at, item), oldest first.
        self._entries: list[tuple[float, Any]] = []
        self._getters: list[Event] = []
        self.offered = 0
        #: Offers that entered the queue (or went straight to a getter).
        self.accepted = 0
        self.rejected = 0
        #: Items dropped after acceptance (overflow or explicit shed_head).
        self.shed = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (f"<BoundedQueue {len(self._entries)}/{self.capacity} "
                f"policy={self.policy}>")

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def head_delay(self) -> float:
        """How long the oldest queued item has waited (0 if empty)."""
        if not self._entries:
            return 0.0
        return self.env.now - self._entries[0][0]

    def offer(self, item: Any) -> bool:
        """Enqueue ``item`` if the policy allows; False means rejected."""
        self.offered += 1
        if self._getters:
            # A consumer is already waiting: hand the item straight over.
            self.accepted += 1
            self._getters.pop(0).succeed((item, 0.0))
            return True
        if self.full:
            if self.policy == "reject":
                self.rejected += 1
                return False
            oldest_at, oldest = self._entries.pop(0)
            self.shed += 1
            if self.on_shed is not None:
                self.on_shed(oldest, self.env.now - oldest_at)
        self.accepted += 1
        self._entries.append((self.env.now, item))
        return True

    def pop(self) -> Optional[tuple[Any, float]]:
        """Dequeue the oldest item as ``(item, waited_s)``, or None."""
        if not self._entries:
            return None
        enqueued_at, item = self._entries.pop(0)
        return item, self.env.now - enqueued_at

    def shed_head(self) -> Optional[tuple[Any, float]]:
        """Drop the oldest item as a shed (counted, ``on_shed`` fired)."""
        popped = self.pop()
        if popped is None:
            return None
        self.shed += 1
        item, waited = popped
        if self.on_shed is not None:
            self.on_shed(item, waited)
        return popped

    def get(self) -> Event:
        """Event-based take: succeeds with ``(item, waited_s)``."""
        event = Event(self.env)
        popped = self.pop()
        if popped is not None:
            event.succeed(popped)
        else:
            self._getters.append(event)
        return event


class StoreGet(Event):
    __slots__ = ("_store",)

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        self._store = store
        store._getters.append(self)
        store._dispatch()

    def _on_cancel(self) -> None:
        if self in self._store._getters:
            self._store._getters.remove(self)


class FilterStoreGet(StoreGet):
    __slots__ = ("predicate",)

    def __init__(self, store: "FilterStore",
                 predicate: Callable[[Any], bool]):
        self.predicate = predicate
        super().__init__(store)


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._putters.append(self)
        store._dispatch()


class Store:
    """A FIFO queue of arbitrary items with optional capacity."""

    def __init__(self, env, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._getters: list[StoreGet] = []
        self._putters: list[StorePut] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)

    def _dispatch(self) -> None:
        # Hot loop: pre-bind waiter lists, items, and bound methods; the
        # lists mutate in place so the bindings stay live.
        putters = self._putters
        getters = self._getters
        items = self.items
        capacity = self.capacity
        do_put = self._do_put
        match = self._match
        progress = True
        while progress:
            progress = False
            while putters and len(items) < capacity:
                put = putters.pop(0)
                do_put(put)
                put.succeed()
                progress = True
            idx = 0
            while idx < len(getters):
                get = getters[idx]
                item = match(get)
                if item is _NO_MATCH:
                    idx += 1
                    continue
                getters.pop(idx)
                get.succeed(item)
                progress = True

    def _do_put(self, put: StorePut) -> None:
        self.items.append(put.item)

    def _match(self, get: StoreGet) -> Any:
        if self.items:
            return self.items.pop(0)
        return _NO_MATCH


_NO_MATCH = object()


class FilterStore(Store):
    """A store whose getters can take only items matching a predicate."""

    def get(self, predicate: Callable[[Any], bool] = lambda item: True  # type: ignore[override]
            ) -> FilterStoreGet:
        return FilterStoreGet(self, predicate)

    def _match(self, get: FilterStoreGet) -> Any:  # type: ignore[override]
        for idx, item in enumerate(self.items):
            if get.predicate(item):
                return self.items.pop(idx)
        return _NO_MATCH


class PriorityStore(Store):
    """A store that always yields its smallest item (heap-ordered)."""

    def _do_put(self, put: StorePut) -> None:
        heapq.heappush(self.items, put.item)

    def _match(self, get: StoreGet) -> Any:
        if self.items:
            return heapq.heappop(self.items)
        return _NO_MATCH
