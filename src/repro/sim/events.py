"""Event primitives for the discrete-event simulation kernel.

Events follow a small life-cycle: *pending* (created, not yet scheduled),
*triggered* (scheduled on the environment's queue with a value), and
*processed* (callbacks ran). Processes are themselves events that trigger
when their generator ends, so processes can wait on each other.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Generator, Iterable, Optional

#: Sentinel for "no value yet"; distinguishes an untriggered event from one
#: triggered with ``None``.
PENDING = object()


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries whatever the interrupter supplied.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    env:
        The environment that will dispatch this event's callbacks.
    """

    # Events are created per-dispatch on the kernel hot path; slots keep
    # them dict-free. ``__weakref__`` stays so sanitizers can key weak maps
    # on live events without pinning them.
    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused",
                 "__weakref__")

    #: Interned event-kind string handed to tracers/profilers. Kept as a
    #: class attribute so the instrumented dispatch path loads one shared
    #: string instead of rebuilding ``type(event).__name__`` per event.
    _kind = "Event"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._kind = sys.intern(cls.__name__)

    def __init__(self, env: "Environment"):  # noqa: F821 - forward ref
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: Set when a failure was given a chance to be handled.
        self._defused: bool = False

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.env.now}>"

    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded. Only meaningful once triggered."""
        if not self.triggered:
            raise RuntimeError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise RuntimeError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters receive ``exception``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another (triggered) event."""
        self._ok = event._ok
        self._value = event._value
        self.env._schedule(self)

    def _on_cancel(self) -> None:
        """Run when the waiting process is interrupted: leave any queue."""

    # -- composition -------------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Timeouts are the kernel's highest-volume allocation, so the
        # Event field init is flattened here (one frame, no super call)
        # and the event is born triggered.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._delay = delay
        env._schedule(self, _NORMAL, delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay}>"


class Initialize(Event):
    """Internal event that starts a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):  # noqa: F821
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env._schedule(self, priority=_URGENT)


#: Scheduling priorities: urgent events (process init, interrupts) dispatch
#: before normal events at the same timestamp.
_URGENT = 0
_NORMAL = 1


class Process(Event):
    """Wraps a generator; the de-facto "thread" of the simulation.

    The process is itself an event that triggers with the generator's return
    value when it finishes (or fails with the escaping exception), so other
    processes can ``yield proc`` to join it.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):  # noqa: F821
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event this process currently waits on.
        self._target: Optional[Event] = None
        Initialize(env, self)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process({name}) at t={self.env.now}>"

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        if self._target is not None:
            self._target._on_cancel()
        interrupt_ev = Event(self.env)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev._defused = True
        interrupt_ev.callbacks = [self._resume]
        self.env._schedule(interrupt_ev, priority=_URGENT)

    # -- internal ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the event's outcome."""
        self.env._active_process = self
        while True:
            # Ignore stale wakeups: if we were interrupted while waiting on
            # a target, the target may still fire later and must not resume
            # us a second time.
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self.env._schedule(self)
                break
            except BaseException as err:
                self._ok = False
                self._value = err
                self._defused = False
                self.env._schedule(self)
                break

            if not isinstance(next_event, Event):
                kind = type(next_event).__name__
                err = RuntimeError(
                    f"process yielded a non-event ({kind}); yield Timeout, "
                    "Process, Resource requests, or other Event instances")
                # Crash the process with a clear error.
                try:
                    self._generator.throw(err)
                except StopIteration as stop:
                    self._ok = True
                    self._value = stop.value
                except BaseException as err2:
                    self._ok = False
                    self._value = err2
                self.env._schedule(self)
                break

            if next_event.callbacks is not None:
                # Not yet processed: subscribe and go to sleep.
                next_event.callbacks.append(self._resume_if_target)
                self._target = next_event
                break
            # Already-processed event: loop immediately with its outcome.
            event = next_event

        self._target = None if not self.is_alive else self._target
        self.env._active_process = None

    def _resume_if_target(self, event: Event) -> None:
        """Callback wrapper that drops stale wakeups after interrupts."""
        if not self.is_alive:
            # Process already ended (e.g., crashed on interrupt).
            return
        if self._target is not event and not isinstance(
                event._value, Interrupt):
            return
        self._target = None
        self._resume(event)


class Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):  # noqa: F821
        super().__init__(env)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.env is not env:
                raise ValueError("events from different environments")
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _collect(self) -> dict:
        return {
            ev: ev._value
            for ev in self.events
            if ev.triggered and ev._ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(Condition):
    """Triggers when all constituent events have triggered."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class AnyOf(Condition):
    """Triggers as soon as any constituent event triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._collect())
