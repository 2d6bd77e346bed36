"""Base class for simulated protocol participants.

A :class:`Process` dispatches each incoming message by its kind and can set
one-shot timers.  Subclasses implement protocol behaviour by
declaring a class-level :attr:`Process.handlers` table (message kind →
method name) or by overriding :meth:`Process.handle_message`.
"""

from __future__ import annotations

from typing import Any, Callable, ClassVar, Dict

from repro.sim.engine import ScheduledEvent, SimulationEngine
from repro.sim.messages import Message
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network


class Process:
    """A named participant attached to a :class:`~repro.sim.network.Network`."""

    #: Message kind → name of the method that handles it.  One table per
    #: class, not per process.  The method is looked up by name on every
    #: delivery, so a wrapper installed on the class after the processes
    #: exist (a tracer, a test spy) is the handler that runs.
    handlers: ClassVar[Dict[str, str]] = {}

    def __init__(self, process_id: str, network: Network) -> None:
        self.process_id = process_id
        self.network = network
        self.engine: SimulationEngine = network.engine
        self.metrics: MetricsRegistry = network.metrics
        self._alive = True
        network.register(self)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def alive(self) -> bool:
        """False once the process has crashed or left."""
        return self._alive

    def crash(self) -> None:
        """Crash the process: its timers and all future messages are dropped."""
        self._alive = False
        self.network.crash(self.process_id)

    def shutdown(self) -> None:
        """Graceful stop (controlled departure): timers dropped, unregistered."""
        self._alive = False
        self.network.unregister(self.process_id)

    # ------------------------------------------------------------------ #
    # Messaging
    # ------------------------------------------------------------------ #

    def send(self, recipient: str, kind: str, **payload: Any) -> None:
        """Send a protocol message to ``recipient``."""
        if self._alive:
            self.network.send(Message(self.process_id, recipient, kind,
                                      payload))

    def handle_message(self, message: Message) -> None:
        """Dispatch an incoming message to the method its kind names."""
        if not self._alive:
            return
        name = self.handlers.get(message.kind)
        if name is None:
            self.on_unhandled(message)
            return
        getattr(self, name)(message)

    def on_unhandled(self, message: Message) -> None:
        """Hook for messages without a registered handler (default: count)."""
        self.metrics.increment("process.unhandled_messages")

    # ------------------------------------------------------------------ #
    # Timers
    # ------------------------------------------------------------------ #

    def set_timer(self, delay: float,
                  callback: Callable[[], None]) -> ScheduledEvent:
        """Run ``callback`` once after ``delay`` (unless the process dies)."""

        def guarded() -> None:
            if self._alive:
                callback()

        return self.engine.schedule(delay, guarded)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"{type(self).__name__}({self.process_id!r})"
