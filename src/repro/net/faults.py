"""Typed fault hierarchy of the real-network backend.

Everything the network runtime can fail with derives from :class:`NetError`,
so callers distinguish transport faults from protocol bugs with one
``except`` clause — and the three leaf types tell them whether to retry
(timeout), give up on the peer (unreachable) or treat the stream as torn
(protocol).
"""

from __future__ import annotations


class NetError(RuntimeError):
    """Base of every real-network backend fault."""


class NetTimeoutError(NetError):
    """A bounded wait (loop start, quiescence, join acknowledgement)
    exceeded its deadline."""


class PeerUnreachableError(NetError):
    """A peer's endpoint refused connections past the retry budget."""


class NetProtocolError(NetError):
    """A frame stream was torn: bad magic, implausible length or CRC
    mismatch.  The connection is closed rather than resynchronized."""


class ConditionSpecError(NetError, ValueError):
    """A network-condition spec (mapping or ``--conditions`` string) is
    malformed: unknown key, out-of-range probability, bad latency model.
    Also a ``ValueError`` so engine-option validation reports it through
    the standard ``SystemSpec`` rejection path."""
