"""Restoring pickled slotted records, whichever form they were pickled in.

The protocol's hot records (``LevelState``, ``ChildInfo``, ``Message``) are
``@dataclass(slots=True)``: they have no per-instance ``__dict__``.  A record
pickled since then carries its slot values, as the ``(None, {slot: value})``
pair that ``object.__reduce_ex__`` produces (or as the mapping the class's
own ``__getstate__`` returns).  A record pickled while it still had a
``__dict__`` carries that dict instead.  :func:`set_slot_state` accepts both,
so snapshots written before the records were slotted still restore.
"""

from __future__ import annotations

from typing import Any, Mapping, Tuple, Union

SlotState = Union[Mapping[str, Any], Tuple[Any, Mapping[str, Any]]]


def set_slot_state(record: Any, state: SlotState) -> None:
    """``__setstate__`` of a slotted record: slot values or an old ``__dict__``.

    A name that is not a slot of the record raises :class:`AttributeError`:
    a blob carrying state the class no longer has fails loudly instead of
    restoring a record that silently lacks it.
    """
    if isinstance(state, tuple):
        _, state = state
    for name, value in state.items():
        object.__setattr__(record, name, value)
