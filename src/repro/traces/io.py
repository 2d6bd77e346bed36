"""Reading and writing trace files (JSON lines, canonical form).

One JSON object per line, keys sorted, compact separators — so a trace that
round-trips through ``read`` and ``write`` is byte-identical, which is what
the hypothesis round-trip tests and the golden-trace fixtures rely on.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.traces.errors import TraceFormatError
from repro.traces.format import Trace


class UnwritableNumber(ValueError):
    """A JSON number :func:`dump_record` cannot have written.

    ``NaN``, ``Infinity``, a float literal that overflows (``1e999``) and an
    integer literal too long for ``int`` to convert.  Readers turn it into
    their own typed error at the parse boundary.
    """


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise UnwritableNumber(f"non-finite number {text}")
    return value


def load_record(text: str) -> Any:
    """Parse one JSON line the way :func:`dump_record` wrote it.

    Raises :class:`json.JSONDecodeError` for text that is not JSON and
    :class:`UnwritableNumber` for a number no canonical writer emits
    (loading it would fail later, untyped, on the canonical re-dump).
    """
    try:
        return json.loads(text, parse_constant=_finite_float,
                          parse_float=_finite_float)
    except (json.JSONDecodeError, UnwritableNumber):
        raise
    except ValueError as exc:  # int() refused a literal of too many digits
        raise UnwritableNumber("integer literal too long to convert") from exc


def dump_record(record: Dict[str, Any]) -> str:
    """One trace record as its canonical JSON line (no trailing newline)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def dumps_trace(trace: Trace) -> str:
    """The whole trace as canonical JSON-lines text."""
    return "".join(dump_record(record) + "\n" for record in trace.to_dicts())


def loads_trace(text: str) -> Trace:
    """Parse JSON-lines text into a validated :class:`Trace`."""
    records: List[Dict[str, Any]] = []
    numbers: List[int] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = load_record(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"invalid JSON: {exc.msg}",
                                   line=number) from exc
        except UnwritableNumber as exc:
            raise TraceFormatError(f"{exc}, which no trace writer emits",
                                   line=number) from exc
        if not isinstance(record, dict):
            raise TraceFormatError(
                f"each line must be a JSON object, got {type(record).__name__}",
                line=number)
        records.append(record)
        numbers.append(number)
    return Trace.from_dicts(records, lines=numbers)


def write_trace(path: Union[str, Path], trace: Trace) -> Path:
    """Write ``trace`` to ``path`` in canonical JSON-lines form."""
    path = Path(path)
    path.write_text(dumps_trace(trace), encoding="utf-8")
    return path


def read_trace(path: Union[str, Path]) -> Trace:
    """Read and validate the trace stored at ``path``."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8", errors="strict")
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"trace file {path} is not UTF-8: "
                               f"{exc.reason} at byte {exc.start}") from exc
    return loads_trace(text)
