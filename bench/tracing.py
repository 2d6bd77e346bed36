"""Spans recorded from outside the program, around the calls into each layer.

The tracer wraps the attributes listed in :mod:`bench.layers` *before* the
broker is built, so listeners bound at construction and forked shard workers
see the wrappers (worker-side spans stay in the worker and are not
collected).  Every span is one list ``[name id, start, end, parent span, op
id, time covered by child spans]``; spans stay in memory until the run ends.
A layer's self time is its span's duration minus the part its children
cover.  Each thread keeps its own stack of open spans, so the ``drtree:net``
loop thread nests correctly beside the client thread.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Set, Tuple

from bench import layers

NAME, START, END, PARENT, OP, COVERED = range(6)

#: Payloads kept per captured span name (from measured ops only).
CAPTURE_LIMIT = 512


@dataclass
class Stat:
    """Aggregate of one span name over one class of ops."""

    count: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    """Installs the wrappers, holds the spans, aggregates them."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.captured: Dict[str, List[Any]] = defaultdict(list)
        #: Span names with a target that did not resolve.
        self.unresolved: Set[str] = set()
        self._stacks: Dict[int, List[list]] = defaultdict(list)
        self._undo: List[Tuple[Any, str, Any]] = []
        self._rec: Any = None

    def bind(self, rec: Any) -> None:
        """Spans are stamped with ``rec.op_id`` (0 outside measured ops)."""
        self._rec = rec

    # -- recording ------------------------------------------------------- #

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> Tuple[List[list], list]:
        stack = self._stacks[threading.get_ident()]
        rec = self._rec
        record = [name_id, 0.0, 0.0, stack[-1] if stack else None,
                  rec.op_id if rec is not None else 0, 0.0]
        self.spans.append(record)
        stack.append(record)
        record[START] = time.perf_counter()
        return stack, record

    @staticmethod
    def _close(stack: List[list], record: list) -> None:
        record[END] = end = time.perf_counter()
        stack.pop()
        parent = record[PARENT]
        if parent is not None:
            parent[COVERED] += end - record[START]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        stack, record = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(stack, record)

    def _spanned(self, name: str, call: Callable, capture: bool) -> Callable:
        name_id = self._name_id(name)
        kept = self.captured[name] if capture else None

        @functools.wraps(call)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if kept is not None and len(kept) < CAPTURE_LIMIT:
                rec = self._rec
                if rec is not None and rec.op_id:
                    kept.append(args[1])
            stack, record = self._open(name_id)
            try:
                return call(*args, **kwargs)
            finally:
                self._close(stack, record)

        return traced

    def _counted(self, name: str, call: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(call)
        def counted(*args: Any, **kwargs: Any) -> Any:
            rec = self._rec
            if rec is not None and rec.op_id:
                counts[name] += 1
            return call(*args, **kwargs)

        return counted

    # -- installation ---------------------------------------------------- #

    def _wrap_target(self, name: str, target: str,
                     wrap: Callable[[Callable], Callable]) -> None:
        try:
            owner, attribute, raw = layers.resolve(target)
        except (ImportError, AttributeError) as exc:
            self.unresolved.add(name)
            print(f"bench: span {name}: target {target} does not resolve "
                  f"({exc}); its metrics read null", file=sys.stderr)
            return
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(wrap(raw.__func__))
        else:
            wrapped = wrap(raw)
        self._undo.append((owner, attribute, raw))
        setattr(owner, attribute, wrapped)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target of :mod:`bench.layers`; always unwrap on exit."""
        try:
            for name, targets in layers.SPANS.items():
                capture = name in layers.CAPTURED
                for target in targets:
                    self._wrap_target(
                        name, target,
                        lambda call, name=name, capture=capture:
                        self._spanned(name, call, capture))
            for name, targets in layers.COUNTED.items():
                for target in targets:
                    self._wrap_target(
                        name, target,
                        lambda call, name=name: self._counted(name, call))
            yield self
        finally:
            while self._undo:
                owner, attribute, raw = self._undo.pop()
                setattr(owner, attribute, raw)

    # -- aggregation ----------------------------------------------------- #

    def stats(self, op_kinds: List[str]) -> Dict[Tuple[str, str], Stat]:
        """``(span name, op class)`` -> :class:`Stat`.

        The op class is ``"publish"`` or ``"membership"`` for spans inside
        a measured op (by the kind of op ``op_kinds[op id - 1]``), and
        ``"outside"`` for set-up, warm-up and the final checks.
        """
        result: Dict[Tuple[str, str], Stat] = defaultdict(Stat)
        for record in self.spans:
            op_id = record[OP]
            if not op_id:
                op_class = "outside"
            elif op_kinds[op_id - 1] == "publish":
                op_class = "publish"
            else:
                op_class = "membership"
            stat = result[(self.names[record[NAME]], op_class)]
            duration = record[END] - record[START]
            stat.count += 1
            stat.total += duration
            stat.self_time += duration - record[COVERED]
        return result

    def children_of(self, name: str, parent_name: str) -> List[float]:
        """Durations of the ``name`` spans directly under ``parent_name``."""
        wanted, under = self._ids.get(name), self._ids.get(parent_name)
        return [record[END] - record[START] for record in self.spans
                if record[NAME] == wanted and record[PARENT] is not None
                and record[PARENT][NAME] == under]

    def write(self, path: Path) -> None:
        """Dump the spans as ``[name id, start, end, parent index, op id]``."""
        index = {id(record): position
                 for position, record in enumerate(self.spans)}
        origin = self.spans[0][START] if self.spans else 0.0
        rows = [[record[NAME], round(record[START] - origin, 7),
                 round(record[END] - origin, 7),
                 index[id(record[PARENT])] if record[PARENT] is not None
                 else -1, record[OP]] for record in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names,
                       "columns": ["name", "start_s", "end_s", "parent",
                                   "op"],
                       "unresolved": sorted(self.unresolved),
                       "counts": dict(self.counts),
                       "spans": rows}, handle)
