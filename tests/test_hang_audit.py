"""The hang audit: every blocking wait in ``src/repro`` is bounded.

A ``.wait(`` / ``.join(`` / ``.acquire(`` / ``.result(`` / ``.recv(`` call
must pass a timeout — a ``timeout=`` keyword or a positional argument,
which is how ``Thread.join(2.0)``, ``Event.wait(1.0)`` and
``Future.result(5)`` take theirs (and why ``"".join(parts)`` and
``ledger.acquire(peer)`` pass) — or be the awaitable an
``asyncio.wait_for`` bounds, or have an entry in :data:`ALLOWED` that says
in one line why it cannot hang.  A new unbounded wait fails here until it
gets a deadline or a reason; an entry that no longer matches a call fails
too, so the list stays the list of what is really there.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Tuple

SOURCE = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The method names that block.
BLOCKING = {"wait", "join", "acquire", "result", "recv"}

#: (file under ``src/repro``, enclosing function, call) -> why it is bounded.
ALLOWED: Dict[Tuple[str, str, str], str] = {
    ("sim/sharded/coordinator.py", "_ProcessShard.collect",
     "self.conn.recv()"):
        "reads only after conn.poll() returned true, polling for a dead "
        "worker in between",
    ("sim/sharded/worker.py", "shard_worker_main", "conn.recv()"):
        "reads only after conn.poll() returned true, polling for an "
        "orphaning in between",
    ("net/runtime.py", "NetRuntime.call",
     "asyncio.run_coroutine_threadsafe(gated(), self.loop).result()"):
        "every coroutine it runs bounds its own waits: wait_idle and the "
        "join, settle and stabilize loops raise NetTimeoutError or stop at "
        "their deadlines",
}


def _unbounded_calls() -> Iterator[Tuple[str, str, str, int]]:
    """``(file, enclosing function, call, line)`` of every blocking call
    that passes no timeout and is not bounded by ``asyncio.wait_for``."""
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bounded = {id(node.args[0]) for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and node.args
                   and isinstance(node.func, (ast.Attribute, ast.Name))
                   and getattr(node.func, "attr",
                               getattr(node.func, "id", None)) == "wait_for"}
        for scope, node in _calls(tree, ""):
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in BLOCKING and not node.args
                    and not any(keyword.arg == "timeout"
                                for keyword in node.keywords)
                    and id(node) not in bounded):
                yield (path.relative_to(SOURCE).as_posix(), scope,
                       ast.unparse(node), node.lineno)


def _calls(node: ast.AST, scope: str) -> Iterator[Tuple[str, ast.Call]]:
    """Every call under ``node``, with the dotted name of the class and
    function it is in."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        if isinstance(child, ast.Call):
            yield scope, child
        yield from _calls(child, inner)


def test_every_blocking_wait_has_a_timeout_or_a_reason():
    unexplained = [f"{path}:{line} {call} (in {scope})"
                   for path, scope, call, line in _unbounded_calls()
                   if (path, scope, call) not in ALLOWED]
    assert not unexplained, "\n".join(unexplained)


def test_every_allowed_wait_is_still_there():
    found = {(path, scope, call) for path, scope, call, _ in _unbounded_calls()}
    assert not ALLOWED.keys() - found, sorted(ALLOWED.keys() - found)
