"""Lock rules (``LK*``): acquire/release balance and global lock order.

The shared executor, the trace runtime, and the metrics registry each
guard their state with a lock, and one request routinely crosses
several of them.  LK001 keeps manual
``lock.acquire()`` calls exception-safe inside one function; LK002
builds a whole-program static lock-order graph (``with`` regions plus
call-graph reachability) and flags any cycle — the static shadow of the
runtime inversion detector in :mod:`repro.sanitize`.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..dataflow import CallGraph, build_lock_graph, lock_id_for_expr
from ..model import Finding, Severity
from ..project import ProjectIndex, SourceModule, dotted_name
from . import Rule, register_rule

#: methods implementing the lock protocol itself (wrapper classes, the
#: sanitizer's own proxies): calling inner.acquire() here IS the design
_PROTOCOL_METHODS = ("acquire", "release", "__enter__", "__exit__",
                     "locked")


def _lock_receiver(call: ast.Call) -> str | None:
    """Receiver dotted name for ``<recv>.acquire()`` / ``.release()``."""
    if not isinstance(call.func, ast.Attribute):
        return None
    if call.func.attr not in ("acquire", "release"):
        return None
    name = dotted_name(call.func.value)
    if name and "lock" in name.split(".")[-1].lower():
        return name
    return None


def _in_finalbody(node: ast.AST, fn: ast.FunctionDef) -> bool:
    for candidate in ast.walk(fn):
        if isinstance(candidate, ast.Try):
            for stmt in candidate.finalbody:
                if any(sub is node for sub in ast.walk(stmt)):
                    return True
    return False


@register_rule
class LockImbalanceRule(Rule):
    """LK001: manual lock acquire/release stays balanced + safe."""

    rule_id = "LK001"
    name = "lock-acquire-release-imbalance"
    severity = Severity.ERROR
    description = (
        "A manual lock.acquire() call must be paired with a release() in "
        "the same function, and the release must sit in a try/finally so "
        "an exception cannot leave the lock held.  Prefer 'with lock:' "
        "which gets both for free.  Lock-protocol methods (acquire/"
        "release/__enter__/__exit__ on wrapper classes) are exempt."
    )
    rationale = (
        "A lock left held on an exception path deadlocks the next "
        "request on that subsystem — in the shared executor that stalls "
        "every parallel compression in the process."
    )
    good_example = (
        "lock.acquire()\n"
        "try:\n"
        "    update_shared_state()\n"
        "finally:\n"
        "    lock.release()\n"
        "# or simply:  with lock: update_shared_state()"
    )
    bad_example = (
        "lock.acquire()\n"
        "update_shared_state()  # raises -> lock held forever\n"
        "lock.release()"
    )

    def check(self, module: SourceModule,
              index: ProjectIndex) -> Iterable[Finding]:
        if module.tree is None:
            return
        for fn in ast.walk(module.tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name in _PROTOCOL_METHODS:
                continue
            yield from self._check_function(module, fn)

    def _check_function(self, module: SourceModule,
                        fn: ast.FunctionDef) -> Iterable[Finding]:
        acquires: dict[str, list[ast.Call]] = {}
        releases: dict[str, list[ast.Call]] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.FunctionDef) and node is not fn:
                continue
            if not isinstance(node, ast.Call):
                continue
            recv = _lock_receiver(node)
            if recv is None:
                continue
            bucket = acquires if node.func.attr == "acquire" else releases
            bucket.setdefault(recv, []).append(node)
        for recv, calls in sorted(acquires.items()):
            rel = releases.get(recv, [])
            if not rel:
                yield self.finding(
                    module, calls[0],
                    f"lock {recv!r} is acquired in {fn.name}() but never "
                    f"released there; use 'with {recv}:' or pair with a "
                    f"finally release")
            elif not any(_in_finalbody(r, fn) for r in rel):
                yield self.finding(
                    module, calls[0],
                    f"lock {recv!r} acquired in {fn.name}() is released "
                    f"outside any finally block; an exception between "
                    f"acquire and release leaves it held")


@register_rule
class LockOrderCycleRule(Rule):
    """LK002: the whole-program static lock-order graph is acyclic."""

    rule_id = "LK002"
    name = "lock-order-cycle"
    severity = Severity.ERROR
    description = (
        "Taking lock B while holding lock A (directly nested 'with' "
        "blocks, or a call made under A that reaches a 'with B:' through "
        "the call graph) fixes the order A->B.  If another code path "
        "fixes B->A the program can deadlock; LK002 flags every "
        "acquisition edge participating in such a cycle."
    )
    rationale = (
        "Pool, pipeline, trace, and obs locks are all crossed by one "
        "compress() call now; a static cycle between them is a deadlock "
        "waiting for the right thread interleaving.  The sanitizer "
        "reports the runtime order graph; LK002 is its compile-time "
        "gate."
    )
    good_example = (
        "# one global order: registry lock before family lock, always\n"
        "with registry._lock:\n"
        "    with family._lock:\n"
        "        ..."
    )
    bad_example = (
        "def put(self):                 # fixes order A -> B\n"
        "    with self._stats_lock:\n"
        "        with self._queue_lock: ...\n"
        "def drain(self):               # fixes order B -> A: cycle\n"
        "    with self._queue_lock:\n"
        "        with self._stats_lock: ..."
    )

    def check(self, module: SourceModule,
              index: ProjectIndex) -> Iterable[Finding]:
        if module.tree is None:
            return
        CallGraph.for_index(index)
        order = build_lock_graph(index)
        seen: set[tuple] = set()
        for edge in order.cyclic_edges():
            if edge.module is not module:
                continue
            key = (edge.first, edge.second,
                   getattr(edge.node, "lineno", 0))
            if key in seen:
                continue
            seen.add(key)
            yield self.finding(
                module, edge.node,
                f"lock-order cycle: {_short(edge.first)} is held while "
                f"{_short(edge.second)} is taken here (via {edge.via}), "
                f"but another path takes them in the opposite order",
                first=edge.first, second=edge.second)


def _short(lock_id: str) -> str:
    path, _, name = lock_id.rpartition(":")
    return f"{name} ({path.rsplit('/', 1)[-1]})" if path else name
