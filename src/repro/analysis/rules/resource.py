"""Resource-safety rules (``RS*``): pool-buffer lifetime discipline.

The buffer pool (PR 8) made every native core's scratch memory a shared,
recycled resource — which means a buffer leaked on an exception path is
permanently lost to the pool, a double-release hands the same backing
store to two owners, and a pooled buffer escaping a function outlives
the lifetime its acquirer reasoned about.  These rules run the
path-sensitive lifetime interpreter from
:mod:`repro.analysis.dataflow` over every function that touches the
pool and report the three failure shapes at the acquire / release /
escape site.

Sanctioned ownership transfers (allocator functions and functions
documented ``pool-ownership: caller``) are modeled, not suppressed —
see the dataflow module docstring.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..dataflow import (CallGraph, analyze_buffers, allocator_keys,
                        pool_aliases)
from ..model import Finding, Severity
from ..project import ProjectIndex, SourceModule
from . import Rule, register_rule


def _module_touches_pool(module: SourceModule) -> bool:
    if module.tree is None:
        return False
    if pool_aliases(module):
        return True
    return any(source.lstrip(".").endswith(("pool.acquire", "pool.release"))
               for source in module.import_sources.values())


def _pool_functions(module: SourceModule, index: ProjectIndex):
    """FunctionInfos in this module, with the shared call graph."""
    graph = CallGraph.for_index(index)
    infos = [info for info in graph.functions.values()
             if info.module is module]
    return graph, sorted(infos, key=lambda i: i.node.lineno)


class _BufferRule(Rule):
    """Shared driver: run the interpreter once per pool-touching fn."""

    def check(self, module: SourceModule,
              index: ProjectIndex) -> Iterable[Finding]:
        if not _module_touches_pool(module):
            return
        graph, infos = _pool_functions(module, index)
        allocators = allocator_keys(graph)
        for info in infos:
            if info.key in allocators:
                continue  # transfers ownership by construction
            events = analyze_buffers(info, graph)
            yield from self._report(module, info, events)

    def _report(self, module, info, events) -> Iterable[Finding]:
        raise NotImplementedError


_LEAK_MESSAGES = {
    "exception": ("pool buffer {name!r} acquired in {fn}() is not released "
                  "when a later statement raises; wrap the span in "
                  "try/finally with pool.release"),
    "return": ("pool buffer {name!r} acquired in {fn}() is not released on "
               "an early-return path; release it in a finally block"),
    "end": ("pool buffer {name!r} acquired in {fn}() is never released "
            "before the function ends; the buffer is lost to the pool"),
    "rebind": ("pool buffer {name!r} in {fn}() is rebound before release; "
               "the original buffer leaks"),
}


@register_rule
class ReleaseMissedRule(_BufferRule):
    """RS001: every acquire is released on every exit path."""

    rule_id = "RS001"
    name = "pool-release-missed"
    severity = Severity.ERROR
    description = (
        "A pool.acquire() result must be released on every exit path out "
        "of the acquiring function — normal returns, early returns, and "
        "exception edges — unless ownership transfers via an allocator "
        "return or a documented 'pool-ownership: caller' hand-off.  Use "
        "try/finally around any span that can raise."
    )
    rationale = (
        "The thread-local pool only recycles what comes back: a buffer "
        "leaked on an exception path degrades every later compression on "
        "that thread back to cold allocation, silently undoing the PR-8 "
        "hot-path win the paper's performance claims rest on."
    )
    good_example = (
        "buf = _pool.acquire(n, np.uint8)\n"
        "try:\n"
        "    encode_into(data, out=buf)  # may raise\n"
        "finally:\n"
        "    _pool.release(buf)"
    )
    bad_example = (
        "buf = _pool.acquire(n, np.uint8)\n"
        "encode_into(data, out=buf)  # raises -> buf is lost to the pool\n"
        "_pool.release(buf)"
    )

    def _report(self, module, info, events) -> Iterable[Finding]:
        for name, kind, node in events.leaks:
            message = _LEAK_MESSAGES[kind].format(name=name, fn=info.name)
            yield self.finding(module, node, message, kind=kind)


@register_rule
class DoubleReleaseRule(_BufferRule):
    """RS002: no buffer is released twice on one path."""

    rule_id = "RS002"
    name = "pool-double-release"
    severity = Severity.ERROR
    description = (
        "A pool buffer must be released exactly once: a second "
        "pool.release() of the same name on one control-flow path puts "
        "the same backing store on the free list twice, so two later "
        "acquires alias one buffer."
    )
    rationale = (
        "Aliased pool buffers corrupt compressed streams non-locally — "
        "the write that trashes the data happens in a different plugin "
        "than the one that double-released.  The runtime sanitizer "
        "catches this dynamically; RS002 catches it before it runs."
    )
    good_example = (
        "buf = _pool.acquire(n, np.uint8)\n"
        "try:\n"
        "    work(buf)\n"
        "finally:\n"
        "    _pool.release(buf)"
    )
    bad_example = (
        "buf = _pool.acquire(n, np.uint8)\n"
        "_pool.release(buf)\n"
        "_pool.release(buf)  # free list now holds buf twice"
    )

    def _report(self, module, info, events) -> Iterable[Finding]:
        for name, node in events.double_releases:
            yield self.finding(
                module, node,
                f"pool buffer {name!r} is released a second time in "
                f"{info.name}(); the backing store would sit on the free "
                f"list twice and alias a later acquire")


@register_rule
class BufferEscapeRule(_BufferRule):
    """RS003: pooled buffers do not escape their acquiring function."""

    rule_id = "RS003"
    name = "pool-buffer-escape"
    severity = Severity.WARNING
    description = (
        "A pooled buffer must not escape the acquiring function via a "
        "return value or an attribute store, except through an allocator "
        "function (every return built from acquires) or a documented "
        "ownership hand-off ('pool-ownership: caller' in the docstring).  "
        "Escaped buffers outlive the lifetime the "
        "acquirer reasoned about."
    )
    rationale = (
        "The pool's contract is scoped ownership: once a pooled view is "
        "stored on an object or returned ad hoc, a later release "
        "elsewhere poisons memory the holder still reads — the "
        "use-after-release class the sanitizer exists to catch."
    )
    good_example = (
        "def _lift_temps(shape):\n"
        "    # allocator: every return is built from acquires, callers\n"
        "    # inherit the release obligation via the call graph\n"
        "    return [_pool.acquire(shape, np.int64) for _ in range(5)]"
    )
    bad_example = (
        "def make_scratch(self, n):\n"
        "    buf = _pool.acquire(n, np.uint8)\n"
        "    self._scratch = buf  # escapes: lifetime now unbounded\n"
        "    return buf           # and returned outside any protocol"
    )

    def _report(self, module, info, events) -> Iterable[Finding]:
        for name, kind, node in events.escapes:
            how = ("returned from" if kind == "return"
                   else "stored on an attribute in")
            yield self.finding(
                module, node,
                f"pooled buffer {name!r} is {how} {info.name}() outside "
                f"the allocator/stage-split ownership protocols",
                kind=kind)
