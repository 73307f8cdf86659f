"""Observability rules (``OB*``): traces must survive process hops.

PR 8's cross-process propagation only produces one stitched tree when
*every* place that leaves the process carries the trace context along.
A new subprocess call that forgets :func:`repro.trace.propagate.child_env`
silently truncates the tree — no error, just a hole where the child's
time went.  OB001 turns that silent hole into a lint finding.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..model import Finding, Severity
from ..project import ProjectIndex, SourceModule, dotted_name
from . import Rule, register_rule

#: call names that start (or hand work to) another OS process
_SPAWN_CALLS = {
    "subprocess.run", "subprocess.Popen", "subprocess.call",
    "subprocess.check_call", "subprocess.check_output",
    "os.fork", "os.spawnv", "os.spawnvp", "os.posix_spawn",
    "os.system", "os.popen",
    "multiprocessing.Process", "multiprocessing.Pool",
}
#: bare constructor names commonly imported directly
_SPAWN_BARE = {"ProcessPoolExecutor", "Popen", "posix_spawn"}

#: names whose presence in the same function shows the call site
#: participates in the pressio-spanwire protocol (either direction)
_PROPAGATION_MARKERS = {
    "child_env", "serialize_context", "extract", "child_scope",
    "collect_fragments", "dump_fragments", "stitch",
}


def _call_name(node: ast.Call) -> str | None:
    name = dotted_name(node.func)
    if name is None:
        return None
    # normalize aliased module paths: keep the last two components so
    # `sp.Popen` and `subprocess.Popen` both resolve
    parts = name.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else name


def _is_spawn_call(node: ast.Call) -> bool:
    name = _call_name(node)
    if name is None:
        return False
    if name in _SPAWN_CALLS:
        return True
    tail = name.rsplit(".", 1)[-1]
    return tail in _SPAWN_BARE


def _has_propagation_marker(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and \
                node.attr in _PROPAGATION_MARKERS:
            return True
        if isinstance(node, ast.Name) and node.id in _PROPAGATION_MARKERS:
            return True
    return False


@register_rule
class TracePropagationRule(Rule):
    """OB001: process-spawning call sites must propagate trace context."""

    rule_id = "OB001"
    name = "missing-trace-propagation"
    severity = Severity.WARNING
    description = (
        "A function that spawns another process (subprocess.run/Popen, "
        "os.fork, ProcessPoolExecutor, multiprocessing.Process, ...) "
        "must use the repro.trace.propagate protocol in the same "
        "function body — child_env()/serialize_context() on the parent "
        "side, extract()/child_scope() on the child side — or carry an "
        "inline '# pressio-lint: disable=OB001' with a reason."
    )
    rationale = (
        "cross-process stitching (pressio-spanwire/1) only yields one "
        "tree when every process hop forwards the context; a forgotten "
        "hop truncates traces silently, which is exactly the failure "
        "mode end-to-end observability exists to rule out."
    )

    def check(self, module: SourceModule,
              index: ProjectIndex) -> Iterable[Finding]:
        if module.tree is None:
            return
        # walk top-level and nested functions; a spawn at module level
        # is checked against the whole module body
        for scope in ast.walk(module.tree):
            if not isinstance(scope, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                continue
            spawns = [node for node in ast.walk(scope)
                      if isinstance(node, ast.Call)
                      and _is_spawn_call(node)]
            if not spawns:
                continue
            if _has_propagation_marker(scope):
                continue
            for node in spawns:
                yield self.finding(
                    module, node,
                    f"{scope.name!r} spawns a process via "
                    f"{_call_name(node) or 'a spawn call'} without trace "
                    f"propagation; pass propagate.child_env() (parent) "
                    f"or call propagate.extract()/child_scope() (child), "
                    f"or suppress with a reasoned "
                    f"'# pressio-lint: disable=OB001'",
                )
