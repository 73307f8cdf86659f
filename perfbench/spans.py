"""Span arithmetic for the traced run.

The traced run records the benchmark's own spans around each call into
a layer (``layer`` and ``request_id`` attributes) with
:func:`repro.trace.tracing`, so the stage spans the native cores already
emit parent under them.  Everything here works on any object with
``name``, ``span_id``, ``parent_id``, ``thread_id``, ``start_ns`` and
``end_ns`` (a :class:`repro.trace.Span`, or a hand-built stand-in in the
tests).

A layer's self time is its span's duration minus the part of that
interval its child spans cover; parallel children are merged, so two
children running at once are not subtracted twice.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["union_ns", "self_time_ns", "children_of", "stage_self_times",
           "first_seen", "part_windows", "wait_ns"]


def union_ns(intervals, lo: int, hi: int) -> int:
    """Length covered by ``(start, end)`` intervals, clipped to [lo, hi]."""
    clipped = []
    for start, end in intervals:
        start, end = max(start, lo), min(end, hi)
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total = 0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans) -> dict:
    """``parent_id -> [child spans]`` over closed spans."""
    by_parent = defaultdict(list)
    for sp in spans:
        if sp.end_ns is not None:
            by_parent[sp.parent_id].append(sp)
    return by_parent


def self_time_ns(span, children) -> int:
    """Duration minus the union of the children's intervals inside it."""
    covered = union_ns(((c.start_ns, c.end_ns) for c in children),
                       span.start_ns, span.end_ns)
    return (span.end_ns - span.start_ns) - covered


def stage_self_times(root, by_parent) -> dict[str, int]:
    """Self time per span name over every descendant of ``root``."""
    out: dict[str, int] = defaultdict(int)
    stack = list(by_parent.get(root.span_id, ()))
    while stack:
        sp = stack.pop()
        kids = by_parent.get(sp.span_id, ())
        out[sp.name] += self_time_ns(sp, kids)
        stack.extend(kids)
    return dict(out)


def first_seen(root, by_parent) -> list[str]:
    """Names of ``root``'s descendants, ordered by their earliest start."""
    first: dict[str, int] = {}
    stack = list(by_parent.get(root.span_id, ()))
    while stack:
        sp = stack.pop()
        first[sp.name] = min(first.get(sp.name, sp.start_ns), sp.start_ns)
        stack.extend(by_parent.get(sp.span_id, ()))
    return sorted(first, key=first.__getitem__)


def part_windows(span, spans) -> list[tuple[int, int]]:
    """Per-thread activity windows of an executor's parts.

    A part is a direct child of ``span`` or, for executors whose worker
    threads do not inherit the caller's span, a span on another thread
    that opens inside ``span`` with no parent on that thread.  Each
    thread's window runs from its first part start to its last part end.
    """
    by_id = {sp.span_id: sp for sp in spans}
    windows: dict[int, list[int]] = {}
    for sp in spans:
        if sp.end_ns is None or sp is span:
            continue
        direct = sp.parent_id == span.span_id
        orphan = False
        if not direct and sp.thread_id != span.thread_id \
                and span.start_ns <= sp.start_ns <= span.end_ns:
            parent = by_id.get(sp.parent_id)
            orphan = parent is None or parent.thread_id != sp.thread_id
        if not (direct or orphan):
            continue
        win = windows.setdefault(sp.thread_id, [sp.start_ns, sp.end_ns])
        win[0] = min(win[0], sp.start_ns)
        win[1] = max(win[1], sp.end_ns)
    return [tuple(w) for w in windows.values()]


def wait_ns(span, spans) -> int:
    """Time inside ``span`` during which at least one part was running.

    With parts in parallel the slowest one sets this.
    """
    return union_ns(part_windows(span, spans), span.start_ns, span.end_ns)
