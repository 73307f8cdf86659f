"""Correctness bookkeeping: every operation is attempted, then judged.

An operation fails if it raises, if its output breaks its absolute
error bound, shape or dtype, if a served request is refused (429/503),
or if a served result differs from the in-process result.  Checks run
outside the timed region.  The bound check is
:func:`repro.conformance.oracles.abs_bound`, the conformance matrix's
own oracle.
"""

from __future__ import annotations

import threading
import zlib
from collections import Counter

import numpy as np

__all__ = ["Tally", "output_problems", "Verifier", "CORRECTNESS"]

#: failure kinds that make a run incorrect (exit code nonzero)
CORRECTNESS = ("exception", "bound", "shape", "dtype", "mismatch")


class Tally:
    """Attempted/failed counts with a reason per failure; thread-safe."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.kinds: Counter = Counter()
        self.examples: list[str] = []
        self._lock = threading.Lock()

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, kind: str, detail: str = "") -> None:
        with self._lock:
            self.failed += 1
            self.kinds[kind] += 1
            if len(self.examples) < 5:
                self.examples.append(f"{kind}: {detail}"[:300])

    def merge(self, other: "Tally") -> None:
        with self._lock:
            self.attempted += other.attempted
            self.failed += other.failed
            self.kinds.update(other.kinds)
            self.examples.extend(other.examples[:5 - len(self.examples)])

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return not any(self.kinds[k] for k in CORRECTNESS)


def output_problems(original: np.ndarray, output: np.ndarray,
                    abs_bound: float) -> list[tuple[str, str]]:
    """``(kind, detail)`` for each way ``output`` breaks its contract."""
    from repro.conformance.oracles import abs_bound as abs_oracle

    problems = []
    if output.dtype != original.dtype:
        problems.append(("dtype", f"{original.dtype} -> {output.dtype}"))
    if output.shape != original.shape:
        problems.append(("shape", f"{original.shape} -> {output.shape}"))
        return problems
    verdict = abs_oracle(original, output, abs_bound)
    if not verdict.ok:
        problems.append(("bound", f"max err {verdict.measured:.6g} > "
                                  f"{verdict.allowed:.6g}"))
    return problems


class Verifier:
    """Judges outputs, running the full oracle once per distinct output.

    Deterministic compressors return the same bytes for the same input
    and configuration, so after one output of a key has passed the
    oracle, a later output with the same checksum has passed too; a
    different checksum runs the oracle again.
    """

    def __init__(self) -> None:
        self._passed: dict = {}
        self._lock = threading.Lock()

    def check(self, tally: Tally, key, original: np.ndarray,
              output: np.ndarray, abs_bound: float) -> bool:
        out = np.ascontiguousarray(output)
        digest = (out.dtype.str, out.shape, zlib.crc32(out.view(np.uint8)))
        with self._lock:
            if self._passed.get(key) == digest:
                return True
        problems = output_problems(original, out, abs_bound)
        if problems:
            tally.fail(problems[0][0], f"{key}: " + "; ".join(
                f"{kind} {detail}" for kind, detail in problems))
            return False
        with self._lock:
            self._passed[key] = digest
        return True
