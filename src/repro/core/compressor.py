"""``PressioCompressor``: the uniform compressor plugin interface.

This realizes the design points of Section IV-B of the paper:

* a single entry point for compress/decompress regardless of the
  underlying library's API shape;
* **uniform C-order dimension convention** — plugins that wrap natives
  with Fortran-order interfaces translate internally, transparently;
* **const inputs** — plugins receive read-only views; natives that
  clobber their input are handed a copy by their plugin;
* **reference-counted shared instances** — natives with global state
  (sz-style) report themselves as shared so callers can parallelize
  safely (``pressio:thread_safe`` in the configuration);
* **metrics hooks** — a metrics plugin attached to a compressor observes
  every operation without the caller changing its code.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from .. import _hot
from ..obs import flight as _flight
from ..obs import runtime as _obs
from ..trace import runtime as _trace
from .configurable import Configurable, ThreadSafety
from .data import PressioData
from .options import PressioOptions
from .status import PressioError

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import PressioMetrics

__all__ = ["PressioCompressor"]


class PressioCompressor(Configurable):
    """Base class for all compressor (and meta-compressor) plugins."""

    plugin_kind = "compressor"

    def __init__(self) -> None:
        super().__init__()
        self._metrics: "PressioMetrics | None" = None
        self._refcount = 1
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # subclass extension points
    # ------------------------------------------------------------------
    def _compress(self, input: PressioData) -> PressioData:
        """Compress ``input`` and return a BYTE-typed stream buffer."""
        raise NotImplementedError

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        """Decompress ``input``; ``output`` describes the expected dtype+dims."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def compress(self, input: PressioData, output: PressioData | None = None) -> PressioData:
        """Compress ``input``, returning the compressed buffer.

        ``output`` may pre-describe (or pre-allocate) the destination as
        in the C API; plugins are free to replace it.  Errors are raised
        as :class:`PressioError` and also recorded on :attr:`status`.

        When tracing is active (:mod:`repro.trace`), the whole operation
        runs inside a span carrying the plugin id, dtype, dims, and
        input/output byte counts; nested plugin calls become child spans.
        When a metrics registry is active (:mod:`repro.obs`), the call
        additionally bumps the per-plugin operation counter, duration
        histogram, and byte counters.  The disabled path costs one
        shared module-global read (:data:`repro._hot.ANY`), exactly the
        guard cost the tracer alone imposed.
        """
        if not _hot.ANY:
            return self._compress_op(input, output)
        ctx = _trace.ACTIVE
        reg = _obs.ACTIVE
        rec = _flight.ACTIVE
        if ctx is None and reg is None and rec is None:
            return self._compress_op(input, output)
        if ctx is None:
            start_ns = time.perf_counter_ns()
            result = self._compress_op(input, output)
            duration_ns = time.perf_counter_ns() - start_ns
            if reg is not None:
                _obs.record_operation(
                    "compress", self.get_name(), input.dtype.name,
                    duration_ns / 1e9,
                    input.size_in_bytes, result.size_in_bytes)
            if rec is not None:
                # with tracing off, the flight ring gets no span events;
                # record the operation directly so the last-N window
                # still shows what ran before a failure
                rec.record("operation", operation="compress",
                           plugin=self.get_name(),
                           dtype=input.dtype.name,
                           duration_ns=duration_ns,
                           input_bytes=input.size_in_bytes,
                           output_bytes=result.size_in_bytes)
            return result
        with ctx.span("compress", plugin=self.get_name(),
                      dtype=input.dtype.name, dims=list(input.dims),
                      input_bytes=input.size_in_bytes) as sp:
            result = self._compress_op(input, output)
            sp.attrs["output_bytes"] = result.size_in_bytes
        if reg is not None:
            _obs.record_operation(
                "compress", self.get_name(), input.dtype.name,
                sp.duration_ns / 1e9,
                input.size_in_bytes, result.size_in_bytes)
        return result

    def _compress_op(self, input: PressioData,
                     output: PressioData | None) -> PressioData:
        self.status.clear()
        try:
            if self._metrics is not None:
                self._metrics.begin_compress(input)
            result = self._compress(input)
            if self._metrics is not None:
                self._metrics.end_compress(input, result)
            return result
        except PressioError as e:
            self.status.set_from(e)
            _obs.record_error("compress", self.get_name(), e)
            raise
        except (ValueError, OverflowError) as e:
            # data-dependent rejections (e.g. a bound too tight for the
            # value magnitudes) surface as typed errors, per the uniform
            # error-reporting contract
            wrapped = PressioError(
                f"compression rejected the input: {e}")
            self.status.set_from(wrapped)
            _obs.record_error("compress", self.get_name(), wrapped)
            raise wrapped from e
        except Exception as e:  # noqa: BLE001 - C-style status capture
            self.status.set_from(e)
            _obs.record_error("compress", self.get_name(), e)
            raise

    def decompress(self, input: PressioData, output: PressioData) -> PressioData:
        """Decompress ``input`` into a buffer shaped like ``output``.

        Data-dependent decode failures (malformed or corrupted streams
        producing ValueError/zlib.error/... deep in a codec) surface
        uniformly as :class:`CorruptStreamError`, so callers — and the
        fuzzer — can rely on one typed failure mode.  Programming errors
        (TypeError, AttributeError, ...) propagate unchanged.

        Traced like :meth:`compress` when a trace context is active, and
        counted on the active metrics registry when one is installed.
        """
        if not _hot.ANY:
            return self._decompress_op(input, output)
        ctx = _trace.ACTIVE
        reg = _obs.ACTIVE
        rec = _flight.ACTIVE
        if ctx is None and reg is None and rec is None:
            return self._decompress_op(input, output)
        if ctx is None:
            start_ns = time.perf_counter_ns()
            result = self._decompress_op(input, output)
            duration_ns = time.perf_counter_ns() - start_ns
            if reg is not None:
                _obs.record_operation(
                    "decompress", self.get_name(), output.dtype.name,
                    duration_ns / 1e9,
                    input.size_in_bytes, result.size_in_bytes)
            if rec is not None:
                rec.record("operation", operation="decompress",
                           plugin=self.get_name(),
                           dtype=output.dtype.name,
                           duration_ns=duration_ns,
                           input_bytes=input.size_in_bytes,
                           output_bytes=result.size_in_bytes)
            return result
        with ctx.span("decompress", plugin=self.get_name(),
                      dtype=output.dtype.name, dims=list(output.dims),
                      input_bytes=input.size_in_bytes) as sp:
            result = self._decompress_op(input, output)
            sp.attrs["output_bytes"] = result.size_in_bytes
        if reg is not None:
            _obs.record_operation(
                "decompress", self.get_name(), output.dtype.name,
                sp.duration_ns / 1e9,
                input.size_in_bytes, result.size_in_bytes)
        return result

    def _decompress_op(self, input: PressioData,
                       output: PressioData) -> PressioData:
        import bz2 as _bz2  # noqa: F401 - documents the OSError source
        import lzma as _lzma
        import struct as _struct
        import zlib as _zlib

        data_errors = (ValueError, IndexError, KeyError, OverflowError,
                       MemoryError, EOFError, OSError, _struct.error,
                       _zlib.error, _lzma.LZMAError)
        self.status.clear()
        try:
            if self._metrics is not None:
                self._metrics.begin_decompress(input)
            result = self._decompress(input, output)
            if self._metrics is not None:
                self._metrics.end_decompress(input, result)
            return result
        except PressioError as e:
            self.status.set_from(e)
            _obs.record_error("decompress", self.get_name(), e)
            raise
        except data_errors as e:
            from .status import CorruptStreamError

            wrapped = CorruptStreamError(
                f"stream failed to decode: {type(e).__name__}: {e}"
            )
            self.status.set_from(wrapped)
            _obs.record_error("decompress", self.get_name(), wrapped,
                              cause=type(e).__name__)
            raise wrapped from e
        except Exception as e:  # noqa: BLE001
            self.status.set_from(e)
            _obs.record_error("decompress", self.get_name(), e)
            raise

    def compress_many(self, inputs: list[PressioData]) -> list[PressioData]:
        """Compress several buffers (overridden by parallel meta-compressors)."""
        return [self.compress(i) for i in inputs]

    def decompress_many(self, inputs: list[PressioData],
                        outputs: list[PressioData]) -> list[PressioData]:
        """Decompress several buffers (overridden by parallel meta-compressors)."""
        return [self.decompress(i, o) for i, o in zip(inputs, outputs)]

    # -- options hooks that also notify metrics -------------------------
    def get_options(self) -> PressioOptions:
        if self._metrics is not None:
            self._metrics.begin_get_options()
        return super().get_options()

    def set_options(self, options) -> int:
        if self._metrics is not None:
            from .configurable import _as_options

            self._metrics.begin_set_options(_as_options(options))
        return super().set_options(options)

    # -- metrics ----------------------------------------------------------
    def set_metrics(self, metrics: "PressioMetrics | None") -> None:
        """Attach (or detach with None) a metrics plugin."""
        self._metrics = metrics

    def get_metrics(self) -> "PressioMetrics | None":
        return self._metrics

    def get_metrics_results(self) -> PressioOptions:
        """Results from the attached metrics plugin (empty when none)."""
        if self._metrics is None:
            return PressioOptions()
        return self._metrics.get_metrics_results()

    # -- sharing / threading ------------------------------------------------
    def is_shared_instance(self) -> bool:
        """True when this object wraps process-global native state.

        Paper Section IV-B: the safest approach is to reference count
        instances and *tell* the caller whether the instance is shared, so
        they know whether multi-threaded use is safe.
        """
        cfg = self.get_configuration()
        return cfg.get("pressio:thread_safe") == ThreadSafety.SINGLE

    def incref(self) -> int:
        with self._lock:
            self._refcount += 1
            return self._refcount

    def decref(self) -> int:
        """Drop a reference; at zero, release native resources."""
        with self._lock:
            self._refcount -= 1
            rc = self._refcount
        if rc == 0:
            self._release_native()
        return rc

    def _release_native(self) -> None:
        """Free native-library state (SZ_Finalize analog)."""

    def clone(self) -> "PressioCompressor":
        """Independent instance with the same options (for thread pools)."""
        dup = type(self)()
        dup.set_options(self.get_options())
        if dup.status.code != 0:
            raise PressioError(f"clone failed: {dup.status.msg}")
        return dup
