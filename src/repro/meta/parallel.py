"""Parallel meta-compressors: ``chunking``, ``many_independent``,
``many_dependent``.

These reproduce LibPressio's automatic task parallelism (Section IV-D):

* ``chunking`` splits one buffer into contiguous chunks and compresses
  them concurrently;
* ``many_independent`` compresses a *list* of buffers embarrassingly
  parallel (``compress_many``);
* ``many_dependent`` pipelines a sequence of buffers, forwarding a
  metric observed on earlier buffers into the configuration of later
  ones (the time-step configuration-guess pattern from the glossary).

Thread safety is decided from the inner plugin's advertised
``pressio:thread_safe`` configuration — the introspection datum the
paper faults other interface libraries for not exposing.  When the
inner plugin is fully re-entrant the tasks run on the shared executor
(:mod:`repro.meta.executor`), each contiguous group on its own clone;
otherwise (e.g. sz-style global state) work degrades gracefully to
serial execution rather than corrupting shared state.
"""

from __future__ import annotations

import os as _os
import struct

import numpy as np

from ..core.compressor import PressioCompressor
from ..core.data import PressioData
from ..core.options import OptionType, PressioOptions
from ..core.registry import compressor_plugin, metrics_registry
from ..core.status import CorruptStreamError, InvalidOptionError
from ..encoders.headers import read_header, write_header
from ..trace import propagate as _propagate
from ..trace import runtime as _trace
from . import executor as _executor
from .base import MetaCompressor

__all__ = ["ChunkingCompressor", "ManyIndependentCompressor",
           "ManyDependentCompressor"]

_MAGIC = b"CHK1"


class _ParallelBase(MetaCompressor):
    """Shared ``:nthreads`` option and worker-pool helper."""

    def __init__(self) -> None:
        super().__init__()
        self._nthreads = 4

    def _meta_options(self) -> PressioOptions:
        opts = PressioOptions()
        opts.set(f"{self.prefix()}:nthreads", np.int64(self._nthreads))
        return opts

    def _set_meta_options(self, options: PressioOptions) -> None:
        n = int(self._take(options, f"{self.prefix()}:nthreads",
                           OptionType.INT64, self._nthreads))
        if n < 1:
            raise InvalidOptionError(f"{self.prefix()}:nthreads must be >= 1")
        self._nthreads = n

    def _map(self, fn, tasks: list) -> list:
        """Run ``fn(worker_compressor, task)`` over tasks on the shared
        executor (serially unless the inner plugin is re-entrant)."""
        return _executor.map(fn, tasks, self._nthreads, self._inner)


@compressor_plugin("chunking")
class ChunkingCompressor(_ParallelBase):
    """Splits a buffer into ``chunking:chunk_size``-element chunks.

    Chunks are flattened leading-axis slabs; each is compressed
    independently (concurrently when the inner plugin is re-entrant) and
    the streams are concatenated behind a length table.
    """

    def __init__(self) -> None:
        super().__init__()
        self._chunk_size = 1 << 16

    def _meta_options(self) -> PressioOptions:
        opts = super()._meta_options()
        opts.set("chunking:chunk_size", np.int64(self._chunk_size))
        return opts

    def _set_meta_options(self, options: PressioOptions) -> None:
        super()._set_meta_options(options)
        size = int(self._take(options, "chunking:chunk_size",
                              OptionType.INT64, self._chunk_size))
        if size < 1:
            raise InvalidOptionError("chunking:chunk_size must be >= 1")
        self._chunk_size = size

    def _compress(self, input: PressioData) -> PressioData:
        arr = np.ascontiguousarray(input.to_numpy()).reshape(-1)
        n = arr.size
        chunks = [arr[i:i + self._chunk_size]
                  for i in range(0, n, self._chunk_size)] or [arr]

        def work(compressor: PressioCompressor, chunk: np.ndarray) -> bytes:
            return compressor.compress(
                PressioData.from_numpy(chunk, copy=False)
            ).to_bytes()

        streams = self._map(work, chunks)
        if _trace.ACTIVE is not None:
            _trace.annotate(n_chunks=len(streams))
            for s in streams:
                _trace.observe("chunking:compressed_chunk_bytes", len(s))
        table = struct.pack(f"<{len(streams)}Q", *(len(s) for s in streams))
        header = write_header(_MAGIC, input.dtype, input.dims,
                              ints=(len(streams), self._chunk_size))
        return PressioData.from_bytes(header + table + b"".join(streams))

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        stream = input.to_bytes()
        dtype, dims, _d, ints, pos = read_header(stream, _MAGIC)
        n_chunks, chunk_size = ints
        table = struct.unpack_from(f"<{n_chunks}Q", stream, pos)
        pos += 8 * n_chunks
        n_total = int(np.prod(dims, dtype=np.int64)) if dims else 0
        offsets = []
        for length in table:
            offsets.append((pos, length))
            pos += length

        def work(compressor: PressioCompressor, task) -> np.ndarray:
            idx, (off, length) = task
            start = idx * chunk_size
            count = min(chunk_size, n_total - start)
            template = PressioData.empty(dtype, (count,))
            out = compressor.decompress(
                PressioData.from_bytes(stream[off:off + length]), template
            )
            return np.asarray(out.to_numpy()).reshape(-1)

        parts = self._map(work, list(enumerate(offsets)))
        full = np.concatenate(parts) if parts else np.zeros(0)
        if full.size != n_total:
            raise CorruptStreamError(
                f"chunks reassemble to {full.size} elements, expected {n_total}"
            )
        return PressioData.from_numpy(full.reshape(dims), copy=False)


def _process_compress(task: tuple) -> tuple:
    """Process-pool worker: rebuild the compressor and compress.

    Runs in a separate interpreter (the MPI-rank analog), so only
    picklable state crosses: the plugin id, a plain options dict, the
    raw buffer, and — when the parent was tracing — the
    ``pressio-spanwire/1`` wire string.  USERPTR options cannot cross a
    process boundary — the same restriction the paper notes for
    serialized configuration.  Returns ``(stream_bytes, fragments)``
    where fragments is the child's span dump (None when untraced); the
    pool's return channel carries them back in-band, no sink file
    needed.
    """
    import numpy as _np

    from ..core.data import PressioData as _PD
    from ..core.registry import compressor_registry as _reg
    from ..trace import propagate as _prop

    compressor_id, options, payload, dtype_str, dims, wire = task
    ctx = _prop.begin_child(_prop.extract(wire) if wire else None,
                            name="process-worker")
    try:
        compressor = _reg.create(compressor_id)
        if options and compressor.set_options(options) != 0:
            raise RuntimeError(compressor.error_msg())
        arr = _np.frombuffer(payload,
                             dtype=_np.dtype(dtype_str)).reshape(dims)
        if ctx is not None:
            with ctx.span("worker", pid=_os.getpid(),
                          action="compress", compressor=compressor_id):
                blob = compressor.compress(
                    _PD.from_numpy(arr, copy=False)).to_bytes()
            return blob, _prop.collect_fragments(ctx)
        return compressor.compress(
            _PD.from_numpy(arr, copy=False)).to_bytes(), None
    finally:
        if ctx is not None:
            from ..trace import runtime as _rt

            _rt.disable_tracing()


def _process_decompress(task: tuple) -> tuple:
    import numpy as _np

    from ..core.data import PressioData as _PD
    from ..core.dtype import dtype_from_numpy as _dfn
    from ..core.registry import compressor_registry as _reg
    from ..trace import propagate as _prop

    compressor_id, options, stream, dtype_str, dims, wire = task
    ctx = _prop.begin_child(_prop.extract(wire) if wire else None,
                            name="process-worker")
    try:
        compressor = _reg.create(compressor_id)
        if options and compressor.set_options(options) != 0:
            raise RuntimeError(compressor.error_msg())
        template = _PD.empty(_dfn(_np.dtype(dtype_str)), dims)
        if ctx is not None:
            with ctx.span("worker", pid=_os.getpid(),
                          action="decompress", compressor=compressor_id):
                out = compressor.decompress(_PD.from_bytes(stream),
                                            template)
            blob = np.ascontiguousarray(out.to_numpy()).tobytes()
            return blob, _prop.collect_fragments(ctx)
        out = compressor.decompress(_PD.from_bytes(stream), template)
        return np.ascontiguousarray(out.to_numpy()).tobytes(), None
    finally:
        if ctx is not None:
            from ..trace import runtime as _rt

            _rt.disable_tracing()


@compressor_plugin("many_independent")
class ManyIndependentCompressor(_ParallelBase):
    """Embarrassingly parallel ``compress_many`` over buffer lists.

    ``many_independent:mode`` selects the worker model:

    * ``thread`` (default) — clones in a thread pool (cheap, shares
      memory; effective because the codecs release the GIL in their
      NumPy/zlib sections);
    * ``process`` — fresh interpreters per worker (the MPI-rank analog;
      escapes the GIL entirely at the cost of buffer pickling, and
      cannot carry USERPTR options across).
    """

    def __init__(self) -> None:
        super().__init__()
        self._mode = "thread"
        self._picklable_options: dict = {}

    def _meta_options(self) -> PressioOptions:
        opts = super()._meta_options()
        opts.set("many_independent:mode", self._mode)
        return opts

    def _set_meta_options(self, options: PressioOptions) -> None:
        super()._set_meta_options(options)
        mode = str(self._take(options, "many_independent:mode",
                              OptionType.STRING, self._mode))
        if mode not in ("thread", "process"):
            raise InvalidOptionError(
                "many_independent:mode must be thread or process")
        self._mode = mode

    def _set_options(self, options: PressioOptions) -> None:
        super()._set_options(options)
        # remember the picklable slice of the configuration so process
        # workers can replay it
        for key, opt in options.items():
            if not opt.has_value():
                continue
            value = opt.get()
            if isinstance(value, (int, float, str, bool, list)):
                self._picklable_options[key] = value

    def _compress(self, input: PressioData) -> PressioData:
        return self._inner.compress(input)

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        return self._inner.decompress(input, output)

    def compress_many(self, inputs: list[PressioData]) -> list[PressioData]:
        with _trace.stage("compress_many", plugin=self.get_name(),
                          n_inputs=len(inputs), mode=self._mode):
            if self._mode == "process" and len(inputs) > 1:
                return self._process_map_compress(inputs)

            def work(compressor: PressioCompressor, data: PressioData) -> PressioData:
                return compressor.compress(data)

            return self._map(work, list(inputs))

    def decompress_many(self, inputs: list[PressioData],
                        outputs: list[PressioData]) -> list[PressioData]:
        with _trace.stage("decompress_many", plugin=self.get_name(),
                          n_inputs=len(inputs), mode=self._mode):
            if self._mode == "process" and len(inputs) > 1:
                return self._process_map_decompress(inputs, outputs)

            def work(compressor: PressioCompressor, task) -> PressioData:
                data, template = task
                return compressor.decompress(data, template)

            return self._map(work, list(zip(inputs, outputs)))

    # -- process-pool plumbing -------------------------------------------
    def _process_tasks(self, payloads: list[tuple]) -> list:
        """Fan tasks out to a process pool, carrying the trace context.

        When tracing is active each task tuple gains the serialized
        ``pressio-spanwire/1`` wire; workers trace themselves and return
        their span fragments in-band alongside the result, which are
        stitched under this call's ``process_pool:invoke`` span with
        per-pid synthetic thread ids (the children ran *concurrently*,
        so their durations may legitimately sum past the invoke span).
        """
        from concurrent.futures import ProcessPoolExecutor

        workers = min(self._nthreads, len(payloads))
        wire = _propagate.serialize_context()
        tasks = [p[1] + (wire,) for p in payloads]
        kind = payloads[0][0]
        fn = _process_compress if kind == "c" else _process_decompress
        ctx = _trace.ACTIVE
        invoke = None
        if ctx is not None:
            invoke = ctx.start_span("process_pool:invoke",
                                    plugin=self.get_name(),
                                    n_tasks=len(tasks),
                                    n_workers=workers)
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(fn, tasks))
        finally:
            if invoke is not None:
                ctx.finish_span(invoke)
        if invoke is not None:
            for _, fragments in results:
                if fragments:
                    _propagate.stitch(ctx, fragments, invoke,
                                      same_thread=False)
        return [blob for blob, _ in results]

    def _process_map_compress(self, inputs: list[PressioData]
                              ) -> list[PressioData]:
        from ..core.dtype import dtype_to_numpy

        tasks = []
        for data in inputs:
            arr = np.asarray(data.to_numpy())
            tasks.append(("c", (self._inner_id, self._picklable_options,
                                arr.tobytes(), str(arr.dtype), data.dims)))
        return [PressioData.from_bytes(blob)
                for blob in self._process_tasks(tasks)]

    def _process_map_decompress(self, inputs: list[PressioData],
                                outputs: list[PressioData]
                                ) -> list[PressioData]:
        from ..core.dtype import dtype_to_numpy

        tasks = []
        for data, template in zip(inputs, outputs):
            np_dtype = dtype_to_numpy(template.dtype)
            tasks.append(("d", (self._inner_id, self._picklable_options,
                                data.to_bytes(), str(np_dtype),
                                template.dims)))
        results = []
        for blob, template in zip(self._process_tasks(tasks), outputs):
            np_dtype = dtype_to_numpy(template.dtype)
            arr = np.frombuffer(blob, dtype=np_dtype).reshape(template.dims)
            results.append(PressioData.from_numpy(arr, copy=False))
        return results


@compressor_plugin("many_dependent")
class ManyDependentCompressor(_ParallelBase):
    """Pipelined compression forwarding a measured value between buffers.

    For each buffer after the first, the metric result named by
    ``many_dependent:from_metric`` (measured on the most recently
    completed buffer) is written into the inner compressor option named
    by ``many_dependent:to_option`` before compressing — forwarding a
    configuration guess to subsequent time steps.
    """

    def __init__(self) -> None:
        super().__init__()
        self._from_metric = "error_stat:value_range"
        self._to_option = ""
        self._scale = 1.0

    def _meta_options(self) -> PressioOptions:
        opts = super()._meta_options()
        opts.set("many_dependent:from_metric", self._from_metric)
        opts.set("many_dependent:to_option", self._to_option)
        opts.set("many_dependent:scale", float(self._scale))
        return opts

    def _set_meta_options(self, options: PressioOptions) -> None:
        super()._set_meta_options(options)
        self._from_metric = str(self._take(
            options, "many_dependent:from_metric", OptionType.STRING,
            self._from_metric))
        self._to_option = str(self._take(
            options, "many_dependent:to_option", OptionType.STRING,
            self._to_option))
        self._scale = float(self._take(
            options, "many_dependent:scale", OptionType.DOUBLE, self._scale))

    def _compress(self, input: PressioData) -> PressioData:
        return self._inner.compress(input)

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        return self._inner.decompress(input, output)

    def compress_many(self, inputs: list[PressioData]) -> list[PressioData]:
        results: list[PressioData] = []
        probe = metrics_registry.create("error_stat")
        previous = self._inner.get_metrics()
        self._inner.set_metrics(probe)
        try:
            for i, data in enumerate(inputs):
                if i > 0 and self._to_option:
                    measured = probe.get_metrics_results().get(self._from_metric)
                    if measured is not None:
                        opts = PressioOptions(
                            {self._to_option: float(measured) * self._scale}
                        )
                        with _trace.stage("many_dependent:forward",
                                          to_option=self._to_option,
                                          value=float(measured) * self._scale):
                            rc = self._inner.set_options(opts)
                        _trace.add_counter("many_dependent:forwards")
                        if rc != 0:
                            raise InvalidOptionError(self._inner.error_msg())
                compressed = self._inner.compress(data)
                # error_stat needs the decompressed side to produce values;
                # run the round trip so the forward value exists
                if self._to_option:
                    template = PressioData.empty(data.dtype, data.dims)
                    self._inner.decompress(compressed, template)
                results.append(compressed)
        finally:
            self._inner.set_metrics(previous)
        return results
