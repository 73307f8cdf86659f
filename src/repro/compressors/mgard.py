"""LibPressio plugin for the MGARD native.

Surfaces MGARD's tolerance/s-norm parameters as typed options and keeps
its hard requirement of >= 3 samples per dimension observable through
``check_options``-style early validation and clean error reporting.
"""

from __future__ import annotations

from ..core.compressor import PressioCompressor
from ..core.configurable import Stability, ThreadSafety
from ..core.data import PressioData
from ..core.dtype import DType, dtype_to_numpy
from ..core.options import OptionType, PressioOptions
from ..core.registry import compressor_plugin
from ..core.status import (InvalidDimensionsError, InvalidOptionError,
                           InvalidTypeError)
from ..native import mgard as native_mgard

__all__ = ["MGARDCompressor"]


@compressor_plugin("mgard")
class MGARDCompressor(PressioCompressor):
    """Multigrid error-bounded lossy compression via the MGARD pipeline."""

    thread_safety = "serialized"

    def __init__(self) -> None:
        super().__init__()
        self._tolerance = 1e-3
        self._s = 0.0
        self._backend = "zlib"
        self._level = 1

    # -- options ----------------------------------------------------------
    def _options(self) -> PressioOptions:
        opts = PressioOptions()
        opts.set("mgard:tolerance", float(self._tolerance))
        opts.set("mgard:s", float(self._s))
        opts.set("mgard:backend", self._backend)
        opts.set("pressio:abs", float(self._tolerance))
        return opts

    def _set_options(self, options: PressioOptions) -> None:
        tol = self._take(options, "mgard:tolerance", OptionType.DOUBLE,
                         self._tolerance)
        tol = self._take(options, "pressio:abs", OptionType.DOUBLE, tol)
        if tol <= 0:
            raise InvalidOptionError("mgard:tolerance must be positive")
        self._tolerance = float(tol)
        self._s = float(self._take(options, "mgard:s", OptionType.DOUBLE,
                                   self._s))
        self._backend = str(self._take(options, "mgard:backend",
                                       OptionType.STRING, self._backend))

    def _check_options(self, options: PressioOptions) -> None:
        tol = options.get("mgard:tolerance", options.get("pressio:abs"))
        if tol is not None and float(tol) <= 0:
            raise InvalidOptionError("mgard:tolerance must be positive")

    def _configuration(self) -> PressioOptions:
        cfg = PressioOptions()
        cfg.set("pressio:thread_safe", ThreadSafety.MULTIPLE)
        cfg.set("pressio:stability", Stability.STABLE)
        cfg.set("pressio:lossy", True)
        cfg.set("mgard:min_dimension_size", native_mgard.MIN_DIM)
        return cfg

    def _documentation(self) -> PressioOptions:
        docs = PressioOptions()
        docs.set("pressio:description",
                 "MGARD-family multigrid error-bounded lossy compressor")
        docs.set("mgard:tolerance", "absolute L-infinity error tolerance")
        docs.set("mgard:s", "smoothness-norm parameter (0 = infinity norm)")
        docs.set("pressio:abs", "cross-compressor absolute error bound")
        return docs

    def version(self) -> str:
        return "0.1.0.pyrepro"

    # -- compression --------------------------------------------------------
    def _compress(self, input: PressioData) -> PressioData:
        arr = input.to_numpy()
        if arr.dtype.kind not in "fiu":
            raise InvalidTypeError(f"mgard cannot compress dtype {arr.dtype}")
        # the multigrid hierarchy needs >= MIN_DIM samples per dimension;
        # fail here with a taxonomy-coded error instead of deep in the native
        if any(d < native_mgard.MIN_DIM for d in input.dims):
            raise InvalidDimensionsError(
                f"mgard requires >= {native_mgard.MIN_DIM} samples per "
                f"dimension, got dims {tuple(input.dims)}"
            )
        stream = native_mgard.compress(arr, self._tolerance, self._s,
                                       backend=self._backend,
                                       level=self._level)
        return PressioData.from_bytes(stream)

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        expected = output.dims if output.num_dimensions else None
        out = native_mgard.decompress(input.as_memoryview(), expected_dims=expected)
        if output.dtype != DType.BYTE and output.dtype is not None:
            out = out.astype(dtype_to_numpy(output.dtype), copy=False)
        return PressioData.from_numpy(out, copy=False)
