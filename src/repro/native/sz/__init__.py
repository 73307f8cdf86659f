"""SZ-style prediction-based error-bounded lossy compressor (from scratch).

See :mod:`repro.native.sz.core` for the algorithm and
:mod:`repro.native.sz.api` for the C-flavoured global-state API surface.
"""

from .api import (
    SZ_compress,
    SZ_compress_args,
    SZ_decompress,
    SZ_Finalize,
    SZ_Init,
    SZ_Init_Params,
    SZ_is_initialized,
    SZNotInitializedError,
    sz_datatype_to_numpy,
)
from .core import (
    compress,
    decompress,
    effective_abs_bound,
)
from .params import (
    ABS,
    ABS_AND_REL,
    ABS_OR_REL,
    ERROR_BOUND_MODES,
    NORM,
    PSNR,
    PW_REL,
    REL,
    SZ_BEST_COMPRESSION,
    SZ_BEST_SPEED,
    SZ_DEFAULT_COMPRESSION,
    SZ_DOUBLE,
    SZ_FLOAT,
    SZ_INT8,
    SZ_INT16,
    SZ_INT32,
    SZ_INT64,
    SZ_UINT8,
    SZ_UINT16,
    SZ_UINT32,
    SZ_UINT64,
    sz_params,
)

__all__ = [
    "compress", "decompress",
    "effective_abs_bound",
    "SZ_Init", "SZ_Init_Params", "SZ_Finalize", "SZ_compress",
    "SZ_compress_args", "SZ_decompress", "SZ_is_initialized",
    "SZNotInitializedError", "sz_datatype_to_numpy", "sz_params",
    "ABS", "REL", "ABS_AND_REL", "ABS_OR_REL", "PSNR", "PW_REL", "NORM",
    "ERROR_BOUND_MODES",
    "SZ_BEST_SPEED", "SZ_DEFAULT_COMPRESSION", "SZ_BEST_COMPRESSION",
    "SZ_FLOAT", "SZ_DOUBLE", "SZ_INT8", "SZ_INT16", "SZ_INT32", "SZ_INT64",
    "SZ_UINT8", "SZ_UINT16", "SZ_UINT32", "SZ_UINT64",
]
