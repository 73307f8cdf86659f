"""ZFP-style transform-based error-bounded compressor (from scratch)."""

from .api import (
    zfp_compress,
    zfp_decompress,
    zfp_field,
    zfp_field_1d,
    zfp_field_2d,
    zfp_field_3d,
    zfp_field_4d,
    zfp_field_free,
    zfp_stream,
    zfp_stream_close,
    zfp_stream_maximum_size,
    zfp_stream_open,
    zfp_stream_set_accuracy,
    zfp_stream_set_precision,
    zfp_stream_set_rate,
    zfp_stream_set_reversible,
    zfp_type_double,
    zfp_type_float,
    zfp_type_int32,
    zfp_type_int64,
)
from .core import (
    BLOCK_SIDE,
    MODE_ACCURACY,
    MODE_PRECISION,
    MODE_RATE,
    MODE_REVERSIBLE,
    compress,
    decompress,
)

__all__ = [
    "compress", "decompress",
    "BLOCK_SIDE", "MODE_ACCURACY", "MODE_PRECISION", "MODE_RATE",
    "MODE_REVERSIBLE",
    "zfp_stream", "zfp_field", "zfp_stream_open", "zfp_stream_close",
    "zfp_stream_set_accuracy", "zfp_stream_set_precision",
    "zfp_stream_set_rate", "zfp_stream_set_reversible",
    "zfp_field_1d", "zfp_field_2d", "zfp_field_3d", "zfp_field_4d",
    "zfp_field_free",
    "zfp_compress", "zfp_decompress", "zfp_stream_maximum_size",
    "zfp_type_float", "zfp_type_double", "zfp_type_int32", "zfp_type_int64",
]
