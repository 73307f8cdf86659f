"""Meta-compressor plugins (paper Section IV-D).

Importing this package registers: ``transpose``, ``resize``,
``delta_encoding``, ``linear_quantizer``, ``sample``, ``chunking``,
``many_independent``, ``many_dependent``, ``fault_injector``,
``error_injector``, ``switch``, ``opt``, ``sparse``.  The parallel ones
share one worker pool (:mod:`repro.meta.executor`).
"""

from .base import MetaCompressor
from .injectors import ErrorInjectorCompressor, FaultInjectorCompressor
from .opt import OptCompressor
from .parallel import (
    ChunkingCompressor,
    ManyDependentCompressor,
    ManyIndependentCompressor,
)
from .sparse import SparseCompressor
from .switch import SwitchCompressor
from .transforms import (
    DeltaEncodingCompressor,
    LinearQuantizerCompressor,
    ResizeCompressor,
    SampleCompressor,
    TransposeCompressor,
)

__all__ = [
    "MetaCompressor",
    "TransposeCompressor",
    "ResizeCompressor",
    "DeltaEncodingCompressor",
    "LinearQuantizerCompressor",
    "SampleCompressor",
    "ChunkingCompressor",
    "ManyIndependentCompressor",
    "ManyDependentCompressor",
    "FaultInjectorCompressor",
    "ErrorInjectorCompressor",
    "SwitchCompressor",
    "SparseCompressor",
    "OptCompressor",
]
