"""MGARD-style multigrid error-bounded compressor (from scratch)."""

from .api import (
    MIN_DIM,
    compress,
    decompress,
    max_levels,
    mgard_compress,
    mgard_decompress,
)

__all__ = [
    "compress",
    "decompress",
    "mgard_compress",
    "mgard_decompress",
    "MIN_DIM",
    "max_levels",
]
