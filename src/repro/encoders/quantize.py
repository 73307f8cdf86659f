"""Linear quantization helpers shared by the lossy natives.

``quantize_uniform`` maps reals onto integer bins of width ``2*eb`` so
that dequantization reconstructs within ±eb — the textbook error-bounded
quantizer every abs-bound lossy compressor in the paper builds on.

The hot path is written as a fixed number of whole-array passes with no
data-dependent branches: scale, one validation ``max``/``min`` pair
(NaN propagates through both, so non-finite input and overflow share a
single check — the error kind is only disambiguated on the cold raise
path), round in place, cast.  Callers on the native hot paths
pass ``out=``/``scratch=`` buffers from :mod:`repro.native.pool` to
keep the per-operation allocation count at zero.
"""

from __future__ import annotations

import numpy as np

__all__ = ["quantize_uniform", "dequantize_uniform", "safe_quantizer_step"]

# |code| beyond this risks int64 overflow in the Lorenzo stage, which sums
# up to 2**ndim codes; stay far below 2**63.
_MAX_CODE = 2**56


def quantize_uniform(values: np.ndarray, error_bound: float,
                     out: np.ndarray | None = None,
                     scratch: np.ndarray | None = None) -> np.ndarray:
    """Quantize to int64 codes with bin width ``2*error_bound``.

    Guarantees ``|value - dequantize(code)| <= eb*(1+u) + u*|value|``
    elementwise for finite inputs, where ``u`` is the double-precision
    unit roundoff (2^-53) — i.e. the mathematical bound ``eb`` up to one
    rounding of the scaled value.  Raises when the bound is so tight
    relative to the value magnitudes that codes would overflow, or when
    the input holds non-finite values.

    ``out`` (int64, matching shape) receives the codes without a fresh
    allocation; ``scratch`` (float64, matching shape) is used for the
    scaled intermediate.  Both default to fresh arrays.
    """
    if error_bound <= 0:
        raise ValueError(f"error_bound must be positive, got {error_bound}")
    arr = np.asarray(values)
    if scratch is not None and arr.size:
        # dtype= pins the computation to float64 even for float32 input,
        # matching the allocation path's astype-then-divide exactly
        scaled = np.divide(arr, 2.0 * error_bound, out=scratch,
                           dtype=np.float64)
    else:
        scaled = np.asarray(arr, dtype=np.float64) / (2.0 * error_bound)
    if arr.size:
        # max and -min instead of max(|x|): no full-size temporary.  NaN
        # propagates through both reductions and fails every comparison,
        # so this single check catches both non-finite input (NaN peak,
        # or inf >= bound) and overflow.
        peak = max(float(scaled.max()), -float(scaled.min()))
        if not peak < _MAX_CODE:
            if not np.all(np.isfinite(arr)):
                raise ValueError("cannot quantize non-finite values")
            raise ValueError(
                "error bound too small relative to data magnitude: "
                f"max |value/2eb| = {peak:.3g} >= {_MAX_CODE:g}"
            )
    np.rint(scaled, out=scaled)
    if out is not None:
        np.copyto(out, scaled, casting="unsafe")
        return out
    return scaled.astype(np.int64)


def dequantize_uniform(codes: np.ndarray, error_bound: float,
                       dtype: np.dtype = np.dtype(np.float64),
                       out: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct bin centers from int64 codes.

    ``out`` (of ``dtype``, matching shape) receives the reconstruction
    without allocating.
    """
    if error_bound <= 0:
        raise ValueError(f"error_bound must be positive, got {error_bound}")
    with np.errstate(over="ignore", invalid="ignore"):
        # absurd step values only arise from corrupted streams; the
        # resulting inf/nan buffers fail later validation rather than
        # spraying warnings here
        if out is not None:
            np.multiply(np.asarray(codes), 2.0 * error_bound,
                        out=out, casting="unsafe")
            return out
        scaled = np.asarray(codes, dtype=np.float64) * (2.0 * error_bound)
        return scaled.astype(dtype, copy=False)


def safe_quantizer_step(values: np.ndarray, requested_eb: float) -> float:
    """Largest usable error bound not exceeding ``requested_eb``.

    Currently the identity with validation; kept as the single place a
    platform-specific floor could be applied.
    """
    if requested_eb <= 0:
        raise ValueError("error bound must be positive")
    return float(requested_eb)
