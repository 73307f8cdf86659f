"""The MGARD-family multilevel compression pipeline.

MGARD compresses by representing data on a hierarchy of grids: each
level keeps the even-indexed samples as the coarse approximation and
stores, for every odd-indexed sample, the *detail* left over after
predicting it by linear interpolation of its coarse neighbors — a
multigrid decomposition.  Details and the coarsest grid are then
quantized and entropy coded.

Error control: reconstruction applies ``odd = detail + interp(even)``
level by level.  Linear interpolation does not amplify error, so the
final L-infinity error is at most the sum of the per-level quantizer
errors; with ``L`` detail levels each level gets an equal share
``tol / (L + 1)`` (the coarse grid takes the last share), guaranteeing
the requested absolute bound for ``s = 0``.

Like real MGARD 0.1.0 (paper Section V), every dimension must have at
least 3 samples — the decomposition needs interior points — otherwise
:class:`InvalidDimensionsError` is raised rather than compressing.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from ...core.dtype import dtype_from_numpy, dtype_to_numpy
from ...trace import runtime as _trace
from ...core.status import CorruptStreamError, InvalidDimensionsError
from ...encoders.headers import read_header, write_header
from ...encoders.predictors import lorenzo_decode, lorenzo_encode
from ...encoders.quantize import dequantize_uniform, quantize_uniform
from ...encoders.residual import decode_residuals, encode_residuals
from .. import pool as _pool

__all__ = ["compress", "decompress",
           "MIN_DIM", "max_levels"]

_MAGIC = b"MGD1"
MIN_DIM = 3
_MAX_LEVELS = 12


def max_levels(dims: tuple[int, ...]) -> int:
    """Number of decomposition levels usable for ``dims``.

    A level halves each axis (keeping evens); we stop before any axis
    would drop below :data:`MIN_DIM` samples.
    """
    levels = 0
    cur = list(dims)
    while levels < _MAX_LEVELS:
        nxt = [(n + 1) // 2 for n in cur]
        if any(n < MIN_DIM for n in nxt):
            break
        cur = nxt
        levels += 1
    return levels


# ----------------------------------------------------------------------
# one level of the transform, one axis at a time
# ----------------------------------------------------------------------
def _interp_even(even: np.ndarray, axis: int, n_odd: int) -> np.ndarray:
    """Predict the odd samples from even neighbors by linear interpolation.

    The k-th odd sample sits between even neighbors k and k+1.  When the
    original axis length is even, the last odd sample has no right even
    neighbor and is predicted from its left neighbor alone.
    """

    def take(arr: np.ndarray, start: int, stop: int) -> np.ndarray:
        sl = [slice(None)] * arr.ndim
        sl[axis] = slice(start, stop)
        return arr[tuple(sl)]

    n_even = even.shape[axis]
    # number of odd samples with both neighbors present
    both = n_odd if n_even > n_odd else n_odd - 1
    lo = take(even, 0, n_odd)
    pred = lo.astype(np.float64, copy=True)
    if both > 0:
        hi = take(even, 1, both + 1)
        interior = [slice(None)] * pred.ndim
        interior[axis] = slice(0, both)
        iview = pred[tuple(interior)]
        np.add(take(lo, 0, both), hi, out=iview)
        iview *= 0.5
    return pred


def _split_axis(arr: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """One lifting step along ``axis``: (even part, detail coefficients)."""
    sl_even = [slice(None)] * arr.ndim
    sl_odd = [slice(None)] * arr.ndim
    sl_even[axis] = slice(0, None, 2)
    sl_odd[axis] = slice(1, None, 2)
    even = arr[tuple(sl_even)]
    odd = arr[tuple(sl_odd)]
    # the detail reuses the prediction buffer (fresh in _interp_even)
    detail = _interp_even(even, axis, odd.shape[axis])
    np.subtract(odd, detail, out=detail)
    return even, detail


def _merge_axis(even: np.ndarray, detail: np.ndarray, axis: int,
                full_len: int) -> np.ndarray:
    """Inverse of :func:`_split_axis`."""
    odd = _interp_even(even, axis, detail.shape[axis])
    np.add(detail, odd, out=odd)
    shape = list(even.shape)
    shape[axis] = full_len
    out = np.empty(shape, dtype=np.float64)
    sl_even = [slice(None)] * out.ndim
    sl_odd = [slice(None)] * out.ndim
    sl_even[axis] = slice(0, None, 2)
    sl_odd[axis] = slice(1, None, 2)
    out[tuple(sl_even)] = even
    out[tuple(sl_odd)] = odd
    return out


def _decompose(arr: np.ndarray, levels: int
               ) -> tuple[np.ndarray, list[list[np.ndarray]], list[tuple[int, ...]]]:
    """Full multilevel decomposition.

    Returns (coarse, details, shapes) where ``details[l]`` holds one
    detail array per axis produced at level ``l`` and ``shapes[l]`` is
    the grid shape entering level ``l`` (needed for reconstruction).
    """
    current = arr.astype(np.float64, copy=False)
    details: list[list[np.ndarray]] = []
    shapes: list[tuple[int, ...]] = []
    for _ in range(levels):
        shapes.append(current.shape)
        level_details: list[np.ndarray] = []
        for axis in range(current.ndim):
            current, detail = _split_axis(current, axis)
            level_details.append(detail)
        details.append(level_details)
    return current, details, shapes


def _reconstruct(coarse: np.ndarray, details: list[list[np.ndarray]],
                 shapes: list[tuple[int, ...]]) -> np.ndarray:
    current = coarse
    for level in range(len(details) - 1, -1, -1):
        entry_shape = shapes[level]
        for axis in range(current.ndim - 1, -1, -1):
            # axis lengths as they were mid-level: axes < axis already
            # split at this level, axes >= axis still full
            full_len = entry_shape[axis]
            current = _merge_axis(current, details[level][axis], axis, full_len)
    return current


# ----------------------------------------------------------------------
# public pipeline
# ----------------------------------------------------------------------
def _level_bounds(tol: float, levels: int, s: float, ndim: int) -> list[float]:
    """Per-level quantizer budget; uniform for s=0, geometric otherwise.

    Each level performs one split per axis and each split's detail error
    enters the reconstruction additively, so a level's share is divided
    by ``ndim``; the coarse grid takes the final undivided share.  The
    shares sum to ``tol``, guaranteeing the L-infinity bound for s=0.
    """
    n_shares = levels + 1
    if s == 0.0:
        weights = np.full(n_shares, tol / n_shares)
    else:
        weights = np.array([2.0 ** (s * l) for l in range(n_shares)])
        weights = tol * weights / weights.sum()
    bounds = list(weights[:-1] / ndim) + [float(weights[-1])]
    return [float(b) for b in bounds]


def compress(data: np.ndarray, tol: float, s: float = 0.0,
             backend: str = "zlib", level: int = 1) -> bytes:
    """Compress with an absolute L-infinity tolerance ``tol``.

    ``s`` is the smoothness-norm parameter: 0 targets the infinity norm
    (the only mode with a hard guarantee here); nonzero values skew the
    per-level budgets geometrically, as MGARD's s-norms do.
    """
    arr = np.asarray(data)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if arr.ndim < 1 or arr.ndim > 3:
        raise InvalidDimensionsError(
            f"mgard supports 1-3 dimensions, got {arr.ndim}"
        )
    if any(d < MIN_DIM for d in arr.shape):
        raise InvalidDimensionsError(
            f"mgard requires at least {MIN_DIM} samples per dimension, "
            f"got {arr.shape}"
        )
    if arr.dtype.kind not in "fiu":
        raise TypeError(f"mgard cannot compress dtype {arr.dtype}")
    dtype = dtype_from_numpy(arr.dtype)
    levels = max_levels(arr.shape)
    bounds = _level_bounds(float(tol), levels, float(s), arr.ndim)
    if _trace.ACTIVE is not None:
        span = _trace.stage("mgard:decompose", levels=levels)
    else:
        span = nullcontext()
    with span:
        coarse, details, _shapes = _decompose(
            arr.astype(np.float64, copy=False), levels)
    if _trace.ACTIVE is not None:
        span = _trace.stage("mgard:quantize")
    else:
        span = nullcontext()
    with span:
        # one flat code buffer sized for every piece, quantized into in
        # place of the old build-pieces-then-concatenate sequence
        total = int(sum(d.size for lvl in details for d in lvl)
                    + coarse.size)
        allcodes = _pool.acquire((total,), np.int64)
        try:
            offset = 0
            # finest level gets the first share, coarse grid the last
            for lvl, level_details in enumerate(details):
                eb = bounds[lvl]
                for detail in level_details:
                    n = detail.size
                    scratch = _pool.acquire(detail.shape, np.float64)
                    try:
                        quantize_uniform(
                            detail, eb,
                            out=allcodes[offset:offset + n].reshape(
                                detail.shape),
                            scratch=scratch)
                    finally:
                        _pool.release(scratch)
                    offset += n
            coarse_codes = lorenzo_encode(
                quantize_uniform(coarse, bounds[-1]))
            allcodes[offset:] = coarse_codes.reshape(-1)
        except BaseException:
            _pool.release(allcodes)
            raise
    if _trace.ACTIVE is not None:
        span = _trace.stage("mgard:entropy", backend=backend)
    else:
        span = nullcontext()
    with span:
        try:
            payload = encode_residuals(allcodes, backend=backend, level=level)
        finally:
            _pool.release(allcodes)
    header = write_header(_MAGIC, dtype, arr.shape,
                          doubles=(float(tol), float(s)), ints=(levels,))
    return header + payload


def decompress(stream: bytes | memoryview,
               expected_dims: tuple[int, ...] | None = None) -> np.ndarray:
    """Decompress an MGARD stream back to an ndarray."""
    dtype, dims, doubles, ints, pos = read_header(stream, _MAGIC)
    if expected_dims is not None and tuple(expected_dims) != dims:
        raise CorruptStreamError(
            f"stream dims {dims} do not match expected {tuple(expected_dims)}"
        )
    tol, s = doubles
    levels = ints[0]
    if not (0 <= levels <= _MAX_LEVELS):
        raise CorruptStreamError(
            f"stream declares {levels} decomposition levels "
            f"(limit {_MAX_LEVELS})")
    if not (tol > 0) or not np.isfinite(tol):
        raise CorruptStreamError(f"stream declares invalid tolerance {tol}")
    bounds = _level_bounds(tol, levels, s, len(dims))
    if _trace.ACTIVE is not None:
        span = _trace.stage("mgard:entropy")
    else:
        span = nullcontext()
    with span:
        allcodes = decode_residuals(bytes(memoryview(stream)[pos:]))
    # replay the decomposition shape computation to slice the code buffer
    details_shapes: list[list[tuple[int, ...]]] = []
    cur = list(dims)
    ndim = len(dims)
    for _ in range(levels):
        level_shapes: list[tuple[int, ...]] = []
        shape = list(cur)
        for axis in range(ndim):
            n = shape[axis]
            odd_shape = list(shape)
            odd_shape[axis] = n // 2
            level_shapes.append(tuple(odd_shape))
            shape[axis] = (n + 1) // 2
        details_shapes.append(level_shapes)
        cur = shape
    coarse_shape = tuple(cur)

    offset = 0
    details: list[list[np.ndarray]] = []
    shapes: list[tuple[int, ...]] = []
    run = list(dims)
    if _trace.ACTIVE is not None:
        span = _trace.stage("mgard:dequantize")
    else:
        span = nullcontext()
    with span:
        for lvl in range(levels):
            shapes.append(tuple(run))
            level_details: list[np.ndarray] = []
            for axis in range(ndim):
                dshape = details_shapes[lvl][axis]
                n = int(np.prod(dshape, dtype=np.int64))
                codes = allcodes[offset:offset + n].reshape(dshape)
                offset += n
                level_details.append(dequantize_uniform(codes, bounds[lvl]))
            details.append(level_details)
            run = [(x + 1) // 2 for x in run]
    n_coarse = int(np.prod(coarse_shape, dtype=np.int64))
    if offset + n_coarse != allcodes.size:
        raise CorruptStreamError(
            f"payload holds {allcodes.size} codes, expected {offset + n_coarse}"
        )
    coarse_codes = lorenzo_decode(
        allcodes[offset:offset + n_coarse].reshape(coarse_shape)
    )
    coarse = dequantize_uniform(coarse_codes, bounds[-1])
    if _trace.ACTIVE is not None:
        span = _trace.stage("mgard:reconstruct")
    else:
        span = nullcontext()
    with span:
        out = _reconstruct(coarse, details, shapes)
    np_dtype = dtype_to_numpy(dtype)
    if np_dtype.kind in "iu":
        return np.rint(out).astype(np_dtype)
    return out.astype(np_dtype)
