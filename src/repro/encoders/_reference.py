"""Scalar reference implementations of the vectorized encoder kernels.

Each function here is the straight-line, per-element transliteration of
the algorithm its vectorized counterpart implements.  They exist for two
reasons:

* the property tests (``tests/properties/``) assert the production
  kernels are byte-identical to these across dtypes, degenerate shapes,
  and adversarial values — the reference is simple enough to audit by
  eye;
* they document the algorithms without numpy idiom in the way.

They are **intentionally slow**: per-element Python loops over array
indices.  The hot-path linter (rule HP004) flags exactly this pattern,
and these functions carry hot-path-shaped names on purpose so they show
up in the lint baseline (``lint-baseline.json``) as the canonical
example of a *suppressed* finding — scalar-by-design code that must
never be "fixed" into the production path.

The RZC2 pair is the exception: it keeps the all-64-bit vectorized
codec that the narrow-width one replaced, because per-element loops
over arrays large enough to reach every plane width and the byte
histogram cutoff would be too slow to test with.

Never import this module from production code paths.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "_encode_quantize_reference",
    "_decode_dequantize_reference",
    "_encode_zigzag_reference",
    "_decode_zigzag_reference",
    "_encode_lorenzo_reference",
    "_decode_lorenzo_reference",
    "_encode_bitpack_reference",
    "_decode_bitpack_reference",
    "_encode_rzc2_reference",
    "_decode_rzc2_reference",
]

_U64 = 1 << 64

_BITPACK_CHUNK = 32  # values per RZC2 BITPACK chunk


def _encode_quantize_reference(values: np.ndarray,
                               error_bound: float) -> np.ndarray:
    """Per-element uniform quantizer (matches ``quantize_uniform``)."""
    flat = np.asarray(values).reshape(-1)
    out = np.empty(flat.size, dtype=np.int64)
    step = 2.0 * error_bound
    for i in range(flat.size):
        scaled = np.float64(flat[i]) / step
        if not abs(scaled) < 2 ** 56:  # same overflow guard as production
            if not np.isfinite(np.float64(flat[i])):
                raise ValueError("cannot quantize non-finite values")
            raise ValueError(
                "error bound too small relative to data magnitude")
        out[i] = np.int64(np.rint(scaled))
    return out.reshape(np.asarray(values).shape)


def _decode_dequantize_reference(codes: np.ndarray, error_bound: float,
                                 dtype: np.dtype = np.dtype(np.float64)
                                 ) -> np.ndarray:
    """Per-element inverse of the uniform quantizer."""
    flat = np.asarray(codes).reshape(-1)
    out = np.empty(flat.size, dtype=np.float64)
    step = 2.0 * error_bound
    for i in range(flat.size):
        out[i] = np.float64(flat[i]) * step
    return out.reshape(np.asarray(codes).shape).astype(dtype)


def _encode_zigzag_reference(values: np.ndarray) -> np.ndarray:
    """Per-element zigzag map: 0,-1,1,-2,... -> 0,1,2,3,..."""
    flat = np.ascontiguousarray(values, dtype=np.int64).reshape(-1)
    out = np.empty(flat.size, dtype=np.uint64)
    for i in range(flat.size):
        v = int(flat[i])
        out[i] = (2 * v if v >= 0 else -2 * v - 1) % _U64
    return out.reshape(np.asarray(values).shape)


def _decode_zigzag_reference(codes: np.ndarray) -> np.ndarray:
    """Per-element inverse zigzag map."""
    flat = np.asarray(codes, dtype=np.uint64).reshape(-1)
    out = np.empty(flat.size, dtype=np.int64)
    for i in range(flat.size):
        u = int(flat[i])
        v = u >> 1 if u % 2 == 0 else -((u + 1) >> 1)
        out[i] = np.int64(v % _U64 - _U64 if v % _U64 >= _U64 // 2
                          else v % _U64)
    return out.reshape(np.asarray(codes).shape)


def _lorenzo_prediction(arr_int: list[int], shape: tuple[int, ...],
                        strides: tuple[int, ...], flat_idx: int,
                        coords: tuple[int, ...]) -> int:
    """Inclusion-exclusion corner prediction at one site (mod 2^64)."""
    ndim = len(shape)
    pred = 0
    # every nonempty subset of axes contributes a corner neighbor with
    # sign (-1)^(|subset|+1)
    for mask in range(1, 1 << ndim):
        off = 0
        ok = True
        bits = 0
        for axis in range(ndim):
            if mask >> axis & 1:
                if coords[axis] == 0:
                    ok = False
                    break
                off += strides[axis]
                bits += 1
        if not ok:
            continue
        sign = 1 if bits % 2 == 1 else -1
        pred += sign * arr_int[flat_idx - off]
    return pred % _U64


def _encode_lorenzo_reference(quantized: np.ndarray) -> np.ndarray:
    """Per-element d-dimensional Lorenzo residuals (wrap-around uint64).

    Out-of-range neighbors count as zero, matching the vectorized
    first-difference composition in ``lorenzo_encode``.
    """
    arr = np.ascontiguousarray(quantized, dtype=np.int64)
    shape = arr.shape
    strides = tuple(int(s) // arr.itemsize for s in arr.strides)
    vals = [int(v) % _U64 for v in arr.reshape(-1)]
    out = np.empty(len(vals), dtype=np.uint64)
    for flat_idx, coords in enumerate(np.ndindex(*shape) if shape
                                      else [()]):
        pred = _lorenzo_prediction(vals, shape, strides, flat_idx, coords)
        out[flat_idx] = (vals[flat_idx] - pred) % _U64
    return out.reshape(shape).view(np.int64)


def _decode_lorenzo_reference(residuals: np.ndarray) -> np.ndarray:
    """Per-element inverse: reconstruct each site from decoded neighbors."""
    arr = np.ascontiguousarray(residuals, dtype=np.int64)
    shape = arr.shape
    strides = tuple(int(s) // arr.itemsize for s in arr.strides)
    res = [int(v) % _U64 for v in arr.reshape(-1)]
    vals: list[int] = [0] * len(res)
    for flat_idx, coords in enumerate(np.ndindex(*shape) if shape
                                      else [()]):
        pred = _lorenzo_prediction(vals, shape, strides, flat_idx, coords)
        vals[flat_idx] = (res[flat_idx] + pred) % _U64
    out = np.empty(len(vals), dtype=np.uint64)
    for i in range(len(vals)):
        out[i] = vals[i]
    return out.reshape(shape).view(np.int64)


def _encode_bitpack_reference(plane: np.ndarray) -> bytes:
    """Per-bit RZC2 BITPACK body of a uint8 plane.

    Matches ``residual._bitpack_chunks`` on the zero-padded plane: the
    chunk widths two per byte (high nibble first), then every chunk of
    width 1, then every chunk of width 2, ... in chunk order, each
    value's low ``width`` bits written MSB first.
    """
    vals = [int(v) for v in np.asarray(plane, dtype=np.uint8).reshape(-1)]
    nchunks = (len(vals) + _BITPACK_CHUNK - 1) // _BITPACK_CHUNK
    vals += [0] * (nchunks * _BITPACK_CHUNK - len(vals))
    widths = []
    for c in range(nchunks):
        chunk = vals[c * _BITPACK_CHUNK:(c + 1) * _BITPACK_CHUNK]
        widths.append(max(chunk).bit_length())
    out = bytearray()
    for c in range(0, nchunks, 2):
        low = widths[c + 1] if c + 1 < nchunks else 0
        out.append(widths[c] << 4 | low)
    bits: list[int] = []
    for w in range(1, 9):
        for c in range(nchunks):
            if widths[c] != w:
                continue
            for v in vals[c * _BITPACK_CHUNK:(c + 1) * _BITPACK_CHUNK]:
                for b in range(w - 1, -1, -1):
                    bits.append(v >> b & 1)
    for i in range(0, len(bits), 8):
        byte = 0
        for bit in bits[i:i + 8]:
            byte = byte << 1 | bit
        out.append(byte)
    return bytes(out)


def _decode_bitpack_reference(body: bytes, n: int) -> np.ndarray:
    """Per-bit inverse of :func:`_encode_bitpack_reference` (n uint8).

    Raises the same ``ValueError`` messages as the production decoder
    on a width nibble above 8 and on a body of the wrong length.
    """
    data = bytes(body)
    nchunks = (n + _BITPACK_CHUNK - 1) // _BITPACK_CHUNK
    nwb = (nchunks + 1) // 2
    widths = []
    for c in range(nchunks):
        byte = data[c // 2] if c // 2 < len(data) else 0
        widths.append(byte >> 4 if c % 2 == 0 else byte & 0x0F)
    if any(w > 8 for w in widths):
        raise ValueError("corrupt residual stream: bitpack width > 8")
    if len(data) - nwb != 4 * sum(widths):
        raise ValueError("corrupt residual stream: bitpack size mismatch")
    vals = [0] * (nchunks * _BITPACK_CHUNK)
    bitpos = 8 * nwb
    for w in range(1, 9):
        for c in range(nchunks):
            if widths[c] != w:
                continue
            for j in range(_BITPACK_CHUNK):
                v = 0
                for _ in range(w):
                    v = v << 1 | (data[bitpos // 8] >> (7 - bitpos % 8) & 1)
                    bitpos += 1
                vals[c * _BITPACK_CHUNK + j] = v
    out = np.empty(n, dtype=np.uint8)
    for i in range(n):
        out[i] = vals[i]
    return out


def _encode_rzc2_reference(residuals: np.ndarray, backend: str = "zlib",
                           level: int = 1) -> bytes:
    """RZC2 stream with every step at 64 bits (matches ``_encode_rzc2``).

    The uint64 zigzag codes give the plane count from their maximum and
    every plane is a strided column of their little-endian bytes.  Each
    plane picks its encoding through the production ``_encode_plane``;
    the plane coders and the byte histogram it decides from have parity
    tests of their own.
    """
    from . import residual

    r = np.ascontiguousarray(residuals, dtype=np.int64).reshape(-1)
    n = r.size
    codes = (r.view(np.uint64) << np.uint64(1)) \
        ^ (r >> np.int64(63)).view(np.uint64)
    maxc = int(codes.max()) if n else 0
    nplanes = (maxc.bit_length() + 7) // 8
    out = bytearray(b"RZC2")
    out += np.uint64(n).tobytes()
    out.append(nplanes)
    out.append(residual._BACKEND_IDS[backend])
    planes8 = codes.astype("<u8").view(np.uint8).reshape(n, 8)
    for p in range(nplanes):
        tag, payload = residual._encode_plane(
            np.ascontiguousarray(planes8[:, p]), level, backend == "zlib")
        out.append(tag)
        out += np.uint64(len(payload)).tobytes()
        out += payload
    return bytes(out)


def _decode_rzc2_reference(stream: bytes) -> np.ndarray:
    """Inverse of :func:`_encode_rzc2_reference` (int64, not pooled).

    Every plane is decoded by the production ``_decode_plane`` and
    or-ed into uint64 codes at its byte offset.  Raises the same
    ``ValueError`` messages as the production decoder on a plane count
    above 8, a truncated plane and trailing bytes.
    """
    from . import residual

    view = memoryview(bytes(stream))
    n = int(np.frombuffer(view[4:12], dtype="<u8")[0])
    nplanes = view[12]
    if view[13] not in residual._BACKEND_NAMES:
        raise ValueError(f"unknown lossless backend id {view[13]}")
    if nplanes > 8:
        raise ValueError(f"corrupt residual stream: {nplanes} byte planes")
    codes = np.zeros(n, dtype=np.uint64)
    plane = np.empty(n, dtype=np.uint8)
    pos = 14
    for p in range(nplanes):
        if pos + 9 > len(view):
            raise ValueError("corrupt residual stream: truncated plane")
        tag = view[pos]
        plen = int(np.frombuffer(view[pos + 1:pos + 9], dtype="<u8")[0])
        payload = view[pos + 9:pos + 9 + plen]
        if len(payload) != plen:
            raise ValueError("corrupt residual stream: truncated plane")
        pos += 9 + plen
        residual._decode_plane(tag, payload, n, plane)
        codes |= plane.astype(np.uint64) << np.uint64(8 * p)
    if pos != len(view):
        raise ValueError("corrupt residual stream: trailing bytes")
    return ((codes >> np.uint64(1)).view(np.int64)
            ^ -(codes & np.uint64(1)).view(np.int64))
