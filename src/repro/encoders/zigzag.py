"""Zigzag mapping between signed and unsigned integers.

Maps 0, -1, 1, -2, 2, ... to 0, 1, 2, 3, 4, ... so that residuals centered
on zero become small unsigned values, which downstream byte/entropy coders
exploit.  All operations are vectorized and overflow-safe for the full
range of their width (the arithmetic is done in two's complement).

Both directions work at the width of their input: a signed ``intN``
array maps to ``uintN`` codes and back, so a caller that knows its
values fit in 8 or 16 bits pays for 8 or 16 bits.  Any other input
(unsigned or non-integer values to encode, signed or non-integer codes
to decode) is first cast to int64 or uint64.  The code of a value is
the same at every width that holds the value.

Both directions accept ``out``/``scratch`` buffers (of the input's
width, matching shape) so the hot paths can run on pooled memory
without allocating; with both provided, no arrays are created.  ``out``
may be the input itself: the map then runs in place.
"""

from __future__ import annotations

import numpy as np

__all__ = ["zigzag_encode", "zigzag_decode"]


def zigzag_encode(values: np.ndarray,
                  out: np.ndarray | None = None,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """Map a signed integer array to unsigned zigzag codes.

    ``v >= 0 -> 2v`` and ``v < 0 -> -2v - 1``; computed branch-free as
    ``(v << 1) ^ (v >> (bits - 1))`` in two's complement.
    """
    v = np.asarray(values)
    if v.dtype.kind != "i":
        v = v.astype(np.int64)
    v = np.ascontiguousarray(v)
    udt = np.dtype(f"u{v.dtype.itemsize}")
    u = v.view(udt)
    top = v.dtype.type(8 * v.dtype.itemsize - 1)
    if out is None or scratch is None:
        sign = np.ascontiguousarray(v >> top).view(udt)
        return (u << udt.type(1)) ^ sign
    o = out.view(udt).reshape(v.shape)
    s = scratch.view(udt).reshape(v.shape)
    np.right_shift(v, top, out=s.view(v.dtype))
    np.left_shift(u, udt.type(1), out=o)
    np.bitwise_xor(o, s, out=o)
    return o


def zigzag_decode(codes: np.ndarray,
                  out: np.ndarray | None = None,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    u = np.asarray(codes)
    if u.dtype.kind != "u":
        u = u.astype(np.uint64)
    sdt = np.dtype(f"i{u.dtype.itemsize}")
    one = u.dtype.type(1)
    if out is None or scratch is None:
        half = (u >> one).view(sdt)
        sign = -(u & one).view(sdt)
        return half ^ sign
    o = out.view(sdt).reshape(u.shape)
    s = scratch.view(u.dtype).reshape(u.shape)
    np.right_shift(u, one, out=s)
    np.bitwise_and(u, one, out=o.view(u.dtype))
    np.negative(o, out=o)
    np.bitwise_xor(s.view(sdt), o, out=o)
    return o
