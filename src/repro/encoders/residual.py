"""Byte-plane residual codec for prediction residuals.

Prediction-based compressors (our sz, zfp, mgard, fpzip natives)
produce signed residual arrays dominated by values near zero.  Two
stream formats live here:

* **RZC2** (current): residuals are zigzag mapped and the codes are
  split into little-endian *byte planes*; only the planes up to the
  largest code's byte length are stored, and each plane independently
  picks the cheapest of five encodings from byte statistics computed in
  single vectorized passes:

  - ``CONST`` — every byte equal: 1 byte;
  - ``RAW`` — verbatim;
  - ``SPARSE`` — positions + values of the nonzero bytes;
  - ``BITPACK`` — 32-value chunks packed at each chunk's own bit width
    (32·w bits is always whole bytes; chunks are grouped by width with
    one stable argsort, and each width packs 8 values per uint64 word
    with shift-or steps — no per-chunk loop, no per-bit expansion);
  - ``ZLIB`` — DEFLATE, tried only when a byte-histogram entropy
    estimate predicts it beats the structural encodings by enough to
    be worth its CPU cost (always worth trying at high effort levels).

  Both directions run on pooled scratch (:mod:`repro.native.pool`) and
  never scan byte-by-byte in Python.  They also run at the width of the
  values: the plane count comes from the residuals' extremes, the
  zigzag codes live in the narrowest of uint8/16/32/64 that holds that
  many planes, and decode widens to int64 once, at the end.  A code is
  the same at every width that holds it, so the stream does not depend
  on the width it was built at.

* **RZC1** (legacy): ``min(code, 255)`` bytes plus an 8-byte overflow
  stream, the whole payload squeezed by a ``zlib``-family backend.
  Decode support is retained for old streams, and two cases still
  *encode* RZC1: the ``bz2``/``lzma`` backends (a strong generic
  entropy stage beats byte-plane structure when the caller asked for
  maximum compression) and arrays below ``_RZC1_CUTOFF`` elements
  (per-plane framing would dominate the payload).
"""

from __future__ import annotations

import bz2
import lzma
import sys
import zlib

import numpy as np

from ..native import pool as _pool
from .zigzag import zigzag_decode, zigzag_encode

__all__ = ["encode_residuals", "decode_residuals", "LOSSLESS_BACKENDS"]

_MAGIC = b"RZC1"
_MAGIC2 = b"RZC2"

_COMPRESSORS = {
    "zlib": lambda b, lvl: zlib.compress(b, lvl),
    "bz2": lambda b, lvl: bz2.compress(b, min(max(lvl, 1), 9)),
    "lzma": lambda b, lvl: lzma.compress(b, preset=min(max(lvl, 0), 9)),
    "none": lambda b, lvl: b,
}


def _deflate_plane(plane: np.ndarray, level: int) -> bytes:
    """DEFLATE one byte plane; any zlib stream, so decode is unchanged.

    At low effort, greedy level-1 LZ matching on near-incompressible
    byte planes is all cost and (measured on the bench grid) no gain —
    ``Z_HUFFMAN_ONLY`` is both smaller and ~2x faster there, because a
    byte plane's redundancy is almost entirely first-order.  High
    levels try the default match-searching strategy *as well* and keep
    the smaller stream, so more effort can never produce a larger
    plane than less effort did.
    """
    obj = zlib.compressobj(1, zlib.DEFLATED, zlib.MAX_WBITS, 9,
                           zlib.Z_HUFFMAN_ONLY)
    huff = obj.compress(plane) + obj.flush()
    if level <= 4:
        return huff
    deep = zlib.compress(plane, min(level, 9))
    return deep if len(deep) < len(huff) else huff
_DECOMPRESSORS = {
    "zlib": zlib.decompress,
    "bz2": bz2.decompress,
    "lzma": lzma.decompress,
    "none": lambda b: b,
}

LOSSLESS_BACKENDS = tuple(sorted(_COMPRESSORS))

_BACKEND_IDS = {name: i for i, name in enumerate(sorted(_COMPRESSORS))}
_BACKEND_NAMES = {i: name for name, i in _BACKEND_IDS.items()}

# plane encodings
_P_CONST = 0
_P_RAW = 1
_P_SPARSE = 2
_P_BITPACK = 3
_P_ZLIB = 4

_CHUNK = 32  # values per BITPACK chunk; 32*w bits is always whole bytes

#: below this many residuals, RZC2's per-plane framing dominates the
#: payload and RZC1's single squeezed stream is both smaller and no
#: slower, so tiny arrays keep the legacy format on encode too
_RZC1_CUTOFF = 2048

#: from this many bytes up, a plane's byte histogram is counted over its
#: uint16 view (:func:`_byte_counts`); measured crossover on a 2-vCPU
#: VM, numpy 2.4: 128 KiB planes take ~0.2 ms either way, 2 MiB planes
#: 3.8-4.2 ms per byte vs 2.3-2.8 ms per pair, 4 KiB planes 8 us vs 60 us
_WIDE_HIST_BYTES = 1 << 17

#: bit length of every possible byte value, for vectorized width lookup
_BITLEN8 = np.array([int(v).bit_length() for v in range(256)],
                    dtype=np.uint8)

_LITTLE = sys.byteorder == "little"


def encode_residuals(residuals: np.ndarray, backend: str = "zlib",
                     level: int = 1) -> bytes:
    """Encode a signed int64 residual array to a self-describing stream."""
    if backend not in _COMPRESSORS:
        raise ValueError(f"unknown lossless backend {backend!r}; "
                         f"choose from {LOSSLESS_BACKENDS}")
    if backend in ("bz2", "lzma") or residuals.size < _RZC1_CUTOFF:
        return _encode_rzc1(residuals, backend, level)
    return _encode_rzc2(residuals, backend, level)


def decode_residuals(stream: bytes | memoryview) -> np.ndarray:
    """Decode a stream produced by :func:`encode_residuals` to int64.

    pool-ownership: caller — an RZC2 result is a pooled buffer
    (:mod:`repro.native.pool`); callers hand it back with
    ``pool.release`` once nothing reads it any more.  Releasing a
    non-pooled result (RZC1, empty) is a no-op, so release it
    unconditionally.
    """
    view = memoryview(stream)
    magic = bytes(view[:4])
    if magic == _MAGIC2:
        return _decode_rzc2(view)
    if magic == _MAGIC:
        return _decode_rzc1(view)
    raise ValueError("not a residual stream (bad magic)")


# ----------------------------------------------------------------------
# RZC2: byte planes
# ----------------------------------------------------------------------
def _code_width(nplanes: int) -> int:
    """Bytes per value of the narrowest integer holding ``nplanes``."""
    for width in (1, 2, 4):
        if nplanes <= width:
            return width
    return 8


def _encode_rzc2(residuals: np.ndarray, backend: str, level: int) -> bytes:
    r = np.ascontiguousarray(residuals, dtype=np.int64).reshape(-1)
    n = r.size
    allow_zlib = backend == "zlib"
    out = bytearray(_MAGIC2)
    out += np.uint64(n).tobytes()
    # the largest zigzag code from the extremes alone; Python ints, so
    # the int64 limits cannot overflow
    maxc = max(2 * int(r.max()), -2 * int(r.min()) - 1) if n else 0
    nplanes = (maxc.bit_length() + 7) // 8
    out.append(nplanes)
    out.append(_BACKEND_IDS[backend])
    if nplanes == 0:
        return bytes(out)
    # every residual fits the signed integer of the planes' width, where
    # the zigzag gives the same codes it gives at 64 bits
    width = _code_width(nplanes)
    zz = _pool.acquire(n, f"i{width}")
    scratch = _pool.acquire(n, f"i{width}")
    plane_buf = _pool.acquire(n, np.uint8)
    try:
        np.copyto(zz, r, casting="unsafe")
        codes = zigzag_encode(zz, out=zz, scratch=scratch)
        if _LITTLE:
            planes8 = codes.view(np.uint8).reshape(n, width)
        else:
            planes8 = codes.astype(f"<u{width}").view(np.uint8) \
                .reshape(n, width)
        for p in range(nplanes):
            if width == 1:
                plane = codes  # the only plane: no copy
            else:
                plane = plane_buf
                np.copyto(plane, planes8[:, p])
            tag, payload = _encode_plane(plane, level, allow_zlib)
            out.append(tag)
            out += np.uint64(len(payload)).tobytes()
            out += payload
        return bytes(out)
    finally:
        _pool.release(zz, scratch, plane_buf)


def _byte_counts(plane: np.ndarray) -> np.ndarray:
    """Occurrences of each byte value in a contiguous uint8 plane.

    From ``_WIDE_HIST_BYTES`` up, the plane is counted two bytes at a
    time: one ``bincount`` over its ``uint16`` view, whose 256x256 table
    folds along both axes into the byte counts (an odd last byte is
    added on its own).  Half as many elements pass through
    ``bincount``'s per-element loop; below the cutoff, building and
    folding the 64 K-bin table costs more than that saves.  The counts
    are the same either way.
    """
    n = plane.size
    if n < _WIDE_HIST_BYTES:
        return np.bincount(plane, minlength=256)
    pairs = np.bincount(plane[:n - n % 2].view(np.uint16),
                        minlength=65536).reshape(256, 256)
    counts = pairs.sum(axis=0)
    counts += pairs.sum(axis=1)
    if n % 2:
        counts[plane[-1]] += 1
    return counts


def _encode_plane(plane: np.ndarray, level: int,
                  allow_zlib: bool) -> tuple[int, bytes]:
    """Pick the cheapest encoding for one contiguous uint8 plane.

    One byte-histogram pass (:func:`_byte_counts`) supplies the
    constant/sparse/entropy statistics; the per-chunk maxima reshape the
    plane in place when the length is a whole number of chunks (the
    common case for block-sized buffers), so the scratch copy only
    happens on ragged tails.
    """
    n = plane.size
    nchunks = (n + _CHUNK - 1) // _CHUNK
    counts = _byte_counts(plane)
    k = n - int(counts[0])
    if k == 0:
        return _P_CONST, b"\x00"
    nz = np.flatnonzero(counts)
    mx = int(nz[-1])
    if counts[0] == 0 and nz.size == 1:
        return _P_CONST, bytes([mx])
    sparse_cost = 4 + 5 * k if n < 2**32 else n + 1
    raw_cost = n
    best = min(sparse_cost, raw_cost)
    if allow_zlib:
        if n < 1024:
            # tiny plane: DEFLATE costs microseconds and the
            # first-order entropy estimate misses run/positional
            # structure, so just try it
            attempt = True
        else:
            probs = counts[nz] / n
            entropy = float(-(probs * np.log2(probs)).sum())
            estimate = n * entropy / 8.0 * 1.05 + 12
            # DEFLATE is one C call — cheaper than even *scanning* the
            # plane for a BITPACK body — so try it whenever the
            # first-order estimate says it can win outright; at low
            # effort demand real slack so near-incompressible planes
            # (the usual LSB noise plane) skip straight to RAW
            margin = 0.8 if level <= 4 else 1.0
            attempt = estimate < margin * best
        if attempt:
            blob = _deflate_plane(plane, max(level, 1))
            if len(blob) < best:
                # a winning DEFLATE body skips the chunk-width scan
                # entirely; BITPACK only out-costs it on planes whose
                # chunks are locally narrow but globally diverse, and
                # those fail the entropy gate above
                return _P_ZLIB, blob
    if n % _CHUNK == 0:
        full = plane
        pooled = None
    else:
        pooled = _pool.acquire(nchunks * _CHUNK, np.uint8)
        pooled[:n] = plane
        pooled[n:] = 0
        full = pooled
    try:
        chunk_max = full.reshape(nchunks, _CHUNK).max(axis=1)
        widths = _BITLEN8[chunk_max]
        pack_cost = (nchunks + 1) // 2 + 4 * int(widths.sum(dtype=np.int64))
        if sparse_cost <= min(pack_cost, raw_cost):
            pos = np.flatnonzero(plane).astype("<u4")
            vals = plane[pos]
            return _P_SPARSE, (np.uint32(pos.size).tobytes()
                               + pos.tobytes() + vals.tobytes())
        if pack_cost < raw_cost:
            return _P_BITPACK, _bitpack_chunks(full, nchunks, widths)
        return _P_RAW, plane.tobytes()
    finally:
        if pooled is not None:
            _pool.release(pooled)


def _bitpack_chunks(padded: np.ndarray, nchunks: int,
                    widths: np.ndarray) -> bytes:
    """Pack 32-value chunks at their own widths, grouped by width.

    Layout: nibble-packed per-chunk widths, then — for each width in
    ascending order — the ``4 * width``-byte payloads of every chunk of
    that width, concatenated; a payload is the chunk's values' low
    ``width`` bits, MSB first.  One stable argsort groups the chunks by
    width; each width then packs every 8 values into one uint64 word
    (8 shift-or steps) and keeps the word's low ``width`` bytes
    big-endian — no per-chunk loop and no per-bit expansion.
    """
    order, counts = _width_order(widths)
    # nibble-pack widths (values 0..8 fit in 4 bits)
    pad_w = np.zeros(2 * ((nchunks + 1) // 2), dtype=np.uint8)
    pad_w[:nchunks] = widths
    parts = [((pad_w[0::2] << 4) | pad_w[1::2]).tobytes()]
    if counts[0] < nchunks:
        # one gather of every chunk that stores bits, in stream order
        groups = padded.reshape(nchunks, _CHUNK)[order[counts[0]:]]
        groups = groups.reshape(-1, 8)
        start = 0
        for w in range(1, 9):
            g = _CHUNK // 8 * counts[w]
            if g:
                parts.append(_pack_words(groups[start:start + g], w))
                start += g
    return b"".join(parts)


def _width_order(widths: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Stable chunk order by ascending width, and the count per width."""
    order = np.argsort(widths, kind="stable")
    return order, np.bincount(widths, minlength=9).tolist()


def _pack_words(vals: np.ndarray, w: int) -> bytes:
    """``(g, 8)`` uint8 values of width <= ``w`` -> ``g * w`` bytes."""
    word = vals[:, 0].astype(np.uint64)
    tmp = np.empty_like(word)
    for j in range(1, 8):
        np.left_shift(word, np.uint64(w), out=word)
        np.copyto(tmp, vals[:, j])
        np.bitwise_or(word, tmp, out=word)
    return word.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - w:] \
        .tobytes()


def _unpack_words(body: np.ndarray, w: int, out: np.ndarray) -> None:
    """Inverse of :func:`_pack_words` into ``out`` (``(g, 8)`` uint8)."""
    g = out.shape[0]
    staged = np.zeros((g, 8), dtype=np.uint8)
    staged[:, 8 - w:] = body.reshape(g, w)
    word = staged.view(">u8").reshape(g).astype(np.uint64)
    tmp = np.empty_like(word)
    mask = np.uint64((1 << w) - 1)
    for j in range(7, -1, -1):
        np.bitwise_and(word, mask, out=tmp)
        out[:, j] = tmp
        np.right_shift(word, np.uint64(w), out=word)


def _bitunpack_chunks(buf: memoryview, n: int, out: np.ndarray) -> None:
    """Inverse of :func:`_bitpack_chunks` into ``out`` (n uint8)."""
    nchunks = (n + _CHUNK - 1) // _CHUNK
    nwb = (nchunks + 1) // 2
    nibbles = np.frombuffer(buf[:nwb], dtype=np.uint8)
    widths = np.empty(2 * nwb, dtype=np.uint8)
    widths[0::2] = nibbles >> 4
    widths[1::2] = nibbles & 0x0F
    widths = widths[:nchunks]
    if np.any(widths > 8):
        raise ValueError("corrupt residual stream: bitpack width > 8")
    order, counts = _width_order(widths)
    total = 4 * sum(w * c for w, c in enumerate(counts))
    body = np.frombuffer(buf[nwb:], dtype=np.uint8)
    if body.size != total:
        raise ValueError("corrupt residual stream: bitpack size mismatch")
    direct = n == nchunks * _CHUNK
    if direct:
        full = out.reshape(nchunks, _CHUNK)
    else:
        full = np.empty((nchunks, _CHUNK), dtype=np.uint8)
    full[order[:counts[0]]] = 0
    if counts[0] < nchunks:
        groups = np.empty((_CHUNK // 8 * (nchunks - counts[0]), 8),
                          dtype=np.uint8)
        start = pos = 0
        for w in range(1, 9):
            g = _CHUNK // 8 * counts[w]
            if g:
                _unpack_words(body[pos:pos + g * w], w,
                              groups[start:start + g])
                start += g
                pos += g * w
        full[order[counts[0]:]] = groups.reshape(-1, _CHUNK)
    if not direct:
        out[:] = full.reshape(-1)[:n]


def _decode_rzc2(view: memoryview) -> np.ndarray:
    """RZC2 body -> int64 residuals (pool-ownership: caller)."""
    n = int(np.frombuffer(view[4:12], dtype=np.uint64)[0])
    nplanes = view[12]
    backend_id = view[13]
    if backend_id not in _BACKEND_NAMES:
        raise ValueError(f"unknown lossless backend id {backend_id}")
    if nplanes > 8:
        raise ValueError(f"corrupt residual stream: {nplanes} byte planes")
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    # codes are rebuilt at the planes' width, arithmetically: plane 0
    # (decoded straight into the codes when it is the only one) is
    # widened, then each higher plane is shifted and or-ed in.  All ops
    # are contiguous, which beats scattering byte columns into an
    # (n, width) staging matrix.  The zigzag runs in place at that
    # width; one cast widens the result to int64.
    width = _code_width(nplanes)
    codes = _pool.acquire(n, f"u{width}")
    plane_buf = _pool.acquire(n, np.uint8)
    shifted = _pool.acquire(n, f"u{width}")
    result = _pool.acquire(n, np.int64)
    try:
        if nplanes == 0:
            codes[:] = 0
        pos = 14
        for p in range(nplanes):
            if pos + 9 > len(view):
                raise ValueError("corrupt residual stream: truncated plane")
            tag = view[pos]
            plen = int(np.frombuffer(view[pos + 1:pos + 9],
                                     dtype=np.uint64)[0])
            pos += 9
            payload = view[pos:pos + plen]
            if len(payload) != plen:
                raise ValueError("corrupt residual stream: truncated plane")
            pos += plen
            if width == 1:
                _decode_plane(tag, payload, n, codes)
                continue
            _decode_plane(tag, payload, n, plane_buf)
            if p == 0:
                codes[:] = plane_buf
            else:
                shifted[:] = plane_buf
                np.left_shift(shifted, 8 * p, out=shifted)
                np.bitwise_or(codes, shifted, out=codes)
        if pos != len(view):
            raise ValueError("corrupt residual stream: trailing bytes")
        if width == 8:
            return zigzag_decode(codes, out=result, scratch=shifted)
        np.copyto(result, zigzag_decode(codes, out=codes, scratch=shifted))
        return result
    except BaseException:
        _pool.release(result)
        raise
    finally:
        _pool.release(codes, plane_buf, shifted)


def _decode_plane(tag: int, payload: memoryview, n: int,
                  out: np.ndarray) -> None:
    if tag == _P_CONST:
        if len(payload) != 1:
            raise ValueError("corrupt residual stream: bad const plane")
        out[:] = payload[0]
    elif tag == _P_RAW:
        if len(payload) != n:
            raise ValueError("corrupt residual stream: bad raw plane")
        out[:] = np.frombuffer(payload, dtype=np.uint8)
    elif tag == _P_SPARSE:
        if len(payload) < 4:
            raise ValueError("corrupt residual stream: bad sparse plane")
        k = int(np.frombuffer(payload[:4], dtype=np.uint32)[0])
        if len(payload) != 4 + 5 * k:
            raise ValueError("corrupt residual stream: bad sparse plane")
        positions = np.frombuffer(payload[4:4 + 4 * k], dtype="<u4")
        if k and int(positions.max()) >= n:
            raise ValueError("corrupt residual stream: sparse index range")
        out[:] = 0
        out[positions.astype(np.int64)] = np.frombuffer(
            payload[4 + 4 * k:], dtype=np.uint8)
    elif tag == _P_BITPACK:
        _bitunpack_chunks(payload, n, out)
    elif tag == _P_ZLIB:
        raw = zlib.decompress(bytes(payload))
        if len(raw) != n:
            raise ValueError("corrupt residual stream: bad zlib plane")
        out[:] = np.frombuffer(raw, dtype=np.uint8)
    else:
        raise ValueError(f"unknown plane encoding {tag}")


# ----------------------------------------------------------------------
# RZC1: legacy two-stream layout
# ----------------------------------------------------------------------
def _encode_rzc1(residuals: np.ndarray, backend: str, level: int) -> bytes:
    codes = zigzag_encode(
        np.ascontiguousarray(residuals, dtype=np.int64)).reshape(-1)
    n = codes.size
    stream_a = np.minimum(codes, np.uint64(255)).astype(np.uint8)
    big = codes >= np.uint64(255)
    stream_b = codes[big].astype("<u8").tobytes()
    payload = stream_a.tobytes() + stream_b
    compressed = _COMPRESSORS[backend](payload, level)
    header = (
        _MAGIC
        + np.uint64(n).tobytes()
        + np.uint64(int(big.sum())).tobytes()
        + bytes([_BACKEND_IDS[backend]])
    )
    return header + compressed


def _decode_rzc1(view: memoryview) -> np.ndarray:
    n = int(np.frombuffer(view[4:12], dtype=np.uint64)[0])
    n_big = int(np.frombuffer(view[12:20], dtype=np.uint64)[0])
    backend_id = view[20]
    backend = _BACKEND_NAMES.get(backend_id)
    if backend is None:
        raise ValueError(f"unknown lossless backend id {backend_id}")
    payload = _DECOMPRESSORS[backend](bytes(view[21:]))
    expected = n + 8 * n_big
    if len(payload) != expected:
        raise ValueError(
            f"corrupt residual stream: payload {len(payload)} != {expected}"
        )
    stream_a = np.frombuffer(payload, dtype=np.uint8, count=n)
    codes = stream_a.astype(np.uint64)
    if n_big:
        stream_b = np.frombuffer(payload, dtype="<u8", offset=n, count=n_big)
        codes[stream_a == 255] = stream_b
    return zigzag_decode(codes)
