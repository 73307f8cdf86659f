"""Vectorized kernels are byte-identical to their scalar references.

The production encoders (:mod:`repro.encoders`) are numpy-vectorized;
:mod:`repro.encoders._reference` keeps per-element transliterations of
the same algorithms.  These properties pin the two byte-identical across
dtypes, degenerate shapes (size-1 axes, scalars-as-1d), adversarial
values (int64 extremes, subnormals), and — for the quantizer — NaN/inf
rejection parity.  Randomness derives from ``PRESSIO_TEST_SEED`` via
this directory's conftest.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.encoders import (
    dequantize_uniform,
    lorenzo_decode,
    lorenzo_encode,
    quantize_uniform,
    zigzag_decode,
    zigzag_encode,
)
from repro.encoders._reference import (
    _decode_bitpack_reference,
    _decode_dequantize_reference,
    _decode_lorenzo_reference,
    _decode_rzc2_reference,
    _decode_zigzag_reference,
    _encode_bitpack_reference,
    _encode_lorenzo_reference,
    _encode_quantize_reference,
    _encode_rzc2_reference,
    _encode_zigzag_reference,
)
from repro.encoders.huffman import HuffmanCodec, huffman_decode
from repro.encoders.residual import (
    _BITLEN8,
    _WIDE_HIST_BYTES,
    _bitpack_chunks,
    _bitunpack_chunks,
    _byte_counts,
    decode_residuals,
    encode_residuals,
)
from repro.native import pool

degenerate_shapes = st.sampled_from(
    [(1,), (1, 1), (1, 1, 1), (1, 5), (5, 1), (1, 5, 1), (3, 1, 4)])
shapes = st.one_of(
    degenerate_shapes,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9),
)

int64_extremes = st.sampled_from(
    [np.int64(2 ** 62), np.int64(-2 ** 62), np.int64(2 ** 63 - 1),
     np.int64(-2 ** 63), np.int64(0), np.int64(-1)])


# -- quantizer --------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64,
                                   np.int32, np.uint16])
def test_quantize_parity_across_dtypes(dtype):
    rng = np.random.default_rng(0)
    if np.issubdtype(dtype, np.floating):
        values = (rng.standard_normal((6, 7)) * 100).astype(dtype)
    else:
        values = rng.integers(0, 1000, (6, 7)).astype(dtype)
    for eb in (1e-6, 1e-3, 0.5, 10.0):
        fast = quantize_uniform(values, eb)
        ref = _encode_quantize_reference(values, eb)
        assert fast.tobytes() == ref.tobytes()
        assert (dequantize_uniform(fast, eb, np.dtype(np.float64)).tobytes()
                == _decode_dequantize_reference(ref, eb).tobytes())


@given(hnp.arrays(dtype=np.float64, shape=shapes,
                  elements=st.floats(-1e12, 1e12, allow_nan=False)),
       st.floats(1e-9, 1e3))
@settings(max_examples=40, deadline=None)
def test_quantize_parity_property(values, eb):
    try:
        fast = quantize_uniform(values, eb)
    except ValueError:
        # overflow rejection must agree too
        with pytest.raises(ValueError):
            _encode_quantize_reference(values, eb)
        return
    assert fast.tobytes() == _encode_quantize_reference(values, eb).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantize_nonfinite_rejection_parity(bad):
    values = np.array([1.0, bad, 2.0])
    with pytest.raises(ValueError):
        quantize_uniform(values, 1e-3)
    with pytest.raises(ValueError):
        _encode_quantize_reference(values, 1e-3)


def test_quantize_subnormal_and_huge_step_parity():
    values = np.array([5e-324, -5e-324, 1e-300, 0.0])
    for eb in (1e-3, 1e300):
        assert (quantize_uniform(values, eb).tobytes()
                == _encode_quantize_reference(values, eb).tobytes())


# -- zigzag -----------------------------------------------------------------

@given(hnp.arrays(dtype=np.int64, shape=shapes,
                  elements=st.one_of(int64_extremes,
                                     st.integers(-2 ** 63, 2 ** 63 - 1))))
@settings(max_examples=40, deadline=None)
def test_zigzag_parity_including_extremes(arr):
    fast = zigzag_encode(arr.reshape(-1))
    ref = _encode_zigzag_reference(arr.reshape(-1))
    assert fast.tobytes() == ref.tobytes()
    assert (zigzag_decode(fast).tobytes()
            == _decode_zigzag_reference(ref).tobytes())


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
def test_zigzag_at_narrow_width_matches_64_bit(dtype):
    """Each width gives the int64 codes, in its own unsigned width."""
    info = np.iinfo(dtype)
    if info.bits <= 16:
        arr = np.arange(info.min, info.max + 1, dtype=dtype)
    else:
        arr = np.array([info.min, info.min + 1, -1, 0, 1, info.max - 1,
                        info.max], dtype=dtype)
    fast = zigzag_encode(arr)
    assert fast.dtype == np.dtype(f"u{arr.itemsize}")
    assert (fast.astype(np.uint64).tobytes()
            == _encode_zigzag_reference(arr).tobytes())
    back = zigzag_decode(fast)
    assert back.dtype == arr.dtype and back.tobytes() == arr.tobytes()


# -- lorenzo ----------------------------------------------------------------

@given(hnp.arrays(dtype=np.int64, shape=shapes,
                  elements=st.one_of(int64_extremes,
                                     st.integers(-2 ** 40, 2 ** 40))))
@settings(max_examples=40, deadline=None)
def test_lorenzo_parity_with_wraparound(arr):
    fast = lorenzo_encode(arr)
    ref = _encode_lorenzo_reference(arr)
    assert fast.tobytes() == ref.tobytes()
    assert (lorenzo_decode(fast).tobytes()
            == _decode_lorenzo_reference(ref).tobytes())


@given(hnp.arrays(dtype=np.int64, shape=shapes,
                  elements=st.one_of(int64_extremes,
                                     st.integers(-2 ** 40, 2 ** 40))))
@settings(max_examples=40, deadline=None)
def test_lorenzo_running_add_path_parity(arr):
    """With the hyperplane cutoff at one element, every non-last axis is
    reconstructed by running hyperplane adds instead of ``np.cumsum``."""
    from repro.encoders import predictors

    saved = predictors._RUNNING_ADD_BYTES
    predictors._RUNNING_ADD_BYTES = 8
    try:
        fast = lorenzo_decode(lorenzo_encode(arr))
    finally:
        predictors._RUNNING_ADD_BYTES = saved
    assert fast.tobytes() == arr.tobytes()
    assert (fast.tobytes() == _decode_lorenzo_reference(
        _encode_lorenzo_reference(arr)).tobytes())


@pytest.mark.parametrize("shape", [(3, 4096), (2, 5, 4096), (66, 64, 64)])
def test_lorenzo_decode_large_hyperplanes_match_cumsum(shape):
    """At sizes where the running adds are taken, decode equals the
    plain per-axis cumsum composition, wrap-around included."""
    rng = np.random.default_rng(2)
    res = rng.integers(-2 ** 63, 2 ** 63 - 1, shape, dtype=np.int64,
                       endpoint=True)
    want = res.view(np.uint64).copy()
    for axis in range(want.ndim - 1, -1, -1):
        np.cumsum(want, axis=axis, dtype=np.uint64, out=want)
    assert lorenzo_decode(res).tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(1,), (1, 1), (1, 5, 1), (2, 3, 4)])
def test_lorenzo_parity_degenerate_dims(shape):
    rng = np.random.default_rng(1)
    arr = rng.integers(-1000, 1000, shape, dtype=np.int64)
    assert (lorenzo_encode(arr).tobytes()
            == _encode_lorenzo_reference(arr).tobytes())


# -- bitpack ----------------------------------------------------------------

@st.composite
def bitpack_planes(draw):
    """A uint8 plane whose 32-value chunks have drawn widths 0..8."""
    n = draw(st.integers(1, 700))
    widths = draw(st.lists(st.integers(0, 8), min_size=-(-n // 32),
                           max_size=-(-n // 32)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mask = (1 << np.repeat(np.array(widths), 32)[:n]) - 1
    return (rng.integers(0, 256, n) & mask).astype(np.uint8)


def _bitpack(plane: np.ndarray) -> bytes:
    nchunks = -(-plane.size // 32)
    padded = np.zeros(nchunks * 32, dtype=np.uint8)
    padded[:plane.size] = plane
    widths = _BITLEN8[padded.reshape(nchunks, 32).max(axis=1)]
    return _bitpack_chunks(padded, nchunks, widths)


def _bitunpack(body: bytes, n: int) -> np.ndarray:
    out = np.empty(n, dtype=np.uint8)
    _bitunpack_chunks(memoryview(body), n, out)
    return out


@given(bitpack_planes())
@settings(max_examples=60, deadline=None)
def test_bitpack_parity(plane):
    fast = _bitpack(plane)
    assert fast == _encode_bitpack_reference(plane)
    assert _bitunpack(fast, plane.size).tobytes() == plane.tobytes()
    assert (_decode_bitpack_reference(fast, plane.size).tobytes()
            == plane.tobytes())


def _corrupt(body: bytes, how: str) -> bytes:
    if how == "short":
        return body[:-1]
    if how == "long":
        return body + b"\x00"
    # a width nibble 9..15 in the first chunk's slot
    return bytes([int(how) << 4 | body[0] & 0x0F]) + body[1:]


_CORRUPTIONS = [str(w) for w in range(9, 16)] + ["short", "long"]


@pytest.mark.parametrize("how", _CORRUPTIONS)
def test_bitpack_corruption_raises_in_kernel_and_reference(how):
    plane = (np.arange(100) % 7 + 1).astype(np.uint8)
    bad = _corrupt(_bitpack(plane), how)
    match = "width > 8" if how.isdigit() else "size mismatch"
    with pytest.raises(ValueError, match=match):
        _bitunpack(bad, plane.size)
    with pytest.raises(ValueError, match=match):
        _decode_bitpack_reference(bad, plane.size)


@pytest.mark.parametrize("how", _CORRUPTIONS)
def test_bitpack_corruption_raises_through_residual_stream(how):
    """A corrupted BITPACK plane inside a well-framed RZC2 stream never
    decodes silently: the plane length is rewritten to match the body."""
    codes = (np.arange(4096) % 7 + 1).astype(np.int64)
    stream = encode_residuals(codes, backend="none")
    assert stream[:4] == b"RZC2" and stream[12] == 1 and stream[14] == 3
    body = _corrupt(stream[23:], how)
    bad = stream[:15] + np.uint64(len(body)).tobytes() + body
    with pytest.raises(ValueError, match="corrupt residual stream"):
        decode_residuals(bad)


# -- RZC2 at the width of the values -----------------------------------------

#: the signed range of each code width; an extreme just past one
#: boundary forces the next width
_WIDTH_BOUNDS = (2 ** 7, 2 ** 15, 2 ** 31, 2 ** 63)

#: lengths at and around the RZC1 cutoff and the byte-histogram cutoff,
#: odd and even
_RZC2_LENGTHS = (2048, 2049, 4097, _WIDE_HIST_BYTES - 1, _WIDE_HIST_BYTES,
                 _WIDE_HIST_BYTES + 1, _WIDE_HIST_BYTES + 34)


@st.composite
def width_residuals(draw):
    """int64 residuals filling one width, with drawn extremes placed at
    drawn positions: both ends of a width boundary and one past it,
    and the int64 limits."""
    n = draw(st.sampled_from(_RZC2_LENGTHS))
    bound = draw(st.sampled_from((0,) + _WIDTH_BOUNDS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if bound:
        spread = draw(st.sampled_from((bound, max(bound >> 6, 1))))
        arr = rng.integers(-spread, spread, n, dtype=np.int64)
    else:
        arr = np.zeros(n, dtype=np.int64)
    edges = [e for b in _WIDTH_BOUNDS for e in (-b, b - 1, -b - 1, b)
             if -2 ** 63 <= e < 2 ** 63]
    extremes = draw(st.lists(st.sampled_from(edges), max_size=4))
    for value in extremes:
        arr[draw(st.integers(0, n - 1))] = value
    return arr


@given(width_residuals(), st.sampled_from(["zlib", "none"]),
       st.sampled_from([1, 6]))
@settings(max_examples=40, deadline=None)
def test_rzc2_narrow_path_matches_64_bit_reference(arr, backend, level):
    stream = encode_residuals(arr, backend=backend, level=level)
    assert stream[:4] == b"RZC2"
    assert stream == _encode_rzc2_reference(arr, backend, level)
    decoded = decode_residuals(stream)
    try:
        assert decoded.dtype == np.int64
        assert decoded.tobytes() == arr.tobytes()
        assert _decode_rzc2_reference(stream).tobytes() == arr.tobytes()
    finally:
        pool.release(decoded)


@pytest.mark.parametrize("n", [_WIDE_HIST_BYTES - 1, _WIDE_HIST_BYTES,
                               _WIDE_HIST_BYTES + 1, 3 * _WIDE_HIST_BYTES])
@pytest.mark.parametrize("top", [1, 2, 255])
def test_byte_counts_match_bincount_across_cutoff(n, top):
    rng = np.random.default_rng(n + top)
    plane = rng.integers(0, top + 1, n).astype(np.uint8)
    plane[-1] = top  # an odd last byte is counted on its own
    assert (_byte_counts(plane).tolist()
            == np.bincount(plane, minlength=256).tolist())


def _stream_of_width(planes: int) -> bytes:
    top = np.uint64((1 << 8 * planes) - 1)  # the width's largest code
    codes = np.arange(4096, dtype=np.uint64) * np.uint64(2654435761) & top
    codes[7] = top
    arr = (codes >> np.uint64(1)).view(np.int64) \
        ^ -(codes & np.uint64(1)).view(np.int64)
    stream = encode_residuals(arr, backend="none")
    assert stream[12] == planes
    return stream


_RZC2_CORRUPTIONS = {
    "truncated plane": lambda s: s[:-1],
    "trailing bytes": lambda s: s + b"\x00",
    "9 byte planes": lambda s: s[:12] + b"\x09" + s[13:],
}


@pytest.mark.parametrize("planes", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("what", sorted(_RZC2_CORRUPTIONS))
def test_rzc2_corruption_raises_at_every_width(planes, what):
    bad = _RZC2_CORRUPTIONS[what](_stream_of_width(planes))
    match = f"corrupt residual stream: {what}"
    with pytest.raises(ValueError, match=match):
        decode_residuals(bad)
    with pytest.raises(ValueError, match=match):
        _decode_rzc2_reference(bad)


# -- huffman ----------------------------------------------------------------

@given(st.lists(st.integers(0, 40), min_size=1, max_size=3000))
@settings(max_examples=30, deadline=None)
def test_huffman_wavefront_matches_scalar_decode(symbols):
    """The block-synced wavefront decoder and the per-bit tree walk are
    the same function: identical symbols from identical payloads."""
    arr = np.asarray(symbols, dtype=np.uint64)
    codec = HuffmanCodec.from_data(arr)
    payload, nbits = codec.encode(arr)
    scalar = codec.decode_scalar(payload, arr.size)
    # exercise the vectorized path regardless of the size cutoff by
    # computing real block boundaries from the encoded widths
    widths = codec.symbol_widths(arr)
    edges = np.arange(64, arr.size, 64)
    csum = np.cumsum(widths)
    marks = np.concatenate((csum[edges - 1], csum[-1:]))
    block_bits = np.diff(np.concatenate(([0], marks)))
    if codec.max_length <= 57:
        wavefront = codec._decode_wavefront(payload, arr.size, block_bits)
        assert np.array_equal(wavefront, scalar)
    assert np.array_equal(scalar, arr)


@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64])
def test_huffman_container_roundtrip_dtypes(dtype):
    rng = np.random.default_rng(9)
    arr = rng.integers(0, 50, 4096).astype(dtype)
    from repro.encoders.huffman import huffman_encode

    stream = huffman_encode(np.asarray(arr, dtype=np.uint64))
    out = huffman_decode(stream)
    assert np.array_equal(out.astype(dtype), arr)
