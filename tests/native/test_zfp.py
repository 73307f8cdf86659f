"""Tests for the ZFP native: blocking, transform, modes, API."""

import struct

import numpy as np
import pytest

from repro.core import CorruptStreamError, InvalidDimensionsError
from repro.native import zfp
from repro.native.zfp.core import (
    _from_blocks,
    _fwd_transform,
    _inv_transform,
    _to_blocks,
)


class TestBlocking:
    @pytest.mark.parametrize("shape", [(16,), (8, 12), (4, 8, 12),
                                       (5,), (7, 9), (5, 6, 7)])
    def test_block_roundtrip(self, shape):
        rng = np.random.default_rng(0)
        arr = rng.integers(-1000, 1000, size=shape)
        blocks = _to_blocks(arr)
        assert blocks.shape[1:] == (4,) * len(shape)
        restored = _from_blocks(blocks, shape)
        assert np.array_equal(restored, arr)

    def test_partial_blocks_pad_with_edge(self):
        arr = np.array([1, 2, 3, 4, 5], dtype=np.int64)
        blocks = _to_blocks(arr)
        assert blocks.shape == (2, 4)
        assert list(blocks[1]) == [5, 5, 5, 5]

    def test_block_count(self):
        arr = np.zeros((9, 9), dtype=np.int64)
        assert _to_blocks(arr).shape[0] == 9  # ceil(9/4)^2


class TestTransform:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_exact_inverse(self, ndim):
        rng = np.random.default_rng(1)
        blocks = rng.integers(-(2**40), 2**40,
                              size=(10,) + (4,) * ndim)
        original = blocks.copy()
        _fwd_transform(blocks)
        assert not np.array_equal(blocks, original)  # actually transformed
        _inv_transform(blocks)
        assert np.array_equal(blocks, original)

    def test_decorrelates_smooth_blocks(self):
        ramp = np.arange(64, dtype=np.int64).reshape(1, 4, 4, 4) * 100
        blocks = ramp.copy()
        _fwd_transform(blocks)
        # a smooth block's L1 energy collapses into a few coefficients
        flat = np.abs(blocks.reshape(-1))
        assert flat.sum() < np.abs(ramp).sum() / 10
        assert (flat < 10).sum() > flat.size // 2


class TestModes:
    @pytest.mark.parametrize("tol", [1e-1, 1e-3, 1e-6])
    def test_accuracy_bound(self, smooth3d, tol):
        out = zfp.decompress(zfp.compress(smooth3d, zfp.MODE_ACCURACY, tol))
        assert np.abs(out - smooth3d).max() <= tol * (1 + 1e-9)

    def test_accuracy_1d_2d(self):
        rng = np.random.default_rng(2)
        for shape in [(1000,), (37, 53)]:
            arr = rng.standard_normal(shape).cumsum(axis=-1)
            out = zfp.decompress(zfp.compress(arr, zfp.MODE_ACCURACY, 1e-4))
            assert np.abs(out - arr).max() <= 1e-4 * (1 + 1e-9)

    def test_precision_more_planes_more_accurate(self, smooth3d):
        errors = []
        for planes in (8, 16, 32):
            out = zfp.decompress(
                zfp.compress(smooth3d, zfp.MODE_PRECISION, planes))
            errors.append(np.abs(out - smooth3d).max())
        assert errors[0] > errors[1] > errors[2]

    def test_rate_controls_size(self, smooth3d):
        sizes = {}
        for rate in (4, 8, 16):
            sizes[rate] = len(zfp.compress(smooth3d, zfp.MODE_RATE, rate))
        n = smooth3d.size
        # achieved bits/value should be within 2x of requested + overhead
        for rate, size in sizes.items():
            achieved = 8.0 * size / n
            assert achieved < rate * 2 + 4
        assert sizes[4] < sizes[16]

    def test_reversible_bit_exact_float64(self, smooth3d):
        out = zfp.decompress(zfp.compress(smooth3d, zfp.MODE_REVERSIBLE, 0))
        assert out.dtype == smooth3d.dtype
        assert np.array_equal(out, smooth3d)

    def test_reversible_bit_exact_float32(self, smooth3d):
        data = smooth3d.astype(np.float32)
        out = zfp.decompress(zfp.compress(data, zfp.MODE_REVERSIBLE, 0))
        assert np.array_equal(out, data)

    def test_reversible_negative_zero_and_denormals(self):
        data = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308])
        out = zfp.decompress(zfp.compress(data, zfp.MODE_REVERSIBLE, 0))
        assert np.array_equal(out.view(np.uint64), data.view(np.uint64))

    def test_reversible_integers(self):
        rng = np.random.default_rng(3)
        data = rng.integers(-10000, 10000, size=(20, 20)).astype(np.int64)
        out = zfp.decompress(zfp.compress(data, zfp.MODE_REVERSIBLE, 0))
        assert np.array_equal(out, data)

    def test_all_zero_input(self):
        data = np.zeros((8, 8, 8))
        for mode, p in [(zfp.MODE_ACCURACY, 1e-3), (zfp.MODE_PRECISION, 16),
                        (zfp.MODE_RATE, 8)]:
            out = zfp.decompress(zfp.compress(data, mode, p))
            assert np.array_equal(out, data)

    def test_four_dims_supported(self):
        rng = np.random.default_rng(9)
        arr = rng.standard_normal((5, 6, 7, 8)).cumsum(axis=0)
        out = zfp.decompress(zfp.compress(arr, zfp.MODE_ACCURACY, 1e-3))
        assert np.abs(out - arr).max() <= 1e-3 * (1 + 1e-9)

    def test_five_dims_rejected(self):
        with pytest.raises(InvalidDimensionsError):
            zfp.compress(np.zeros((2,) * 5), zfp.MODE_ACCURACY, 1e-3)

    def test_transform_off_still_bounded(self, smooth3d):
        stream = zfp.compress(smooth3d, zfp.MODE_ACCURACY, 1e-4,
                              transform=False)
        out = zfp.decompress(stream)
        assert np.abs(out - smooth3d).max() <= 1e-4 * (1 + 1e-9)

    def test_transform_helps_on_smooth_blocks(self, smooth3d):
        """The decorrelating transform must earn its keep on data whose
        within-block variation dominates (high-frequency smooth data)."""
        wavy = np.sin(np.linspace(0, 300, 4096)).reshape(16, 16, 16) * 100
        on = len(zfp.compress(wavy, zfp.MODE_ACCURACY, 1e-4))
        off = len(zfp.compress(wavy, zfp.MODE_ACCURACY, 1e-4,
                               transform=False))
        assert on < off

    def test_bad_tolerance_rejected(self, smooth3d):
        with pytest.raises(ValueError):
            zfp.compress(smooth3d, zfp.MODE_ACCURACY, 0.0)

    def test_dims_mismatch_on_decompress(self, smooth3d):
        stream = zfp.compress(smooth3d, zfp.MODE_ACCURACY, 1e-3)
        with pytest.raises(CorruptStreamError):
            zfp.decompress(stream, expected_dims=(2, 2))

    @pytest.mark.parametrize("step", [0.0, -1e-3])
    def test_non_positive_step_is_corrupt(self, smooth3d, step):
        stream = zfp.compress(smooth3d, zfp.MODE_ACCURACY, 1e-3)
        # the step is the first header double, right after the dims
        at = 9 + 8 * smooth3d.ndim
        assert struct.unpack_from("<d", stream, at)[0] == 1e-3
        bad = stream[:at] + struct.pack("<d", step) + stream[at + 8:]
        with pytest.raises(CorruptStreamError, match="step"):
            zfp.decompress(bad)


class TestPaddingInefficiency:
    """Paper Section V: dims smaller than the block size pad wastefully."""

    def test_degenerate_third_dim_worse_than_2d(self, letkf_small):
        slab = letkf_small[:1]  # (1, 24, 24)
        as_3d = zfp.compress(slab, zfp.MODE_ACCURACY, 1e-3)
        as_2d = zfp.compress(slab[0], zfp.MODE_ACCURACY, 1e-3)
        assert len(as_2d) <= len(as_3d)


class TestStreamFieldAPI:
    def test_stream_defaults(self):
        stream = zfp.zfp_stream_open()
        assert stream.mode == zfp.MODE_ACCURACY

    def test_mode_setters(self):
        s = zfp.zfp_stream_open()
        zfp.zfp_stream_set_precision(s, 20)
        assert s.mode == zfp.MODE_PRECISION and s.parameter == 20
        zfp.zfp_stream_set_rate(s, 8.0)
        assert s.mode == zfp.MODE_RATE
        zfp.zfp_stream_set_reversible(s)
        assert s.mode == zfp.MODE_REVERSIBLE
        zfp.zfp_stream_set_accuracy(s, 1e-4)
        assert s.mode == zfp.MODE_ACCURACY

    def test_setter_validation(self):
        s = zfp.zfp_stream_open()
        with pytest.raises(ValueError):
            zfp.zfp_stream_set_precision(s, 0)
        with pytest.raises(ValueError):
            zfp.zfp_stream_set_rate(s, 0.5)
        with pytest.raises(ValueError):
            zfp.zfp_stream_set_accuracy(s, -1.0)

    def test_fortran_dim_order(self, smooth3d):
        """nx is the fastest dimension: C shape (a,b,c) -> field (c,b,a)."""
        a, b, c = smooth3d.shape
        field = zfp.zfp_field_3d(smooth3d.reshape(-1), zfp.zfp_type_double,
                                 c, b, a)
        assert field.c_order_dims() == (a, b, c)
        s = zfp.zfp_stream_open()
        zfp.zfp_stream_set_accuracy(s, 1e-3)
        buf = zfp.zfp_compress(s, field)
        out_field = zfp.zfp_field_3d(None, zfp.zfp_type_double, c, b, a)
        out = zfp.zfp_decompress(s, out_field, buf)
        assert np.abs(out - smooth3d).max() <= 1e-3 * (1 + 1e-9)

    def test_field_2d_argument_order(self):
        field = zfp.zfp_field_2d(None, zfp.zfp_type_float, 10, 20)
        assert field.nx == 10 and field.ny == 20
        assert field.c_order_dims() == (20, 10)

    def test_decompress_into_existing_buffer(self, smooth3d):
        s = zfp.zfp_stream_open()
        zfp.zfp_stream_set_accuracy(s, 1e-3)
        a, b, c = smooth3d.shape
        buf = zfp.zfp_compress(
            s, zfp.zfp_field_3d(smooth3d.reshape(-1), zfp.zfp_type_double,
                                c, b, a))
        dest = np.zeros(smooth3d.size)
        field = zfp.zfp_field_3d(dest, zfp.zfp_type_double, c, b, a)
        zfp.zfp_decompress(s, field, buf)
        assert np.abs(dest.reshape(smooth3d.shape)
                      - smooth3d).max() <= 1e-3 * (1 + 1e-9)

    def test_maximum_size_is_bound(self, smooth3d):
        s = zfp.zfp_stream_open()
        zfp.zfp_stream_set_accuracy(s, 1e-6)
        a, b, c = smooth3d.shape
        field = zfp.zfp_field_3d(smooth3d.reshape(-1), zfp.zfp_type_double,
                                 c, b, a)
        assert len(zfp.zfp_compress(s, field)) <= \
            zfp.zfp_stream_maximum_size(s, field)

    def test_compress_without_data_raises(self):
        s = zfp.zfp_stream_open()
        with pytest.raises(ValueError):
            zfp.zfp_compress(s, zfp.zfp_field_1d(None, zfp.zfp_type_float, 4))
