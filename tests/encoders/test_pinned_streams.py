"""sha256-pinned streams for the byte-plane residual codec and the
multi-dimensional Lorenzo and zfp paths.

The golden corpus holds a 1024-element 1-D field, which is below the
RZC2 cutoff, so no committed stream pins RZC2 planes or n-d Lorenzo
reconstruction.  These cases do.  Every input is built from integer or
correctly rounded float arithmetic only (no RNG, no libm), so the
digests are the same on every platform; a kernel rewrite that changes
one output byte fails here.  Each residual case also asserts which
plane encodings its stream uses, so the coverage of CONST, RAW, SPARSE,
BITPACK (widths 1-8 plus a ragged tail) and ZLIB cannot silently drift.
The residual cases also cover codes stored at 1, 2, 3, 5 and 8 byte
planes, each reaching the signed extremes of its width, and an
odd-length array whose planes take the wide byte histogram.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.data import PressioData
from repro.core.dtype import DType
from repro.core.registry import compressor_registry
from repro.encoders.residual import decode_residuals, encode_residuals

_CONST, _RAW, _SPARSE, _BITPACK, _ZLIB = range(5)


def _sha(b: bytes) -> str:
    return hashlib.sha256(b).hexdigest()


def _lcg(n: int, salt: int) -> np.ndarray:
    """``n`` pseudo-random uint64 words from wrap-around integer math."""
    i = np.arange(n, dtype=np.uint64) + np.uint64(salt)
    with np.errstate(over="ignore"):
        x = (i * np.uint64(6364136223846793005)
             + np.uint64(1442695040888963407))
        x ^= x >> np.uint64(29)
        x = x * np.uint64(0xBF58476D1CE4E5B9)
    return x ^ (x >> np.uint64(32))


def _from_codes(codes: np.ndarray) -> np.ndarray:
    """Signed residuals whose zigzag codes are ``codes``."""
    codes = codes.astype(np.uint64)
    half = (codes >> np.uint64(1)).view(np.int64)
    return np.where(codes & np.uint64(1), -half - 1, half)


def _plane_tags(stream: bytes) -> list[int]:
    """Plane encoding tags of an RZC2 stream, in plane order."""
    assert stream[:4] == b"RZC2"
    nplanes = stream[12]
    pos, tags = 14, []
    for _ in range(nplanes):
        tags.append(stream[pos])
        plen = int.from_bytes(stream[pos + 1:pos + 9], "little")
        pos += 9 + plen
    assert pos == len(stream)
    return tags


def _bitpack_plane(n: int) -> np.ndarray:
    """A plane whose 32-value chunks cycle through widths 1..8."""
    noise = (_lcg(n, 7) >> np.uint64(40)).astype(np.uint8)
    chunk = np.arange(n) // 32
    width = (chunk % 8 + 1).astype(np.uint8)
    mask = ((1 << width.astype(np.int64)) - 1).astype(np.uint8)
    # every value nonzero so SPARSE never wins; top bit set once per
    # chunk so each chunk really is ``width`` bits wide
    vals = (noise & mask) | np.uint8(1)
    vals[np.arange(n) % 32 == 5] |= (1 << (width[np.arange(n) % 32 == 5]
                                           - 1)).astype(np.uint8)
    return vals


def _residual_cases() -> dict[str, tuple[np.ndarray, str, set[int]]]:
    n = 4099  # not a multiple of 32: every BITPACK plane has a ragged tail
    idx = np.arange(n, dtype=np.uint64)
    noise8 = (_lcg(n, 1) >> np.uint64(56)) | np.uint64(1)
    cases = {}
    # plane 0 bitpacked, plane 1 constant 0x2A, plane 2 sparse
    sparse = np.where(idx % 97 == 3, (idx % 251) + 1, 0).astype(np.uint64)
    codes = (_bitpack_plane(n).astype(np.uint64)
             | (np.uint64(0x2A) << np.uint64(8))
             | (sparse << np.uint64(16)))
    cases["bitpack_const_sparse"] = (_from_codes(codes), "none",
                                     {_BITPACK, _CONST, _SPARSE})
    # plane 0 raw noise, plane 1 bitpacked (widths 1..8)
    codes = noise8 | (_bitpack_plane(n).astype(np.uint64) << np.uint64(8))
    cases["raw_bitpack"] = (_from_codes(codes), "none", {_RAW, _BITPACK})
    # every BITPACK width as its own plane-wide width, ragged length
    for w in range(1, 9):
        m = 2048 + 32 * w + w  # >= RZC1 cutoff, ragged tail
        v = _lcg(m, 100 + w) >> np.uint64(64 - w)
        if w > 1:  # keep every byte nonzero so SPARSE never wins
            v |= np.uint64(1)
        v[::32] |= np.uint64(1 << (w - 1))
        cases[f"bitpack_w{w}"] = (_from_codes(v), "none",
                                  {_RAW if w == 8 else _BITPACK})
    # low-entropy planes under the zlib backend: DEFLATE wins
    codes = (idx * idx // np.uint64(7)) % np.uint64(5) + (idx // np.uint64(
        512) << np.uint64(8))
    cases["zlib"] = (_from_codes(codes), "zlib", {_ZLIB})
    # int64 extremes survive zigzag + all eight planes
    ext = _lcg(2048, 9).view(np.int64).copy()
    ext[:4] = [2 ** 63 - 1, -2 ** 63, 0, -1]
    cases["extremes"] = (ext, "zlib", {_RAW})
    # codes stored in 2, 3 and 5 byte planes, each reaching both signed
    # extremes of its width (-2**(8p-1) and 2**(8p-1) - 1)
    for planes in (2, 3, 5):
        bits = 8 * planes
        v = _lcg(n, 200 + planes) >> np.uint64(64 - bits + 6)
        v[::61] = np.uint64((1 << bits) - 1)
        v[1::61] = np.uint64((1 << bits) - 2)
        cases[f"planes{planes}"] = (_from_codes(v), "zlib", {_RAW, _ZLIB})
    # an odd-length array whose planes are above the byte-histogram
    # cutoff: noise low plane, low-entropy high plane
    m = 3 * 2 ** 16 + 1
    j = np.arange(m, dtype=np.uint64)
    v = (_lcg(m, 300) >> np.uint64(56)) | ((j * j % np.uint64(11))
                                          << np.uint64(8))
    cases["odd_large"] = (_from_codes(v), "zlib", {_RAW, _ZLIB})
    return cases


#: stream sha256, decoded-bytes sha256 for every residual case
RESIDUAL_DIGESTS: dict[str, tuple[str, str]] = {
    "bitpack_const_sparse": (
        "da94e11a536f8614704760cc7bed99aea59152b73754a5885eeb7c14badd0b4d",
        "318f0b5f09ac024694bec4040003d241d94791bb8dc29383bd21c57d1dcef0a2"),
    "bitpack_w1": (
        "6195cc1139f7728220dc0dec8df12599f253f89ca5d6c36a83f4d17ce598681e",
        "b91730c75e72af83c27b71f74335013f23a1d039162fe563b2ad133403021c42"),
    "bitpack_w2": (
        "efc7fd0fd79fbb96b96179d2cb757b4106a532ab4e679303353e26c2911ec1cf",
        "a8fde7365b9c59948596ffee93b0212c58499c9a55f7a814ad1b2007b75b21c1"),
    "bitpack_w3": (
        "6f8d6987a611241fb05b1080dcde66e8975578383e952cf53d27fcb99c263012",
        "66ff0bd9b19de05053f49fd2423a5a2fcdf0975711b0c8f9f924f2ca9547e9e6"),
    "bitpack_w4": (
        "463475fb2ace5f3d186086bc7fea30bf05c6e63f7ca0902b2ffffa18faa5b27f",
        "66a51e499d5aba3cd90ed07a892895779e82d3b629ba2434687f4a7dab37446c"),
    "bitpack_w5": (
        "c7dcdf9db0dc17de608a3cb7ef307782aabd94cc28a2cda5d0663c2520be217c",
        "a51cbd227ae5cd498faf02c1780fd0ac26de0c521a6becf6dc88993b33d64119"),
    "bitpack_w6": (
        "995a09dfd009c64d64f6dae43e8c448952c2827315dc0580fee3d6e2b922f675",
        "3db98faf229c908d62bc26ca4039b3d55e8be0727265d89b0ff96b38c946a2ab"),
    "bitpack_w7": (
        "418609ac9e5c5eb0282f7819c4b928ed7de89a1288552a3d28c0694bc40112e4",
        "cb72368fe7d2cea5c9b078e0b661b7254053411f45d507296bad247678fca487"),
    "bitpack_w8": (
        "b569e1ccf3c8c20c2a9642f8fdef4581003d6b8eca7873eaf96372288e1c05ce",
        "a3d69fd2c84331189aaa8a526a72c8e0672e6f12a5f39980d81ecba42883bad5"),
    "extremes": (
        "7a110778855122c35bfcf2427be9700a4bf8592d6253f0983ee89b2298da54b6",
        "720393c474c6213aefaacd2da78591413daf76df30e4d25fdfe544bd1999cd8a"),
    "odd_large": (
        "0db88caa8c5b21c7307ad975ab8d01c41d26a52b447a0f0f4dc1b64b90ab7e60",
        "c906c4f65dbdb1c09fedef8457b4b33a01d8661e9bf843bd7fffcbb59427f1fb"),
    "planes2": (
        "abf8e3b7a7e6d981bd7bb3e8cc312494c56a8d5e4d18d905b5a22d3d11b1447d",
        "b3576e4e886d0521e3aad0b784542df20b5768c7ac2a9c480f789c466aacdf90"),
    "planes3": (
        "648e69a927a1d870f7a0df1480c02adcf3d63558fd92329478b4efd2976eebf2",
        "e47b164f6523a84e666fd386931656a7e1f14bb13d5b33b5bdb4bed7feb9c291"),
    "planes5": (
        "8b492d1340aabc18f2abb96ce0d7bed12c2b1492a30f4503e34a0b42527b9af0",
        "1fbeecfc23abe9ddc40f1a663d9fe8999024e7f40d668e35789a8c845f4b4d51"),
    "raw_bitpack": (
        "39650b78118ec4b382d2436d44231278817646ca99d5e4cf6ab07aaa8bf1b261",
        "f45344041a971b7ecf00ab757d44643c882b407926fcd9bba163662cb9254a43"),
    "zlib": (
        "196d36eefb4f1932b1b8eb9e867f13bcd741c6ae1f3c7b549d83b60c503fd012",
        "7b217616f07a2a65ace464c3de20ea7520106e02841ca41d4bfc376aaaa85bfd"),
}


@pytest.mark.parametrize("name", sorted(_residual_cases()))
def test_residual_stream_pinned(name):
    residuals, backend, expect_tags = _residual_cases()[name]
    stream = encode_residuals(residuals, backend=backend, level=1)
    assert expect_tags <= set(_plane_tags(stream))
    decoded = decode_residuals(stream)
    assert decoded.tobytes() == residuals.tobytes()
    assert (_sha(stream), _sha(decoded.tobytes())) == RESIDUAL_DIGESTS[name]


def test_bitpack_cases_cover_every_width():
    """The bitpack cases really store chunks of every width 1..8."""
    plane = _bitpack_plane(4099)
    pad = np.zeros(-(-plane.size // 32) * 32, np.uint8)
    pad[:plane.size] = plane
    widths = {int(m).bit_length() for m in pad.reshape(-1, 32).max(axis=1)}
    assert widths >= set(range(1, 9))


def _field(side: int) -> np.ndarray:
    """A smooth-plus-Weyl float32 cube from correctly rounded arithmetic."""
    n = np.arange(side ** 3, dtype=np.float64)
    weyl = (n * 0.6180339887498949) % 1.0
    i, j, k = np.indices((side,) * 3, dtype=np.float64) / side
    smooth = (i - 0.5) * (j - 0.25) + 0.5 * (k - 0.5) ** 2 + i * k
    return np.ascontiguousarray(
        (smooth + 1e-3 * weyl.reshape((side,) * 3)).astype(np.float32))


_FIELD_CASES = {
    f"{plugin}_{side}_{tag}": (plugin, side, {key: bound})
    for plugin, key in (("sz", "pressio:abs"), ("zfp", "zfp:accuracy"))
    for side in (24, 64)
    for tag, bound in (("1e4", 1e-4), ("1e2", 1e-2))
}
_FIELD_CASES.update({
    "fpzip_24": ("fpzip", 24, {}),
    "mgard_24_1e3": ("mgard", 24, {"pressio:abs": 1e-3}),
    "mgard_64_1e3": ("mgard", 64, {"pressio:abs": 1e-3}),
})

#: stream sha256, decompressed-bytes sha256 for every field case
FIELD_DIGESTS: dict[str, tuple[str, str]] = {
    "fpzip_24": (
        "79fb98608d9ee4d8800277a8e97560d59fec4e9e795ef978e2fe24f9806876c3",
        "d1d90e5604b4b6dc88e26efe6dc6f67c3b8c266eb6c8052cb50651339f293474"),
    "mgard_24_1e3": (
        "451d4f9376087edff1c071542a5f35a5bce50b4663a395ed4b5c0b04ecdc4dd1",
        "b94858c0842cebaaf5818d5eec12c14dd8d734467a24aaffb56e2be4e0e85d10"),
    "mgard_64_1e3": (
        "61158de0c7a982e8fbc32bb393d87b9ff58eb7b34a9ea37c2e8ad94fa9859d92",
        "f0ebbd0da55441d784591929ba844ee20ce67bbce19a8a0bf551822e12b1dd6b"),
    "sz_24_1e2": (
        "1d9511eb4d698f0f1aa5023cc39479b0a15906e704416cdc13fb9cf5b41ab6aa",
        "cd6f194bb91b310379b6f09601ba91664a089f7ff36ba69dffdf78e40ab278a4"),
    "sz_24_1e4": (
        "582aeee6e4e92fb910e3f99e033bb158df9597e4977dab6fa1dfec8583d67f1f",
        "793997e35eb8a759e824e744f2b62e6ece4a99f86bde81153512265f5ab9ffcd"),
    "sz_64_1e2": (
        "436184c616b4170c0433b1e2e340e630a2538b72958588318e21ee74f5e63325",
        "036b1e8f8b178e0d7bc3408d304a09530e7fcb8c8ad10102985c3f59ed9dc595"),
    "sz_64_1e4": (
        "9e10e165c0fa77220c6ce8105eba34b69c370c836bfa0222b02b46c171384be6",
        "c0f091eb4da0e6543d3489ea0ef5b1ba624b2dc62f89175f85c1703e782a8007"),
    "zfp_24_1e2": (
        "6c6bf90301ba3094c7533c75318729be0405ac6589057a3926027790701bf772",
        "cd6f194bb91b310379b6f09601ba91664a089f7ff36ba69dffdf78e40ab278a4"),
    "zfp_24_1e4": (
        "d3851e5f434aa796db41d64b9921da57530eb553adcee4a192a9265e7985b46f",
        "793997e35eb8a759e824e744f2b62e6ece4a99f86bde81153512265f5ab9ffcd"),
    "zfp_64_1e2": (
        "71b707fc45392a3ecc572e61c1f4c6fe02c39031fd545ebfe17fd7f30f936045",
        "036b1e8f8b178e0d7bc3408d304a09530e7fcb8c8ad10102985c3f59ed9dc595"),
    "zfp_64_1e4": (
        "23f8ab86399a84cf21ff1467c1e7643f6a3a7403cbe96d580ad99dd10721ef6e",
        "c0f091eb4da0e6543d3489ea0ef5b1ba624b2dc62f89175f85c1703e782a8007"),
}


@pytest.mark.parametrize("name", sorted(_FIELD_CASES))
def test_field_stream_pinned(name):
    plugin, side, options = _FIELD_CASES[name]
    arr = _field(side)
    comp = compressor_registry.create(plugin)
    assert comp.set_options(dict(options)) == 0, comp.error_msg()
    stream = comp.compress(PressioData.from_numpy(arr)).to_bytes()
    out = comp.decompress(PressioData.from_bytes(stream),
                          PressioData.empty(DType.FLOAT, arr.shape))
    got = np.ascontiguousarray(out.to_numpy())
    assert (_sha(stream), _sha(got.tobytes())) == FIELD_DIGESTS[name]
