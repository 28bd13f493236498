"""Pins and properties of the exponent-bit rounding kernel behind the
MX-family codecs.

``test_golden_digests`` hashes ``quantize_dequantize`` for every registered
format (and every ``encode`` field where a format has one) over seeded
tensors with outlier channels, ragged lengths, both float widths, three
axes and an edge-value matrix. The digests were captured from the codec
as it stood before the fused kernel replaced the encode -> scale ->
``FloatCodec.quantize`` -> decode chain, so any bit that moves, signed
zeros included, fails here. Regenerate (only for an intended numeric
change) with::

    PYTHONPATH=src python tests/test_codec_kernel.py

The hypothesis tests hold the kernel's contract on arbitrary finite
float64 input, float64 max and subnormals included, with every floating
point error raising: fake-quant equals ``decode(encode(x))`` bit for bit
and the signed-zero rules of ``np.sign(x) * q`` hold.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.core.elem import E2M1, E2M3, E3M2, E4M3, E5M2, INT4_MX, INT8_MX, IntCodec
from repro.core.mx import MXFormat
from repro.core.mxplus import MXPlusFormat
from repro.core.registry import available_formats, get_format

AXES = (-1, -2, 0)


def _edge_matrix() -> np.ndarray:
    """Rows of 40 values (not a block multiple), one edge case per row.

    Each row is its own block scenario along ``axis=-1``; along ``axis=0``
    the rows mix into ragged blocks of their own.
    """
    rng = np.random.default_rng(7)
    big = np.finfo(np.float64).max
    tiny = np.finfo(np.float64).smallest_subnormal
    rows = [
        # signed zeros and negatives that round to zero against a max of 1
        [1.0, 0.0, -0.0, -1e-3, -1e-20, -0.24, 0.26, -0.0625, 0.0625, -1e-300],
        # float64 subnormals only: MX clamps the scale at -127, MX+ flushes
        [tiny, -tiny, 2.2e-310, -1e-315, 0.0, -0.0, 4e-320, -3e-323],
        # float64 max: saturates at the top E8M0 scale
        [big, -big, 1.0, -1e300, 1e-300, -0.0, big / 3, -big / 7],
        # scales below and above the E8M0 clamps
        2.0**-140 * rng.standard_normal(12),
        2.0**130 * rng.standard_normal(12),
        # everything zero
        [0.0, -0.0],
        # negatives so small that dividing by a large block scale flushes
        # them to -0.0 (which the scaled-domain sign rule maps to +0.0)
        [2.0**100, -tiny, -2.0**-1000, -2.0**-960, -1e-310, 2.0**-1000, -1.0],
    ]
    # The MX+ flush threshold floor(log2(BM)) <= -127 + e_max for every
    # element e_max in the registry (2, 4, 8, 15): BM just at, just under
    # and at the next binade.
    for emax in (2, 4, 8, 15):
        t = 2.0 ** (-127 + emax)
        for bm in (t, np.nextafter(2 * t, 0.0), 2 * t):
            rows.append(np.concatenate([[-bm], bm * rng.uniform(-1, 1, 9)]))
    out = np.zeros((len(rows), 40))
    for i, row in enumerate(rows):
        row = np.asarray(row, dtype=np.float64)
        out[i, rng.permutation(40)[: row.size]] = row
    return out


def _inputs() -> list[tuple[str, np.ndarray]]:
    rng = np.random.default_rng(20251017)
    act = rng.standard_normal((6, 9, 100))
    act[..., rng.choice(100, 4, replace=False)] *= rng.uniform(16.0, 64.0, 4)
    wide = rng.standard_normal((70, 5, 3)) * np.exp(rng.uniform(-12, 12, (70, 1, 1)))
    wide[rng.random(wide.shape) < 0.04] *= 1000.0
    edges = _edge_matrix()
    f32max = float(np.finfo(np.float32).max)
    cases = [("act", act), ("wide", wide), ("edges", edges)]
    cases += [
        (f"{name}32", np.clip(x, -f32max, f32max).astype(np.float32)) for name, x in cases
    ]
    return cases


def _update(h, arr) -> None:
    arr = np.asarray(arr)
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())


def _digest(name: str) -> str:
    fmt = get_format(name)
    h = hashlib.sha256()
    with np.errstate(all="ignore"):  # the pin is about bits, not warnings
        for _, x in _inputs():
            for axis in AXES:
                _update(h, fmt.quantize_dequantize(x, axis=axis))
                if hasattr(fmt, "encode"):
                    enc = fmt.encode(x, axis=axis)
                    for field in ("shared_exp", "elem_values", "bm_index", "reserved",
                                  "nbm_shared_exp"):
                        if hasattr(enc, field):
                            _update(h, getattr(enc, field))
    return h.hexdigest()


def _elem_digest() -> str:
    """Every element codec's ``quantize`` over the same inputs, unscaled
    and scaled into each codec's normal range."""
    h = hashlib.sha256()
    with np.errstate(all="ignore"):
        for codec in (E2M1, E2M3, E3M2, E4M3, E5M2, INT8_MX, INT4_MX):
            for _, x in _inputs():
                _update(h, codec.quantize(x))
                _update(h, codec.quantize(np.asarray(x, dtype=np.float64) * 2.0**-3))
    return h.hexdigest()


#: Captured from the pre-kernel codec; see the module docstring.
GOLDEN_ELEM = "16a2586d4eaa3fb9d5f3c5169c87b2973a69c7f205474b12b89de70bac12f5c0"
GOLDEN = {
    "int4-g128": "a3886195c31dcd063e56b432e8c8bba4db1f0422a0c0e5cb4d1387c51561be2b",
    "int8-g128": "11567ff4e64c2279b73a65ad48f60753d834923b5553e65006a412805d50c569",
    "msfp12": "4a6acdfb060da47c7f1fa3f388bb0d5503cadda49670da4251b30e437a2e8951",
    "msfp14": "55edbec16166fae7a74cec2aa5792cd1102d1a45e3a47a7bcadb0ecf9dd500c1",
    "msfp16": "ed0f886de2cbbbfb91f0887d4c4d397ba6ac14d78c872f967e966af3731b42b7",
    "mxfp4": "31fe375d0e5cfc011ce2ef89e46f73215874df654f3620acfc8d8286426f6b14",
    "mxfp4+": "d8047e81ea4b8d20aa5cacfd08e3807e6d372a28c7909ec4a00aa12488762ccf",
    "mxfp4++": "bb23c2ed28353937e1bad283520b27087d92ef2b1d6ca9c8e02a9cd3f69fdc67",
    "mxfp4+-k64": "685be4b86b788dac0cc14a6fc849d2b9ff3f6ec19804a61bf19e02ba15c200a5",
    "mxfp4-k64": "6aadb25c6fde7601de2dcc7d21c2b3929500bd81ed8a67db270827b8662f50ae",
    "mxfp4-top1": "f4eee40e4d06f77c0978bc497511bff35adf3a32ef1e55f49df086c32eb7f1d1",
    "mxfp4-top2": "3b358ede81014946b3a219bf8819d2eed028c8d5a3d6d0c396ed989b298a6837",
    "mxfp4-top3": "d0138c303e61c0ebab212d4c8b7f13db984bbf32b6a0e83ba62d982c07640a71",
    "mxfp4-top4": "f6ad24f1f8d2253338542be3e21ebd3a70139770efda2489ddc0f4a96b0f7b18",
    "mxfp6": "d337e063c6f2f693eb211ab833c50c241d43cf7a3ab4b2e852f3888b2a20872f",
    "mxfp6+": "b2bc95c6d3612472217f896918b7cbae8642d1d7b91f078ae23cf744e548ab0d",
    "mxfp6++": "fc0791880f0374d30e1554af770f3f8f30c292a21a26dd8098a60cf21fed5e2a",
    "mxfp6-e3m2": "fc34d3771675eed998201cdbdbcaf746f8224d885dc1cd05c7cc8f104eb0e4a3",
    "mxfp8": "7b4a51ca7c243f42eefe862f20680a1e84cd33df7f8de9c1b6f4832e3536ceab",
    "mxfp8+": "1d0ad3e3d1f5a69e08946dad2fd9e0374a9fe58966402a97e8127790995765a4",
    "mxfp8++": "a68a6794774e0d6a3b2e291e6dcdce13605cd2e0ae88a7e26991c7a453e97da3",
    "mxfp8-e5m2": "21d82c0cf7f68fb7be25265cdda704e9fc5af54690c6225422507e09dab1e9b5",
    "mxint4": "4784ef8b3e9afff1751a340c641e78475cad1d823ea168b90219d09c6aaf9eb7",
    "mxint4+": "3216cd696b5171963a1bcbe5f1fc72a33bed332c86004542dd1f068f2d806793",
    "mxint8": "20624dad737781d76699fe77ef9a3121cedb171c698b186507daae95ce5a8558",
    "mxint8+": "cc48fd61e452f290f0de0a335547ceddbd553941057fcfdbf702ee278e5f27ae",
    "nvfp4": "d10958e78dcf8df92c43f666af64dc8b1efe39aecd3e6b5ff142ffca269d1d79",
    "nvfp4+": "05e4810df2b14951c3bbd2644c4c4c202ceceb88d2bae65d26565c161043c8b0",
    "smx4": "0e6fe06e5f0eca37c312c21db6283ec20a23edc7ccafb3774f61cdcf54e0f017",
    "smx6": "d7594ac7b48b9c2e4f15cb55445ac10d27c3294031e4059ad19983f481d861ad",
    "smx9": "e82d78c30c50ac8e9208a7963385beef5585b17594883a7e3920e27af952863e",
}


def test_golden_covers_registry():
    assert sorted(GOLDEN) == available_formats()


@pytest.mark.parametrize("name", available_formats())
def test_golden_digests(name):
    assert _digest(name) == GOLDEN[name]


def test_golden_elem_quantize():
    assert _elem_digest() == GOLDEN_ELEM


MX_FAMILY = [n for n in available_formats() if isinstance(get_format(n), (MXFormat, MXPlusFormat))]


def _finite(width):
    return st.floats(allow_nan=False, allow_infinity=False, width=width)


def _cases(width):
    dtype = np.float64 if width == 64 else np.float32
    shapes = array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=70)
    return arrays(dtype, shapes, elements=_finite(width)).flatmap(
        lambda x: st.tuples(st.just(x), st.integers(-x.ndim, x.ndim - 1))
    )


def _bits(a):
    return a.view(f"u{a.itemsize}")


@pytest.mark.parametrize("name", MX_FAMILY)
@given(case=st.one_of(_cases(64), _cases(32)))
@settings(max_examples=40, deadline=None)
def test_qdq_is_decode_of_encode(name, case):
    x, axis = case
    fmt = get_format(name)
    with np.errstate(all="raise"):
        q = fmt.quantize_dequantize(x, axis=axis)
        d = fmt.decode(fmt.encode(x, axis=axis))
    assert q.dtype == x.dtype and q.shape == x.shape
    np.testing.assert_array_equal(_bits(q), _bits(d))


@pytest.mark.parametrize("name", MX_FAMILY)
@given(x=arrays(np.float64, st.integers(1, 80), elements=_finite(64)))
@settings(max_examples=40, deadline=None)
def test_signed_zero_contract(name, x):
    """``np.sign(x) * q``: a zero in gives ``+0.0``, a negative that rounds
    to zero gives ``-0.0`` (MXINT keeps ``-0.0``, as integer rounding does;
    MX+ flushed blocks are ``+0.0``). Magnitudes under 2**-900 become
    signed zeros here: dividing those by a large block scale underflows,
    which the golden digests pin instead."""
    x = np.where(np.abs(x) < 2.0**-900, np.copysign(0.0, x), x)
    fmt = get_format(name)
    with np.errstate(all="raise"):
        q = fmt.quantize_dequantize(x)
    zero_out = q == 0
    int_elem = isinstance(fmt.elem, IntCodec)
    assert not np.any(np.signbit(q) & (x > 0))
    assert np.all(np.signbit(q[zero_out & (x < 0)]) | isinstance(fmt, MXPlusFormat))
    assert np.array_equal(np.signbit(q[x == 0]), np.signbit(x[x == 0]) & int_elem)


@pytest.mark.parametrize(
    "codec", [E2M1, E2M3, E3M2, E4M3, E5M2, INT8_MX, INT4_MX], ids=lambda c: c.name
)
@given(x=arrays(np.float64, st.integers(1, 64), elements=_finite(64)),
       shared_exp=st.integers(-134, 127))
@settings(max_examples=60, deadline=None)
def test_round_scaled_is_scaled_quantize(codec, x, shared_exp):
    """Rounding in the real domain equals quantize-in-the-scaled-domain, at
    every scale an MX or MX++ block can have, with no overflow."""
    with np.errstate(all="raise"):
        got = codec.round_scaled(x, shared_exp)
    with np.errstate(all="ignore"):  # the oracle divides: it may flush or overflow
        want = codec.quantize(x / 2.0**shared_exp) * 2.0**shared_exp
    np.testing.assert_array_equal(_bits(got), _bits(want))


if __name__ == "__main__":
    print(f'GOLDEN_ELEM = "{_elem_digest()}"')
    print("GOLDEN = {")
    for fmt_name in available_formats():
        print(f'    "{fmt_name}": "{_digest(fmt_name)}",')
    print("}")
