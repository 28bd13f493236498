"""Pins and properties of the packed MX / MX+ / MX++ storage layout.

``test_golden_layout`` hashes, for every registered format that
:func:`~repro.core.layout.pack_mx` or :func:`~repro.core.layout.pack_mxplus`
accepts, the packed ``elements``/``scales``/``sideband`` bytes and every
field ``unpack_*`` returns, over the inputs and edge matrix of
``tests/test_codec_kernel.py`` (signed zeros, flushed blocks, float64 max
and subnormals, three axes, both float widths). The digests were captured
from the float-arithmetic element codes that the table-driven codes
replaced, so any stored bit that moves fails here. One digest moved on
purpose: ``mxfp4+-k64``, whose 5-bit BM index lost the top bit of
positions 32-63 of a 64-element block; its sideband now holds a 6-bit
index over 2 reserved bits (element and scale bytes are unchanged).
Regenerate (only for an intended layout change) with::

    PYTHONPATH=src python tests/test_layout_pin.py

The hypothesis test holds the layout's contract on arbitrary finite
float64: ``unpack(pack(encode(x)))`` equals ``encode(x)`` field by field,
bit for bit, except that MXINT's ``-0.0`` comes back ``+0.0``: two's
complement has no negative zero.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_codec_kernel import AXES, MX_FAMILY, _bits, _inputs, _update

from repro.core.elem import IntCodec
from repro.core.layout import pack_mx, pack_mxplus, unpack_mx, unpack_mxplus
from repro.core.mxplus import MXPlusFormat
from repro.core.registry import get_format

FIELDS = ("shared_exp", "elem_values", "bm_index", "reserved", "nbm_shared_exp")


def _codec(fmt):
    if isinstance(fmt, MXPlusFormat):
        return pack_mxplus, unpack_mxplus
    return pack_mx, unpack_mx


def _digest(name: str) -> str:
    fmt = get_format(name)
    pack, unpack = _codec(fmt)
    h = hashlib.sha256()
    with np.errstate(all="ignore"):  # the pin is about bits, not warnings
        for _, x in _inputs():
            for axis in AXES:
                packed = pack(fmt, fmt.encode(x, axis=axis))
                for stream in ("elements", "scales", "sideband"):
                    if hasattr(packed, stream):
                        h.update(getattr(packed, stream))
                h.update(f"{packed.nblocks}{packed.block_shape}".encode())
                enc = unpack(fmt, packed)
                for field in FIELDS:
                    if hasattr(enc, field):
                        _update(h, getattr(enc, field))
    return h.hexdigest()


#: Captured from the float-arithmetic codes; see the module docstring.
GOLDEN = {
    "mxfp4": "a6338ebb3e6cb781c1cc08fccc5264d6e02fa6e9409e52f2b2fb3dd0a88eee0b",
    "mxfp4+": "76f94e1e208aea03a96a771d84f19eabcc6deeb2aa6d0f609d2cc3c17bb31d97",
    "mxfp4++": "8af48941de6dd2451ee99a461503e92b4d654f0b3fd98d08f160ea56b853debd",
    "mxfp4+-k64": "b3ed67ae757825419391398440ccae72d9bd26e02d59ccbd4eea143ab040bc2c",
    "mxfp4-k64": "5970e76934f782fb672b71b401c46e44b3890293e5831895873b328f99cabb3e",
    "mxfp6": "30dc7fcadd6f32d3a7de255302af1b56ca3d52a60eda5efa4c36ca6432998da0",
    "mxfp6+": "7fe62673da5aab816e95eb137f8ad26cb4ad2f7f7d8c8f601f8419026215abed",
    "mxfp6++": "0f1260d3640f5d289f04f56968e9c3c622bd3ee933f40d963916c9ddb6c37a13",
    "mxfp6-e3m2": "fe25b683f988818c18ece73741b50be2bbf2a2cb1919890a1aecafee9fcecbe7",
    "mxfp8": "ef8c67b86160368dafb70d23b1bbe9547f9a2ee59a954785e9877d28b2cdc753",
    "mxfp8+": "f892b28d8907c95fc948447e95233867eac43bf168707fca8689de0bf61d7653",
    "mxfp8++": "4ae3b53a8025f4f2b148336c2b2566dac9094a4e22d89d35e368764e76b0ce6d",
    "mxfp8-e5m2": "53866145741949e0479c8a589e7e6fe3dcd1ef839efbf1785f787b84b03e5b61",
    "mxint8": "421bd56346a7c34dd9bff06189dc2b1227052234b5e8a3524ac74576a12a1544",
}


def test_golden_covers_mx_family():
    assert sorted(GOLDEN) == sorted(MX_FAMILY)


@pytest.mark.parametrize("name", MX_FAMILY)
def test_golden_layout(name):
    assert _digest(name) == GOLDEN[name]


@pytest.mark.parametrize("name", MX_FAMILY)
@given(
    x=arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 130)),
             elements=st.floats(allow_nan=False, allow_infinity=False)),
    axis=st.sampled_from((-1, 0)),
)
@settings(max_examples=40, deadline=None)
def test_unpack_pack_is_identity(name, x, axis):
    fmt = get_format(name)
    pack, unpack = _codec(fmt)
    with np.errstate(all="ignore"):  # encode may flush tiny values; bits are the contract
        enc = fmt.encode(x, axis=axis)
    got = unpack(fmt, pack(fmt, enc))
    if isinstance(fmt.elem, IntCodec):
        enc.elem_values = enc.elem_values + 0.0  # -0.0 + 0.0 is +0.0
    for field in FIELDS:
        if hasattr(enc, field):
            want = getattr(enc, field)
            assert getattr(got, field).dtype == want.dtype, field
            np.testing.assert_array_equal(_bits(getattr(got, field)), _bits(want), err_msg=field)


if __name__ == "__main__":
    print("GOLDEN = {")
    for fmt_name in MX_FAMILY:
        print(f'    "{fmt_name}": "{_digest(fmt_name)}",')
    print("}")
