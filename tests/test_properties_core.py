"""Hypothesis property-based tests for the core format library."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.core.elem import E2M1, E2M3, E3M2, E4M3, E5M2
from repro.core.intquant import quantize_int_groupwise
from repro.core.layout import pack_mxplus, unpack_mxplus
from repro.core.mx import MXFP4, MXFP6, MXFP8
from repro.core.mxplus import MXFP4Plus, MXFP6Plus, MXFP8Plus
from repro.core.mxpp import MXFP4PlusPlus, MXFP6PlusPlus, MXFP8PlusPlus

finite_arrays = arrays(
    dtype=np.float64,
    shape=array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=96),
    elements=st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
    ),
)

codecs = st.sampled_from([E2M1, E2M3, E3M2, E4M3, E5M2])


@given(finite_arrays, codecs)
@settings(max_examples=60, deadline=None)
def test_codec_idempotent(x, codec):
    q = codec.quantize(x)
    np.testing.assert_array_equal(codec.quantize(q), q)


@given(finite_arrays, codecs)
@settings(max_examples=60, deadline=None)
def test_codec_bounded_by_max_normal(x, codec):
    q = codec.quantize(x)
    assert np.all(np.abs(q) <= codec.max_normal)


@given(finite_arrays, codecs)
@settings(max_examples=60, deadline=None)
def test_codec_sign_preserved(x, codec):
    q = codec.quantize(x)
    assert np.all((q == 0) | (np.sign(q) == np.sign(x)))


@given(finite_arrays)
@settings(max_examples=40, deadline=None)
def test_mx_error_bounded_by_relative_ulp(x):
    """MXFP4 error is bounded per element by half the block's coarsest ulp."""
    fmt = MXFP4()
    q = fmt(x)
    err = np.abs(x - q)
    # Bound: the element grid step at the top of the block is
    # scale * 2^(emax - mbits); saturation cannot occur because the BM
    # defines the scale.
    from repro.core.blocks import to_blocks

    bx = to_blocks(x, 32).data
    amax = np.max(np.abs(bx), axis=-1, keepdims=True)
    bound = np.maximum(amax, 2.0**-100) * 1.0  # coarse envelope: err < amax
    berr = to_blocks(err, 32).data
    assert np.all(berr <= bound + 1e-12)


@given(finite_arrays)
@settings(max_examples=40, deadline=None)
def test_mxplus_never_worse_than_mx(x):
    """Per-tensor MSE: MXFP4+ <= MXFP4 (NBMs identical, BM refined)."""
    e_plus = np.mean((x - MXFP4Plus()(x)) ** 2)
    e_base = np.mean((x - MXFP4()(x)) ** 2)
    assert e_plus <= e_base + 1e-18 + 1e-9 * e_base


@given(
    finite_arrays,
    st.sampled_from([E2M1, E2M3, E4M3]),
    st.sampled_from([16, 32, 64]),
)
@settings(max_examples=60, deadline=None)
def test_mxplus_never_worse_than_mx_any_codec_block(x, codec, block):
    """MX+ <= MX quantize-dequantize error for *every* codec and block size.

    The MX+ BM grid at the top binade is a superset of the element grid
    (extended mantissa, same anchor) and NBMs are untouched, so the
    per-tensor error can never exceed plain MX's for the same codec/block
    — including block-64 variants like mxfp4-k64 vs mxfp4+-k64.
    """
    from repro.core.mx import MXFormat
    from repro.core.mxplus import MXPlusFormat

    e_plus = np.mean((x - MXPlusFormat(codec, block_size=block)(x)) ** 2)
    e_base = np.mean((x - MXFormat(codec, block_size=block)(x)) ** 2)
    assert e_plus <= e_base + 1e-18 + 1e-9 * e_base


@given(finite_arrays, st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_error_monotone_in_outlier_budget(x, k):
    """Quantization error is non-increasing in the outlier budget.

    Promoting the top-(k+1) magnitudes to the wider codec relaxes the
    top-k scheme: the extra promoted element moves to a superset grid
    under the same shared scale and every other element is unchanged.
    """
    from repro.core.topk import TopKPromoteFormat

    e_k = np.mean((x - TopKPromoteFormat(k)(x)) ** 2)
    e_k1 = np.mean((x - TopKPromoteFormat(k + 1)(x)) ** 2)
    assert e_k1 <= e_k + 1e-18 + 1e-9 * e_k


@given(finite_arrays, st.sampled_from([MXFP4Plus, MXFP6Plus, MXFP8Plus]))
@settings(max_examples=40, deadline=None)
def test_mxplus_batched_encode_matches_reference(x, factory):
    """The vectorized encoder equals the per-block reference field by field."""
    fmt = factory()
    fast, slow = fmt.encode(x), fmt.encode_reference(x)
    np.testing.assert_array_equal(fast.shared_exp, slow.shared_exp)
    np.testing.assert_array_equal(fast.bm_index, slow.bm_index)
    np.testing.assert_array_equal(fast.elem_values, slow.elem_values)
    np.testing.assert_array_equal(fmt.decode(fast), fmt.decode(slow))


@given(finite_arrays, st.sampled_from([MXFP4PlusPlus, MXFP6PlusPlus, MXFP8PlusPlus]))
@settings(max_examples=40, deadline=None)
def test_mxpp_batched_encode_matches_reference(x, factory):
    """Single-pass MX++ encode equals the per-block Section 4.3 oracle on
    every field, signed zeros included."""
    fmt = factory()
    fast, slow = fmt.encode(x), fmt.encode_reference(x)
    for field in ("shared_exp", "bm_index", "reserved", "nbm_shared_exp"):
        np.testing.assert_array_equal(getattr(fast, field), getattr(slow, field))
    np.testing.assert_array_equal(
        fast.elem_values.view(np.uint64), slow.elem_values.view(np.uint64)
    )
    np.testing.assert_array_equal(fmt.decode(fast), fmt.decode(slow))


@given(finite_arrays)
@settings(max_examples=40, deadline=None)
def test_mxpp_never_worse_than_mxplus(x):
    """Per-tensor MSE: MXFP4++ <= MXFP4+ (NBM grid refined, no saturation)."""
    e_pp = np.mean((x - MXFP4PlusPlus()(x)) ** 2)
    e_p = np.mean((x - MXFP4Plus()(x)) ** 2)
    assert e_pp <= e_p + 1e-18 + 1e-9 * e_p


@given(finite_arrays, st.sampled_from([MXFP4, MXFP6, MXFP8]))
@settings(max_examples=40, deadline=None)
def test_mx_pow2_equivariance(x, factory):
    """Scaling by a power of two only shifts the shared exponent.

    Holds only while the shifted exponent stays inside the E8M0 clamp
    range [-127, 127]; at the boundary the spec-mandated clamp breaks
    equivariance (e.g. float32-subnormal inputs under MXFP8). Flush
    sub-2^-100 magnitudes to zero to keep every block's shared exponent
    (max |x| exponent minus emax <= 8, plus 3 for the x8) well in range —
    zeros quantize to zero under any scale, so they stay equivariant.
    """
    x = np.where(np.abs(x) < 2.0**-100, 0.0, x)
    fmt = factory()
    np.testing.assert_allclose(fmt(x * 8.0), fmt(x) * 8.0, rtol=1e-12)


@given(finite_arrays, st.sampled_from([MXFP4Plus, MXFP6Plus, MXFP8Plus]))
@settings(max_examples=40, deadline=None)
def test_mxplus_pack_roundtrip(x, factory):
    fmt = factory()
    enc = fmt.encode(x)
    restored = unpack_mxplus(fmt, pack_mxplus(fmt, enc))
    np.testing.assert_allclose(fmt.decode(restored), fmt.decode(enc), rtol=1e-12)


@given(finite_arrays, st.sampled_from([MXFP4Plus, MXFP6Plus, MXFP8Plus]))
@settings(max_examples=40, deadline=None)
def test_mxplus_bm_top_binade_or_flush(x, factory):
    """Non-flushed blocks keep the scaled BM inside [2^emax, 2^(emax+1))."""
    from repro.core.scale import ZERO_BLOCK_SENTINEL

    fmt = factory()
    enc = fmt.encode(x)
    bm_vals = np.take_along_axis(
        enc.elem_values, enc.bm_index[..., None].astype(np.int64), axis=-1
    )[..., 0]
    live = enc.shared_exp != ZERO_BLOCK_SENTINEL
    emax = fmt.elem.emax
    assert np.all((np.abs(bm_vals[live]) >= 2.0**emax) | ~np.isfinite(bm_vals[live]))
    assert np.all(np.abs(bm_vals[live]) < 2.0 ** (emax + 1))


@given(finite_arrays, st.integers(min_value=2, max_value=8))
@settings(max_examples=40, deadline=None)
def test_int_groupwise_bounded(x, bits):
    q = quantize_int_groupwise(x, bits, group=32)
    # error is at most half a quantization step of the group max
    from repro.core.blocks import to_blocks

    bx = to_blocks(x, 32).data
    bq = to_blocks(q, 32).data
    amax = np.max(np.abs(bx), axis=-1, keepdims=True)
    step = amax / ((1 << (bits - 1)) - 1)
    assert np.all(np.abs(bx - bq) <= step / 2 + 1e-12)


@given(finite_arrays)
@settings(max_examples=30, deadline=None)
def test_quantized_never_exceeds_block_envelope(x):
    """No quantized magnitude exceeds max_normal * scale of its block."""
    from repro.core.blocks import to_blocks

    fmt = MXFP4Plus()
    q = fmt(x)
    bx = to_blocks(x, 32).data
    bq = to_blocks(q, 32).data
    amax = np.max(np.abs(bx), axis=-1, keepdims=True)
    # scale <= 2 * amax / 2^emax; extended BM < 2^(emax+1) * scale
    assert np.all(np.abs(bq) <= 4 * np.maximum(amax, 0) + 1e-30)
