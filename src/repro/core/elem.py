"""Element data-type codecs for block floating-point formats.

An *element codec* maps already-scaled values (i.e. values divided by the
block's shared scale) onto the representable grid of a small floating-point
or integer encoding, using IEEE-754-style semantics: an implicit leading one
for normals, gradual underflow via subnormals, round-to-nearest-even, and
saturation on overflow (the OCP MX specification converts with saturation).

The codecs here are value-level (they return exactly-representable floats)
and bit-level (they can produce and consume the packed bit patterns used by
:mod:`repro.core.layout`: FP codes through lookup tables built once per
codec, MXINT codes through an exact power-of-two scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "FloatCodec",
    "IntCodec",
    "E2M1",
    "E2M3",
    "E3M2",
    "E4M3",
    "E5M2",
    "INT8_MX",
    "INT4_MX",
    "round_half_even",
    "floor_log2",
]


def round_half_even(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer with ties to even (IEEE default rounding).

    ``np.round`` already implements banker's rounding; this wrapper exists so
    the rounding rule used across the library is named and testable in one
    place.
    """
    return np.round(x)


def floor_log2(x: np.ndarray) -> np.ndarray:
    """Exact ``floor(log2(|x|))`` for positive finite values.

    Uses :func:`numpy.frexp` rather than ``log2`` so results are exact for
    powers of two (``log2`` can return e.g. ``2.9999999999999996`` for 8.0 on
    some platforms, which would corrupt shared-exponent selection).

    Entries equal to zero map to the most negative int32 so that callers can
    treat them as "no magnitude".
    """
    x = np.asarray(x, dtype=np.float64)
    _, e = np.frexp(x)  # int32; the exponent of -x is that of x
    return np.where(x == 0, np.int32(np.iinfo(np.int32).min // 2), e - np.int32(1))


_EXP_BITS = np.int64(0x7FF << 52)  # IEEE-754 binary64 exponent field


def _round_to_grid(
    x: np.ndarray,
    mag: np.ndarray,
    shared_exp,
    emin: int,
    mbits: int,
    max_normal: float,
    keep_negative_zero: bool = False,
) -> np.ndarray:
    """``quantize(x * 2**-shared_exp) * 2**shared_exp`` without scaling ``x``.

    The codec kernel, in place in ``mag`` (a scratch ``|x|``). The grid
    has ``mbits`` mantissa bits per binade, binades from ``2**emin`` up
    (below it, the spacing of the ``emin`` binade: subnormals) and
    saturates at ``max_normal``; ``shared_exp`` (int, broadcasting
    against ``x``: one per block) shifts all of it. A power-of-two scale
    only moves the exponent, so per element:

    1. saturate: ``|x| <- min(|x|, max_normal * 2**s)``; the bound is on
       the grid, so this equals rounding first and clamping after, and it
       caps the exponent at ``emax + s``, keeping ``M`` finite;
    2. ``e = max(floor(log2 |x|), emin + s)`` from the IEEE exponent bits
       (a float64 subnormal has field 0, below every floor);
    3. ``M = 2**(e - mbits + 52)``, assembled as bits, and
       ``q = (|x| + M) - M``: the add rounds to nearest-even at the grid
       step ``2**(e - mbits)``, the subtract is exact;
    4. the sign of ``np.sign(x * 2**-s) * q``: ``-0.0`` in gives ``+0.0``,
       a negative that rounds to zero gives ``-0.0`` unless its scaled
       value already underflowed to zero (``|x| <= 2**(s - 1075)``, float64
       only). With ``keep_negative_zero`` the sign is simply ``x``'s.
    """
    se = np.asarray(shared_exp, dtype=np.int64)
    np.minimum(mag, max_normal * ((se + 1023) << 52).view(np.float64), out=mag)
    magic = mag.view(np.int64) & _EXP_BITS
    np.maximum(magic, (se + (emin + 1023)) << 52, out=magic)
    magic += np.int64(52 - mbits) << 52
    magic = magic.view(np.float64)
    mag += magic
    mag -= magic
    if keep_negative_zero:
        return np.copysign(mag, x, out=mag)
    # x + 2**(s - 1075) has the sign of np.sign(x * 2**-s). The addend is
    # built as bits: 0 for s <= 0, a subnormal up to s = 52, normal above.
    s = np.maximum(se, 0)
    flushed = np.where(s > 52, (s - 52) << 52, (np.int64(1) << np.minimum(s, 52)) >> 1)
    sign = np.add(x, flushed.view(np.float64), out=magic)  # reuses the buffer
    return np.copysign(mag, sign, out=mag)


_NO_CODE = np.uint32(0xFFFFFFFF)  # a key that no grid value has
_OFF_GRID = "values are not on the representable grid"


class _BitTables:
    """Table-driven decoding, shared by the element codecs.

    A code's value is one gather from :attr:`value_table`, the codec's
    bit-field formula (``_decode_formula``) evaluated once per code.
    """

    @cached_property
    def value_table(self) -> np.ndarray:
        """Every code's value, indexed by code (read-only)."""
        table = self._decode_formula(np.arange(1 << self.bits, dtype=np.uint32))
        table.flags.writeable = False
        return table

    def decode_bits(self, bits: np.ndarray) -> np.ndarray:
        """Decode bit patterns back to float values: one gather."""
        return self.value_table[np.asarray(bits)]


@dataclass(frozen=True)
class FloatCodec(_BitTables):
    """A small floating-point encoding ``1 + ebits + mbits`` bits wide.

    Parameters
    ----------
    name:
        Human-readable name, e.g. ``"e2m1"``.
    ebits, mbits:
        Exponent and mantissa field widths.
    bias:
        Exponent bias.
    ieee_inf:
        If True the top exponent field is reserved for Inf/NaN (E5M2 style),
        which lowers ``emax`` by one. If False but ``nan_encoding`` is True,
        only the all-ones pattern is NaN (E4M3 style) which removes the top
        mantissa code from ``max_normal`` but keeps ``emax``.
    nan_encoding:
        Whether a NaN encoding exists at all.
    """

    name: str
    ebits: int
    mbits: int
    bias: int
    ieee_inf: bool = False
    nan_encoding: bool = False

    @property
    def bits(self) -> int:
        return 1 + self.ebits + self.mbits

    @property
    def emax(self) -> int:
        """Maximum exponent of a normal number (paper's ``e_max``)."""
        top = (1 << self.ebits) - 1 - self.bias
        return top - 1 if self.ieee_inf else top

    @property
    def emin(self) -> int:
        """Exponent of the smallest normal number."""
        return 1 - self.bias

    @property
    def max_normal(self) -> float:
        """Largest representable finite magnitude."""
        top_mant = (1 << self.mbits) - 1
        if self.nan_encoding and not self.ieee_inf:
            # E4M3 style: S.1111.111 is NaN, so the largest finite value has
            # mantissa 111...0.
            top_mant -= 1
        return float(2.0 ** self.emax * (1.0 + top_mant / (1 << self.mbits)))

    @property
    def min_normal(self) -> float:
        return float(2.0 ** self.emin)

    @property
    def min_subnormal(self) -> float:
        return float(2.0 ** (self.emin - self.mbits))

    # ------------------------------------------------------------------
    # Value-level quantization
    # ------------------------------------------------------------------
    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Map ``x`` to the nearest representable value (saturating).

        Round-to-nearest-even in the format's mantissa space; magnitudes
        above ``max_normal`` saturate; magnitudes that round to zero flush
        to (signed) zero.
        """
        return self.round_scaled(np.asarray(x, dtype=np.float64))

    def round_scaled(self, x: np.ndarray, shared_exp=0, mag: np.ndarray | None = None) -> np.ndarray:
        """``quantize(x / 2**shared_exp) * 2**shared_exp``, bit for bit, unscaled.

        ``x`` is float64; ``shared_exp`` (int, within ``[-134, 127]``: the
        E8M0 range and the MX++ NBM scales 7 below it) broadcasts against
        it, one exponent per block. ``mag``, if given, is ``|x|`` in a
        scratch array that becomes the result. See :func:`_round_to_grid`.
        """
        return _round_to_grid(
            x, np.abs(x) if mag is None else mag,
            shared_exp, self.emin, self.mbits, self.max_normal,
        )

    def representable_values(self) -> np.ndarray:
        """All non-negative representable magnitudes, ascending (for tests)."""
        vals = [0.0]
        # subnormals
        for m in range(1, 1 << self.mbits):
            vals.append(2.0 ** self.emin * m / (1 << self.mbits))
        # normals
        for e in range(self.emin, self.emax + 1):
            for m in range(1 << self.mbits):
                v = 2.0**e * (1.0 + m / (1 << self.mbits))
                if v <= self.max_normal:
                    vals.append(v)
        return np.array(sorted(set(vals)))

    # ------------------------------------------------------------------
    # Bit-level encode/decode (decoding: :class:`_BitTables`)
    # ------------------------------------------------------------------
    @cached_property
    def _code_table(self) -> np.ndarray:
        """Code of every grid value, keyed by the top ``1 + 11 + mbits``
        bits of its float64 pattern; :data:`_NO_CODE` elsewhere.

        Sign, exponent and the leading ``mbits`` fraction bits: as many
        as the grid's finest value has, so at most 2**15 entries. Codes
        whose value lies beyond ``max_normal`` (NaN and Inf patterns) get
        no key.
        """
        shift = 52 - self.mbits
        values = self.value_table
        codes = np.flatnonzero(np.abs(values) <= self.max_normal)
        table = np.full(1 << (64 - shift), _NO_CODE, dtype=np.uint32)
        # An arithmetic shift: a negative value's key is negative and
        # indexes the table's upper half, as its sign bit would.
        table[values[codes].view(np.int64) >> shift] = codes
        return table

    def encode_bits(self, x: np.ndarray) -> np.ndarray:
        """Encode representable values to their bit patterns (uint32).

        One shift and one gather. ``x`` must be exactly on the grid (e.g.
        the output of :meth:`quantize`): a value whose key has no code
        (NaN, Inf, beyond ``max_normal``, or a binade or leading fraction
        the grid lacks) or whose lower fraction bits are not zero raises
        ``ValueError``.
        """
        x = np.asarray(x, dtype=np.float64)
        bits = x.reshape(-1).view(np.int64)
        shift = 52 - self.mbits
        key = bits >> shift
        codes = self._code_table[key]
        low = np.bitwise_and(bits, (1 << shift) - 1, out=key)  # reuses the buffer
        if codes.size and (low.any() or codes.max() == _NO_CODE):
            raise ValueError(_OFF_GRID)
        return codes.reshape(x.shape)

    def _decode_formula(self, bits: np.ndarray) -> np.ndarray:
        """Bit patterns to values by their fields: builds :attr:`value_table`."""
        sign = (bits >> (self.ebits + self.mbits)) & 1
        exp_field = (bits >> self.mbits) & ((1 << self.ebits) - 1)
        mant = bits & ((1 << self.mbits) - 1)

        is_sub = exp_field == 0
        exp = np.where(is_sub, self.emin, exp_field.astype(np.int64) - self.bias)
        frac = np.where(is_sub, 0.0, 1.0) + mant.astype(np.float64) / (1 << self.mbits)
        val = np.exp2(exp.astype(np.float64)) * frac
        return np.where(sign == 1, -val, val)


@dataclass(frozen=True)
class IntCodec(_BitTables):
    """Fixed-point integer element codec (MXINT style).

    Values are interpreted as ``q * 2**-frac_bits`` with ``q`` a signed
    integer clamped symmetrically to ``±(2**(bits-1) - 1)`` (the
    microxcaling reference library uses the same symmetric clamp).
    """

    name: str
    bits: int
    frac_bits: int
    int_bits: int = field(default=1)

    @property
    def emax(self) -> int:
        """``e_max`` analog for Eq. (1): 0 because magnitudes are < 2."""
        return 0

    @property
    def max_q(self) -> int:
        return (1 << (self.bits - 1)) - 1

    @property
    def max_normal(self) -> float:
        return self.max_q / float(1 << self.frac_bits)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        return self.round_scaled(np.asarray(x, dtype=np.float64))

    def round_scaled(self, x: np.ndarray, shared_exp=0, mag: np.ndarray | None = None) -> np.ndarray:
        """:meth:`FloatCodec.round_scaled` for the fixed-point grid.

        The grid is one binade wide (every magnitude up to ``max_normal``
        sits at or below the binade of ``max_q * 2**-frac_bits``), and
        ``-0.0`` keeps its sign, as ``round(-0.0 * 2**frac_bits)`` does.
        """
        top = self.max_q.bit_length() - 1  # max_q's binade, in units of the step
        return _round_to_grid(
            x, np.abs(x) if mag is None else mag,
            shared_exp, top - self.frac_bits, top, self.max_normal,
            keep_negative_zero=True,
        )

    def encode_bits(self, x: np.ndarray) -> np.ndarray:
        """Encode representable values to two's-complement codes (uint32).

        ``q = x * 2**frac_bits`` is exact (a power-of-two scale), and ``x``
        is on the grid only if ``q`` is an integer with ``|q| <= max_q``;
        anything else (NaN and ±inf included) raises ``ValueError``.
        ``-0.0`` is code 0: two's complement has no negative zero.
        """
        x = np.asarray(x, dtype=np.float64)
        # Checked first: NaN fails it, and a bounded x cannot overflow when scaled.
        if x.size and not np.abs(x).max() <= self.max_normal:
            raise ValueError(_OFF_GRID)
        q = x * float(1 << self.frac_bits)
        if not np.array_equal(q, np.rint(q)):
            raise ValueError(_OFF_GRID)
        return (q.astype(np.int64) & ((1 << self.bits) - 1)).astype(np.uint32)

    def _decode_formula(self, bits: np.ndarray) -> np.ndarray:
        """Two's-complement codes to values: builds :attr:`value_table`."""
        bits = bits.astype(np.int64)
        signed = np.where(bits >= (1 << (self.bits - 1)), bits - (1 << self.bits), bits)
        return signed.astype(np.float64) / (1 << self.frac_bits)


# Concrete MX element data types (OCP MX spec v1.0, Table 1 of the paper).
E2M1 = FloatCodec("e2m1", ebits=2, mbits=1, bias=1)
E2M3 = FloatCodec("e2m3", ebits=2, mbits=3, bias=1)
E3M2 = FloatCodec("e3m2", ebits=3, mbits=2, bias=3)
E4M3 = FloatCodec("e4m3", ebits=4, mbits=3, bias=7, nan_encoding=True)
E5M2 = FloatCodec("e5m2", ebits=5, mbits=2, bias=15, ieee_inf=True, nan_encoding=True)

INT8_MX = IntCodec("int8", bits=8, frac_bits=6)
INT4_MX = IntCodec("int4", bits=4, frac_bits=2)
