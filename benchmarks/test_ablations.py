"""Ablation benches for the design choices called out in DESIGN.md:
MX++'s +1 offset, the flush-to-zero rule, block-size sweeps, and the
outlier-scale collapse point of MXFP4."""

import numpy as np
from _util import print_table, run_once, save_result

from repro.core import MXFP4, MXFP4Plus, mse
from repro.core.blocks import from_blocks, to_blocks
from repro.core.elem import E2M1, floor_log2
from repro.core.mx import MXFormat
from repro.core.mxplus import MXPlusFormat
from repro.core.mxpp import MXPPFormat
from repro.core.scale import ZERO_BLOCK_SENTINEL


def _outlier_tensor(scale: float, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((256, 128))
    x[:, 10] *= scale
    x[:, 75] *= scale
    return x


class MXPPNoOffset(MXPPFormat):
    """MX++ without the +1 offset in the NBM shared-exponent rule."""

    def _nbm_shared_exp(self, mag, bm, shared):
        # MX++'s rule with e = max2 - emax (the BM slot masked as MX++ does).
        mag.reshape(-1)[bm] = 0.0
        nbm_amax = np.max(mag, axis=-1)
        new_exp = np.clip(floor_log2(nbm_amax) - self.elem.emax, shared - 7, shared)
        return np.where(nbm_amax == 0, shared, new_exp).astype(np.int32)


def test_ablation_mxpp_offset(benchmark):
    """The paper's 0.99 -> 7.92 saturation example: without the +1 offset,
    NBMs near the top of their binade saturate after rescaling and MX++
    loses accuracy exactly where the offset was designed to protect."""

    def run():
        rng = np.random.default_rng(3)
        # NBMs concentrated near the binade top (fractions 1.4-2.0), one
        # outlier BM per block — the regime of the paper's worked example.
        x = rng.uniform(0.7, 1.0, size=(256, 128)) * rng.choice([-1.0, 1.0], (256, 128))
        x[:, 10] = 50.0
        x[:, 75] = -50.0
        return {
            "mxpp_with_offset": mse(x, MXPPFormat(E2M1)(x)),
            "mxpp_no_offset": mse(x, MXPPNoOffset(E2M1)(x)),
            "mxplus": mse(x, MXFP4Plus()(x)),
        }

    out = run_once(benchmark, run)
    save_result("ablation_mxpp_offset", out)
    print_table("Ablation: MX++ +1 offset", out, "{:.6f}")
    assert out["mxpp_with_offset"] <= out["mxpp_no_offset"]
    assert out["mxpp_with_offset"] <= out["mxplus"]


def test_ablation_block_size(benchmark):
    """Block-size sweep: smaller blocks confine outliers (lower error) at
    higher scale-storage cost — the MX k=32 choice is a balance point."""

    def run():
        x = _outlier_tensor(48.0)
        out = {}
        for k in (8, 16, 32, 64, 128):
            base = MXFormat(E2M1, block_size=k, name=f"mxfp4-k{k}")
            plus = MXPlusFormat(E2M1, block_size=k, name=f"mxfp4+-k{k}")
            out[k] = {
                "mx_mse": mse(x, base(x)),
                "mxplus_mse": mse(x, plus(x)),
                "mx_bits": base.bits_per_element(),
            }
        return out

    table = run_once(benchmark, run)
    save_result("ablation_block_size", table)
    print_table("Ablation: block size", table, "{:.4f}")
    ks = sorted(table)
    assert all(table[a]["mx_mse"] <= table[b]["mx_mse"] * 1.02 for a, b in zip(ks, ks[1:]))
    assert all(table[k]["mxplus_mse"] <= table[k]["mx_mse"] + 1e-12 for k in ks)


def test_ablation_flush_rule(benchmark):
    """Flush-to-zero: blocks at the shared-exponent floor flush cleanly
    and the reserved biased-zero scale round-trips through packing."""

    def run():
        from repro.core.layout import pack_mxplus, unpack_mxplus

        fmt = MXFP4Plus()
        tiny = np.full((4, 32), 2.0**-130)
        enc = fmt.encode(tiny)
        packed = pack_mxplus(fmt, enc)
        restored = fmt.decode(unpack_mxplus(fmt, packed))
        return {
            "flushed_blocks": int(np.sum(enc.shared_exp == ZERO_BLOCK_SENTINEL)),
            "max_restored": float(np.max(np.abs(restored))),
        }

    out = run_once(benchmark, run)
    save_result("ablation_flush", out)
    print(out)
    assert out["flushed_blocks"] == 4
    assert out["max_restored"] == 0.0


def test_ablation_outlier_scale(benchmark):
    """Where MXFP4 collapses: sweep the outlier magnitude and track the
    MSE gap that MX+ recovers."""

    def run():
        out = {}
        for scale in (1, 4, 16, 64, 256):
            x = _outlier_tensor(float(scale))
            e4 = mse(x, MXFP4()(x))
            ep = mse(x, MXFP4Plus()(x))
            out[scale] = {"mxfp4": e4, "mxfp4+": ep, "recovered": 1 - ep / e4}
        return out

    table = run_once(benchmark, run)
    save_result("ablation_outlier_scale", table)
    print_table("Ablation: outlier scale sweep", table, "{:.4f}")
    # The MX+ recovery share grows with outlier magnitude.
    assert table[256]["recovered"] > table[4]["recovered"]
    assert table[256]["recovered"] > 0.5
