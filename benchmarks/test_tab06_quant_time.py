"""Table 6: measured quantization time vs input length, normalized to
MXFP4 — on this library's own vectorized encoders."""

from _util import print_table, run_once, save_result

from repro.gpu.quanttime import quantization_time_table

TOKENS = [32, 128, 512, 1024, 2048]


def test_tab06(benchmark):
    def run():
        # 5 interleaved rounds, min per format: enough samples that one
        # load spike cannot skew a single format's normalized ratio.
        return quantization_time_table(TOKENS, dim=1024, repeats=5)

    table = run_once(benchmark, run)
    print_table("Table 6: normalized quantization time", table)

    # Assert before save_result so a failing (e.g. load-skewed) run never
    # overwrites the committed artifact.
    for tokens, row in table.items():
        # MXFP4+ costs about the same as MXFP4 (the BM is found during
        # shared-scale computation anyway) — paper: 1.00-1.05x; ours is a
        # one-extra-vector-op numpy kernel, same ballpark.
        assert row["mxfp4+"] < 1.7  # loose: wall-clock jitter on shared CPUs
        # MXFP4++ pays for the second-max pass. The paper's fused CUDA
        # kernel lands at 1.04-1.15x; ours is single pass too (one extra
        # masked reduction, NBMs rounded once against the final scale),
        # but numpy spends a whole-tensor pass on that reduction and a few
        # per-block ops, so the ratio sits above the paper's.
        assert row["mxfp4+"] <= row["mxfp4++"] < 2.0

    save_result("tab06_quant_time", table)
