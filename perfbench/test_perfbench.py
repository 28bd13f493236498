"""Tests of the benchmark itself: expected values, wrapper coverage, contract.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import expected  # noqa: E402
from report import layer_metrics  # noqa: E402
from run import measure_traced  # noqa: E402
from tracer import LAYERS, SpanTracer  # noqa: E402
from workloads import CodecStore, Unit  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_batch_split_sums_to_committed_cells():
    for recipe in expected.RECIPES:
        for task in expected.TASK_ORDER:
            batches = expected.BATCH_CORRECT[recipe][task]
            assert len(batches) == expected.N_BATCHES
            assert sum(batches) / expected.N_QUESTIONS * 100 == expected.TABLE2[recipe][task]


def test_layer_metrics_match_contract():
    unit = Unit({}, {}, 1, 0, None)
    names = set(layer_metrics(SpanTracer(), [unit], [1.0], [1.0]))
    assert names == {m["name"] for m in CONTRACT["per_layer"]}


def _exercise_eval():
    from repro.data.corpus import CorpusSpec, make_corpus
    from repro.eval import harness
    from repro.nn.transformer import TransformerConfig, TransformerLM

    ppl_mod = importlib.import_module("repro.eval.perplexity")
    corpus = make_corpus(CorpusSpec("tiny", vocab_size=32, train_tokens=2000, val_tokens=600))
    prompts = corpus.train[:8].reshape(2, 4)
    conts = corpus.train[8:12].reshape(2, 2)
    for tied in (False, True):
        model = TransformerLM(
            TransformerConfig(vocab_size=32, dim=32, n_layers=1, n_heads=2, hidden=32,
                              tie_lm_head=tied)
        )
        harness.score_continuations(model, prompts, conts, "mxfp4+")
        ppl_mod.perplexity(model, corpus, "mxfp4++", batch=2, seq_len=8)


def _exercise_codec():
    codec = CodecStore()
    codec.tokens, codec.hidden = 8, 64
    codec.qdq_only += ("nvfp4+",)
    codec.setup(seed=1)
    unit = codec.unit(0)
    assert unit.failed == 0
    assert codec.reference_checks()[1] == 0


def _exercise_fleets():
    from repro.models.zoo import ARCHS
    from repro.serve import ServingCluster, chat_workload

    arch = ARCHS["llama-2-13b"]
    reqs = chat_workload(12, n_prefixes=2, prefix_len=32, seed=0, rate_rps=50.0)
    for router in ("round-robin", "least-kv-load", "queue-depth"):
        for scheduler in ("prefill-first", "chunked-prefill", "decode-priority"):
            ServingCluster(arch, "mxfp4+", n_replicas=2, router=router,
                           scheduler=scheduler, kv_token_budget=8192).run(reqs)
    ServingCluster(arch, "mxfp4+", n_prefill=1, n_decode=1, router="prefix-affinity",
                   page_budget_bytes=1 << 30, kv_transfer="pcie5").run(reqs)


def test_every_wrapped_binding_is_called():
    """Each binding gets its own span name; a rename in ``src/`` that
    leaves a wrapper unreachable fails here instead of reading zero."""
    layers = [(m, o, a, f"{m}:{o}.{a}", c, p) for m, o, a, _, c, p in LAYERS]
    tracer = SpanTracer()
    tracer.install(layers)
    try:
        _exercise_eval()
        _exercise_codec()
        _exercise_fleets()
    finally:
        tracer.uninstall()
    silent = [name for _, _, _, name, _, _ in layers if tracer.agg(name)[0] == 0]
    assert not silent


def test_uninstall_restores_bindings():
    from repro.core.elem import FloatCodec
    from repro.nn import quantize

    before = (FloatCodec.__dict__["quantize"], quantize.bf16_round)
    tracer = SpanTracer()
    tracer.install()
    assert FloatCodec.__dict__["quantize"] is not before[0]
    tracer.uninstall()
    assert (FloatCodec.__dict__["quantize"], quantize.bf16_round) == before


def test_missing_binding_fails_loudly():
    with pytest.raises(AttributeError):
        SpanTracer().install([("repro.core.elem", "FloatCodec", "no_such", "x", None, None)])


def test_self_time_excludes_children():
    tracer = SpanTracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    calls, total, own = tracer.agg("outer")
    assert calls == 1 and tracer.agg("inner")[0] == 3
    assert own == pytest.approx(total - tracer.agg("inner")[1], abs=1e-9)
    assert tracer.root_seconds() == pytest.approx(total)
    assert np.frombuffer(tracer.span_parent, dtype=np.int32).tolist() == [-1, 0, 0, 0]


class _ColdFirstUnit:
    """A workload whose first unit in the process is ten times slower."""

    def __init__(self):
        self.done = 0

    def setup(self, seed):
        pass

    def unit(self, index):
        time.sleep(0.2 if self.done == 0 else 0.02)
        self.done += 1
        return Unit({}, {}, 1, 0, None)


def test_trace_overhead_excludes_the_cold_first_unit():
    """Tracing a workload that calls no wrapped binding costs nothing, so
    the overhead must read about 1, not the cold unit's 0.1."""
    tracer = SpanTracer()
    setups = []
    units, traced, untraced_walls, traced_walls = measure_traced(
        _ColdFirstUnit(), 0, setups, 0.2, tracer
    )
    assert len(traced) == len(untraced_walls) == len(traced_walls) >= 2
    assert len(units) == 1 + 2 * len(traced) == len(setups)
    overhead = layer_metrics(tracer, traced, untraced_walls, traced_walls)["trace.overhead"]
    assert 0.8 < overhead < 1.5


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "codec-store",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
