"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (timed by the
runner before every unit, never including model training), then executes
fixed-size units of work in ``unit``. A unit returns the seconds it spent in each timed
region, the work it did, the operations it attempted and failed, and an
``outcome`` used to compare a traced run with an untraced one. Outputs
are checked inside the unit; a mismatch counts as a failed operation.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import importlib
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import expected


@dataclass
class Unit:
    seconds: dict[str, float]
    work: dict[str, float]
    attempted: int
    failed: int
    outcome: object
    counts: dict = field(default_factory=dict)


def _best_rate(units, keys, scale: float = 1.0) -> float:
    """Work per second with each timed region at its fastest over the units.

    The host is shared and noisy; interference only ever adds time, so
    the minimum over repeated identical units is the steadiest estimate
    (the min-of-N discipline the ROADMAP asks for).
    """
    best = {k: min(u.seconds[k] for u in units) for k in keys}
    return sum(units[0].work[k] for k in keys) / sum(best.values()) / scale


# ----------------------------------------------------------------------
# eval-quant: the Table 2/3 inner loop on llama-3.1-8b-sim
# ----------------------------------------------------------------------
class EvalQuant:
    """Harness batches and wiki2-sim perplexity under six recipes.

    One unit is a cycle: one 16-question batch of each of the six MCQ
    tasks, then perplexity at seq 128, each under every recipe. A batch
    is exactly one forward of ``score_continuations`` (64 sequences), the
    same batching the Table 2 harness uses, so every batch's correct
    count is checked against a per-batch copy of the committed cells.
    The seed picks which of the three batches each task contributes;
    every batch has the same shape, so seeds change values, not work.
    """

    model_name = "llama-3.1-8b-sim"

    def __init__(self) -> None:
        self.head_weights: set[int] = set()  # ids of the LM-head weight arrays

    def prepare(self) -> None:
        """Fill the model cache in a child process: training on a cold
        ``.model_cache`` is never timed and never counts toward this
        process's peak memory."""
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); "
            f"from repro.models.zoo import load_model; load_model({self.model_name!r})"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def setup(self, seed: int) -> None:
        from repro.data.tasks import TASKS, make_task
        from repro.models import zoo
        from repro.nn.quantize import as_context

        # Drop the in-process memos so each repetition loads from disk.
        zoo._MODEL_CACHE.clear()
        zoo._CORPUS_CACHE.clear()
        self.model = zoo.load_model(self.model_name)
        self.corpus = zoo.get_corpus("wiki2-sim", 240_000)
        self.tasks = {
            name: make_task(
                self.corpus,
                dataclasses.replace(spec, n_questions=min(spec.n_questions, expected.N_QUESTIONS)),
            )
            for name, spec in TASKS.items()
        }
        self.contexts = {r: as_context(r) for r in expected.RECIPES}
        self.batches = {
            name: (seed + i) % expected.N_BATCHES for i, name in enumerate(expected.TASK_ORDER)
        }
        # Updated in place: a tracer holds this set across set-ups.
        self.head_weights.clear()
        if self.model.lm_head is not None:
            self.head_weights.add(id(self.model.lm_head.weight.data))

    def _items(self):
        """``(key, call, token positions, check)`` for every item of a cycle."""
        from repro.eval import harness

        # The package re-exports the function under the module's name.
        ppl_mod = importlib.import_module("repro.eval.perplexity")
        bs = expected.BATCH_QUESTIONS
        for task_name in expected.TASK_ORDER:
            task = self.tasks[task_name]
            b = self.batches[task_name]
            sl = slice(b * bs, (b + 1) * bs)
            n_choices = task.choices.shape[1]
            prompts = np.repeat(task.prompts[sl], n_choices, axis=0)
            conts = task.choices[sl].reshape(-1, task.choices.shape[2])
            positions = prompts.shape[0] * (prompts.shape[1] + conts.shape[1] - 1)
            for recipe in expected.RECIPES:
                def score(qc=self.contexts[recipe], p=prompts, c=conts, n=n_choices,
                          answers=task.answers[sl]):
                    scores = harness.score_continuations(self.model, p, c, qc)
                    return int(np.sum(np.argmax(scores.reshape(-1, n), axis=1) == answers))

                want = expected.BATCH_CORRECT[recipe][task_name][b]
                yield f"{recipe} {task_name}", score, positions, want
        for recipe in expected.RECIPES:
            def ppl(qc=self.contexts[recipe]):
                return ppl_mod.perplexity(self.model, self.corpus, qc, seq_len=128)

            yield f"{recipe} ppl", ppl, 16 * 128, expected.PPL[recipe]

    def unit(self, index: int) -> Unit:
        seconds, tokens = {}, {}
        attempted = failed = 0
        outcome = []
        for key, call, positions, want in self._items():
            t0 = perf_counter()
            got = call()
            seconds[key] = perf_counter() - t0
            tokens[key] = positions
            attempted += 1
            failed += got != want
            outcome.append(got)
        return Unit(seconds, tokens, attempted, failed, outcome)

    def metrics(self, units) -> dict:
        rate = _best_rate(units, list(units[0].seconds))
        return {"throughput": rate}, {"eval_tok_s": (rate, "tokens/s")}


# ----------------------------------------------------------------------
# codec-store: fake-quant, write path and read path of the core formats
# ----------------------------------------------------------------------
class CodecStore:
    """LLM-shaped activations through qdq, encode+pack and unpack+decode.

    One unit is a cycle over the formats on one ``(tokens x 4096)``
    tensor with injected outlier channels. ``load(store(x))`` must equal
    ``qdq(x)`` bit for bit; MX+ encodes of a sampled slab must match the
    per-block reference encoder.
    """

    tokens, hidden = 256, 4096
    stored = ("mxfp4", "mxfp4+", "mxfp4++", "mxfp6+", "mxfp8+")
    qdq_only = ("nvfp4",)
    n_outlier_channels = 16

    def prepare(self) -> None:
        pass

    def setup(self, seed: int) -> None:
        from repro.core.registry import get_format

        rng = np.random.default_rng(seed)
        x = rng.standard_normal((self.tokens, self.hidden))
        channels = rng.choice(self.hidden, self.n_outlier_channels, replace=False)
        x[:, channels] *= rng.uniform(16.0, 64.0, size=self.n_outlier_channels)
        self.x = x
        self.slab_rows = np.sort(rng.choice(self.tokens, 8, replace=False))
        self.formats = {name: get_format(name) for name in self.stored + self.qdq_only}

    def _pack_fns(self, fmt):
        from repro.core import layout
        from repro.core.mxplus import MXPlusFormat

        if isinstance(fmt, MXPlusFormat):
            return layout.pack_mxplus, layout.unpack_mxplus
        return layout.pack_mx, layout.unpack_mx

    def unit(self, index: int) -> Unit:
        x = self.x
        sec = {}
        attempted = failed = 0
        digest = hashlib.sha256()
        for name in self.stored + self.qdq_only:
            fmt = self.formats[name]
            t0 = perf_counter()
            ref = fmt.quantize_dequantize(x)
            sec[f"qdq {name}"] = perf_counter() - t0
            digest.update(ref.tobytes())
            if name in self.qdq_only:
                continue
            pack, unpack = self._pack_fns(fmt)
            t0 = perf_counter()
            packed = pack(fmt, fmt.encode(x))
            sec[f"store {name}"] = perf_counter() - t0
            t0 = perf_counter()
            y = fmt.decode(unpack(fmt, packed))
            sec[f"load {name}"] = perf_counter() - t0
            attempted += 1
            failed += not np.array_equal(y.view(np.uint64), ref.view(np.uint64))
        return Unit(sec, dict.fromkeys(sec, x.size), attempted, failed, digest.hexdigest())

    def reference_checks(self) -> tuple[int, int]:
        """MX+ batched encode vs the per-block reference on a slab."""
        from repro.core.mxplus import MXPlusFormat
        from repro.core.mxpp import MXPPFormat

        slab = self.x[self.slab_rows]
        attempted = failed = 0
        for fmt in self.formats.values():
            if not isinstance(fmt, MXPlusFormat):
                continue
            got, ref = fmt.encode(slab), fmt.encode_reference(slab)
            # MX++ re-scales the NBMs; its BM fields are MX+'s exactly.
            fields = ("shared_exp", "bm_index")
            if not isinstance(fmt, MXPPFormat):
                fields += ("elem_values", "reserved", "nbm_shared_exp")
            attempted += 1
            failed += not all(
                np.array_equal(getattr(got, f), getattr(ref, f)) for f in fields
            )
        return attempted, failed

    def metrics(self, units) -> dict:
        def rate(op=""):
            return _best_rate(units, [k for k in units[0].seconds if k.startswith(op)], 1e6)

        return {"throughput": rate()}, {
            f"{op}_melem_s": (rate(op), "Melem/s") for op in ("qdq", "store", "load")
        }


# ----------------------------------------------------------------------
# fleet-disagg-chat: the serving simulator's pool-aware event loop
# ----------------------------------------------------------------------
class Fleet:
    """Repeated ``ServingCluster.run`` over one seeded trace.

    Every unit builds a fresh cluster (the paged caches keep warm
    prefixes across runs) and clears the process-global step-time memos
    first, so each run starts from the same state. Counts are read from
    each engine, not from ``FleetResult.replica_results``: in a
    disaggregated run the prefill pool's results come back empty.
    """

    def prepare(self) -> None:
        pass

    def _trace(self, seed: int):
        from repro.serve import chat_workload

        # Poisson, not bursty: bursty traces change the simulated step
        # count by 8.5% (CV over seeds 0-5) against 1.9% for Poisson, and
        # host time follows the step count.
        return chat_workload(
            2_000, n_prefixes=32, prefix_len=256, seed=seed, arrival="poisson", rate_rps=40.0
        )

    def _cluster(self):
        from repro.models.zoo import ARCHS
        from repro.serve import ServingCluster

        return ServingCluster(
            ARCHS["llama-2-13b"], "mxfp4+", n_prefill=2, n_decode=2,
            router="prefix-affinity", scheduler="chunked-prefill",
            page_budget_bytes=4 << 30, block_tokens=16, kv_transfer="pcie5",
        )

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.requests = self._trace(seed)
        self.cluster = self._cluster()

    def unit(self, index: int) -> Unit:
        from repro.gpu.inference import clear_step_time_cache, step_time_cache_info

        # A cluster runs once (its paged caches keep warm prefixes); the
        # runner sets up a fresh one before every unit.
        cluster, self.cluster = self.cluster, None
        clear_step_time_cache()
        # Start every run from the same collector state: garbage left by
        # the previous run otherwise lands in this run's collections.
        gc.collect()
        t0 = perf_counter()
        fleet = cluster.run(self.requests)
        dt = perf_counter() - t0

        counts = engine_counts(cluster.engines)
        info = step_time_cache_info()
        caches = [info, info["attention"], info["rows"]]
        counts["step_cache_hits"] = sum(c["hits"] for c in caches)
        counts["step_cache_lookups"] = sum(c["hits"] + c["misses"] for c in caches)
        counts["transfers"] = len(fleet.transfers)
        counts["transfer_bytes"] = sum(t["bytes"] for t in fleet.transfers)

        digest = hashlib.sha256()
        bad = set()
        want = {r.request_id: r.max_new_tokens for r in self.requests}
        seen = set()
        for resp in fleet.responses:
            rid = resp.request_id
            if rid in seen or rid not in want or resp.output_len != want[rid]:
                bad.add(rid)
            seen.add(rid)
            digest.update(
                f"{rid} {resp.ttft_s.hex()} {resp.tpot_s.hex()} {resp.finish_s.hex()}\n".encode()
            )
        bad |= set(want) - seen
        digest = digest.hexdigest()
        run_ok = counts["resident_seqs"] == 0
        if self.seed == expected.DEFAULT_SEED:
            run_ok &= digest == expected.FLEET_DIGEST
        failed = len(want) if not run_ok else len(bad)
        return Unit({"run": dt}, {"run": len(self.requests)}, len(want), failed, digest, counts)

    def metrics(self, units) -> dict:
        rate = _best_rate(units, ["run"])
        return {"throughput": rate}, {"sim_req_s": (rate, "req/s")}


def engine_counts(engines) -> dict:
    """Simulated counts summed over every engine of a fleet."""
    out = dict.fromkeys(
        ("steps", "preemptions", "resident_seqs", "allocations",
         "prefix_hits", "prefix_misses", "peak_used_blocks"),
        0,
    )
    for e in engines:
        kv = e.kv_cache.stats()
        out["steps"] += e._n_prefill + e._n_decode + e._n_mixed
        out["preemptions"] += e._preemptions
        out["resident_seqs"] += kv["resident_seqs"]
        out["allocations"] += kv["allocations"]
        out["prefix_hits"] += kv["prefix_hits"]
        out["prefix_misses"] += kv["prefix_misses"]
        out["peak_used_blocks"] += kv["peak_used_blocks"]
    return out


WORKLOADS = {
    "eval-quant": EvalQuant,
    "codec-store": CodecStore,
    "fleet-disagg-chat": Fleet,
}
