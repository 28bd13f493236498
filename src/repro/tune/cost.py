"""Serving-cost model: one throughput/footprint score per recipe.

A candidate recipe's serving cost has two coupled components, and this
module composes exactly the two primitives the serving stack already
trusts:

* **step time** — :class:`repro.gpu.inference.StepPricer`, the roofline
  matmul model behind ``ServingEngine``/``ServingCluster`` (mixed-precision
  ``layer_overrides`` included);
* **KV footprint** — :func:`repro.serve.kvcache.kv_token_bytes`, the
  bytes/token the paged KV allocator charges per resident token.

They meet in the continuous-batching steady state: a page budget divided
by the recipe's KV bytes/token bounds how many requests sit in one decode
batch, and the decode step time for that batch sets the token rate. The
resulting ``tokens_per_s`` is the scalar score the searchers in
:mod:`repro.tune.search` maximize — a recipe with a leaner KV format earns
throughput by *fitting more concurrent requests*, which is the paper's
serving argument for microscaling formats in the first place.

>>> from repro.models.zoo import ARCHS
>>> cost = CostModel(ARCHS["llama-2-13b"])
>>> mx4, bf16 = cost.evaluate("mxfp4"), cost.evaluate("bf16")
>>> mx4.concurrency > 3 * bf16.concurrency  # 4.25-bit KV vs 16-bit KV
True
>>> mx4.tokens_per_s > bf16.tokens_per_s
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..gpu.inference import StepPricer
from ..gpu.spec import GPUSpec, RTX5090
from ..models.zoo import ArchSpec
from ..serve.kvcache import KVTransfer, kv_token_bytes
from ..serve.recipe import as_recipe

__all__ = ["RecipeCost", "CostModel"]


@dataclass(frozen=True)
class RecipeCost:
    """Evaluated serving cost of one recipe under a :class:`CostModel`."""

    recipe_name: str
    tokens_per_s: float  # steady-state decode throughput (the score)
    concurrency: int  # requests resident under the page budget
    kv_bytes_per_token: float
    decode_step_s: float  # one decode iteration at full concurrency
    prefill_s: float  # one full-batch prefill (amortized into the score)
    disaggregated: bool = False  # priced as a decode pool behind a KV link
    transfer_bytes_per_request: float = 0.0  # migrated KV per admission
    transfer_s_per_request: float = 0.0  # link time per migration

    @property
    def score(self) -> float:
        """The single scalar the searchers maximize (higher is better)."""
        return self.tokens_per_s

    def to_dict(self) -> dict:
        """JSON-friendly view; migration keys appear only when priced
        disaggregated, so unified artifacts keep their historical shape."""
        out = {
            "recipe": self.recipe_name,
            "tokens_per_s": self.tokens_per_s,
            "concurrency": self.concurrency,
            "kv_bytes_per_token": self.kv_bytes_per_token,
            "decode_step_ms": self.decode_step_s * 1e3,
            "prefill_ms": self.prefill_s * 1e3,
        }
        if self.disaggregated:
            out["disaggregated"] = True
            out["transfer_bytes_per_request"] = self.transfer_bytes_per_request
            out["transfer_ms_per_request"] = self.transfer_s_per_request * 1e3
        return out


@dataclass(frozen=True)
class CostModel:
    """Steady-state serving scenario a recipe is priced against.

    ``page_budget_bytes`` of KV memory serve requests of ``prompt_len``
    prompt tokens generating ``output_len`` tokens each; concurrency is
    whatever the recipe's KV format fits (capped by ``max_batch``), decode
    runs at the mid-generation context length, and each output token
    amortizes its share of the prefill.

    ``scheduler`` names the batch-composition policy of the serving core
    the price models (see :func:`repro.serve.sched.available_schedulers`):

    * ``"prefill-first"`` (default) and ``"decode-priority"`` amortize a
      dedicated full-batch prefill over the output tokens — the classic
      alternating steady state (identical formulas: at steady state both
      policies run the same dedicated-step mix);
    * ``"chunked-prefill"`` prices the Sarathi-style steady state: every
      decode step also carries the batch's incoming prompt rows as a
      tagged chunk, priced by the step pricer's mixed-batch path (chunk and
      decode attention kernels separate).

    ``disaggregated=True`` prices the **decode pool of a disaggregated
    deployment** instead: prefill runs on a separate pool, so no prefill
    (or chunk) time is amortized into the decode rate — but every
    admission first migrates its KV (``prompt_len + 1`` tokens at the
    recipe's exact bytes/token) over ``transfer`` (a
    :class:`~repro.serve.kvcache.KVTransfer`; PCIe 5-class default), and
    the link serializes: in steady state one request completes — and one
    migrates in — per ``output_len`` generated tokens, so throughput is
    the *minimum* of the compute rate and the interconnect's sustainable
    admission rate. A leaner KV format therefore wins twice here: more
    concurrency per page budget *and* fewer bytes per migration.
    """

    arch: ArchSpec
    spec: GPUSpec = RTX5090
    page_budget_bytes: float = float(4 << 30)
    prompt_len: int = 512
    output_len: int = 128
    max_batch: int = 256
    scheduler: str = "prefill-first"
    disaggregated: bool = False
    transfer: KVTransfer | None = None

    def __post_init__(self) -> None:
        if self.scheduler not in (
            "prefill-first",
            "decode-priority",
            "chunked-prefill",
        ):
            raise KeyError(f"unknown scheduler {self.scheduler!r} for CostModel")
        if self.disaggregated and self.scheduler == "chunked-prefill":
            # Chunked prefill is a *colocated* steady state (prompt chunks
            # ride along with decode steps); a disaggregated decode pool
            # runs pure decode steps, so the combination would silently
            # price one thing while claiming another.
            raise ValueError(
                "disaggregated=True prices a pure-decode pool; "
                "scheduler='chunked-prefill' does not apply — use the "
                "default scheduler or drop disaggregation"
            )
        if self.disaggregated and self.transfer is None:
            object.__setattr__(self, "transfer", KVTransfer())

    # ------------------------------------------------------------------
    def concurrency(self, recipe) -> int:
        """Decode-batch size the KV page budget sustains for ``recipe``."""
        per_request = kv_token_bytes(self.arch, recipe) * (
            self.prompt_len + self.output_len
        )
        return max(1, min(self.max_batch, int(self.page_budget_bytes // per_request)))

    def evaluate(self, recipe) -> RecipeCost:
        """Price one recipe: simulated steady-state serving tokens/s."""
        recipe = as_recipe(recipe)
        concurrency = self.concurrency(recipe)
        mid_ctx = self.prompt_len + self.output_len // 2
        pricer = StepPricer(self.spec, self.arch, recipe)
        decode = pricer.price([(concurrency, mid_ctx)])
        prefill = pricer.price([(concurrency * self.prompt_len, self.prompt_len)])
        kv_bytes = kv_token_bytes(self.arch, recipe)
        if self.disaggregated:
            # Decode-pool steady state: prefill is someone else's problem,
            # so every decode step is pure — but each completed request is
            # replaced by a migrated one, and the serialized interconnect
            # must sustain that admission rate.
            transfer_bytes = kv_bytes * (self.prompt_len + 1)
            transfer_s = self.transfer.transfer_s(transfer_bytes)
            occupancy = self.transfer.occupancy_s(transfer_bytes)
            compute_rate = concurrency / decode
            if math.isinf(occupancy):
                tokens_per_s = 0.0  # stalled link: nothing ever reaches decode
            elif occupancy > 0:
                link_rate = self.output_len / occupancy
                tokens_per_s = min(compute_rate, link_rate)
            else:
                tokens_per_s = compute_rate
            return RecipeCost(
                recipe_name=recipe.name,
                tokens_per_s=tokens_per_s,
                concurrency=concurrency,
                kv_bytes_per_token=kv_bytes,
                decode_step_s=decode,
                prefill_s=prefill,
                disaggregated=True,
                transfer_bytes_per_request=transfer_bytes,
                transfer_s_per_request=transfer_s,
            )
        if self.scheduler == "chunked-prefill":
            # Steady state under chunked prefill: each decode step also
            # carries the prompt rows entering the batch per generated
            # token (one admission per completion), co-scheduled as a
            # tagged chunk — the mixed-batch price replaces the dedicated
            # prefill step entirely.
            chunk_rows = -(-concurrency * self.prompt_len // self.output_len)
            per_token = pricer.price(
                [
                    (concurrency, mid_ctx, "decode"),
                    (chunk_rows, self.prompt_len, "prefill"),
                ]
            )
        else:
            per_token = decode + prefill / self.output_len
        return RecipeCost(
            recipe_name=recipe.name,
            tokens_per_s=concurrency / per_token,
            concurrency=concurrency,
            kv_bytes_per_token=kv_bytes,
            decode_step_s=decode,
            prefill_s=prefill,
        )

    def dollars_per_mtok(
        self,
        recipe,
        price="rtx5090",
        n_gpus: int = 1,
        tpot_slo_s: float | None = None,
    ) -> float:
        """USD per million generated tokens for this steady state.

        Composes :meth:`evaluate` with the committed GPU price table
        (:mod:`repro.tune.pricing`): the recipe's steady-state
        ``tokens_per_s`` on one GPU of this scenario, billed at
        ``price`` (a preset name or :class:`~repro.tune.pricing.GPUPrice`)
        across ``n_gpus`` — the hook every sweep-report dollar figure
        derives from, so no $/Mtok number is ever hand-entered.

        ``tpot_slo_s`` prices *at an SLO*: the steady-state
        time-per-output-token is ``concurrency / tokens_per_s`` (each
        resident request receives one token per full-batch decode
        round), and a scenario whose steady state violates the SLO is
        infeasible — it prices at ``inf`` rather than reporting a cheap
        rate no compliant deployment could achieve.

        >>> from repro.models.zoo import ARCHS
        >>> cost = CostModel(ARCHS["llama-2-13b"])
        >>> cost.dollars_per_mtok("mxfp4+") < cost.dollars_per_mtok("bf16")
        True
        >>> cost.dollars_per_mtok("mxfp4+", tpot_slo_s=1e-9)
        inf
        """
        from .pricing import get_gpu_price

        cost = self.evaluate(recipe)
        if tpot_slo_s is not None:
            if cost.tokens_per_s <= 0:
                return math.inf
            if cost.concurrency / cost.tokens_per_s > tpot_slo_s:
                return math.inf
        return get_gpu_price(price).dollars_per_mtok(
            cost.tokens_per_s, n_gpus=n_gpus
        )

    def to_dict(self) -> dict:
        """Scenario parameters as JSON; non-default knobs only, so the
        committed ``tune_frontier.json`` artifact stays byte-identical."""
        out = {
            "arch": self.arch.name,
            "gpu": self.spec.name,
            "page_budget_bytes": self.page_budget_bytes,
            "prompt_len": self.prompt_len,
            "output_len": self.output_len,
            "max_batch": self.max_batch,
        }
        if self.scheduler != "prefill-first":
            # The default is omitted so pre-scheduler frontier artifacts
            # (benchmarks/results/tune_frontier.json) stay byte-identical.
            out["scheduler"] = self.scheduler
        if self.disaggregated:
            out["disaggregated"] = True
            out["transfer_gb_s"] = self.transfer.bandwidth_gb_s
            out["transfer_latency_s"] = self.transfer.latency_s
        return out
