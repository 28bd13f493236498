"""LLM serving simulator: prefill/decode execution time (Figures 11-13).

Follows the paper's definition: *execution time* is the aggregated matrix
multiplication time during inference for a given number of concurrent
requests. Per layer we time the QKV/O projections, the gated MLP, and the
attention score/value products (whose K/V operands stream from the KV
cache); the LM head runs once per forward.

Prefill processes ``batch * prompt_len`` rows at once (compute-bound);
decode processes ``batch`` rows per generated token while the KV cache
grows (memory-bound). The MX+ software path inflates compute only, so it
costs ~1.5x in prefill but vanishes in decode — reproducing Figure 11.

Configuration
-------------
The one configuration object is :class:`repro.serve.QuantRecipe`:
:class:`StepPricer` and ``simulate_inference``/``end_to_end_speedup``/
``step_time`` accept a recipe or a recipe name and read its role fields
directly. The request-level front-end (continuous batching, TTFT/TPOT)
lives in :class:`repro.serve.ServingEngine`, which prices every step with
a :class:`StepPricer`. The pricer is the only implementation of the step
roofline, and its memos belong to it: this module keeps no memoized
values at module level.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable

from ..models.zoo import ArchSpec
from .kernels import _resolve, _roofline
from .spec import GPUSpec, RTX5090

__all__ = [
    "StageTimes",
    "spread_layer_overrides",
    "StepPricer",
    "step_time",
    "simulate_inference",
    "end_to_end_speedup",
    "step_time_cache_info",
    "clear_step_time_cache",
]


@dataclass
class StageTimes:
    """Aggregate matmul seconds split by serving stage.

    Returned by :func:`simulate_inference` and carried through
    :class:`repro.serve.ServingResult.stages`; in a disaggregated
    cluster the prefill pool's work is all ``prefill_s`` and the decode
    pool's all ``decode_s``.
    """

    prefill_s: float
    decode_s: float

    @property
    def total_s(self) -> float:
        """Prefill plus decode seconds."""
        return self.prefill_s + self.decode_s


def spread_layer_overrides(
    overrides: tuple, n_layer_groups: int, n_layers: int
) -> dict[int, str]:
    """Project ``((layer, fmt), ...)`` onto ``n_layers`` physical layers.

    Group-indexed overrides (``n_layer_groups == G > 0``) cover equal
    bands ``[g*n/G, (g+1)*n/G)`` — the convention that lets a recipe tuned
    on a G-block stand-in model drive a full-size architecture. The bands
    partition ``[0, n)`` (no overlap), and ``QuantContext.layer_context``
    inverts the rule exactly, so the numeric and timing paths always agree
    on which physical layer runs which format. When ``G > n`` some bands
    are empty and those groups' overrides are deterministically dropped —
    layer ``i`` keeps the assignment of group ``(i*G + G-1) // n``, the
    densest-information downsample consistent with the inverse mapping.
    The single source of the band rule: ``QuantRecipe.spread_overrides``
    delegates here, and :class:`StepPricer` uses it for per-layer pricing.

    >>> spread_layer_overrides(((0, "mxfp8"), (1, "mxfp4+")), 2, 4)
    {0: 'mxfp8', 1: 'mxfp8', 2: 'mxfp4+', 3: 'mxfp4+'}
    >>> spread_layer_overrides(((1, "bf16"),), 0, 4)  # physical indices
    {1: 'bf16'}
    """
    if not n_layer_groups or n_layer_groups == n_layers:
        return {layer: fmt for layer, fmt in overrides if layer < n_layers}
    spread: dict[int, str] = {}
    for group, fmt in overrides:
        lo = group * n_layers // n_layer_groups
        hi = (group + 1) * n_layers // n_layer_groups
        for layer in range(lo, hi):
            spread[layer] = fmt
    return spread


#: Memo caps (entries per memo). A memo that passes its cap is cleared
#: whole: its values are pure functions of their keys, so clearing only
#: ever costs a recomputation, never a different price.
ROWS_MEMO_CAP = 1 << 14
ATTENTION_MEMO_CAP = 1 << 18

#: Every live pricer, so the two process-wide counter functions below can
#: total and reset their hit/miss counts. It holds no memoized values.
_PRICERS: "weakref.WeakSet[StepPricer]" = weakref.WeakSet()


class StepPricer:
    """The step roofline for one ``(spec, arch, recipe)``, with its own memos.

    Everything that does not depend on the step is bound once at
    construction: each layer variant's MMA rates and operand widths
    (activations, weights, KV, LM head — read off the registered formats
    by :meth:`GPUSpec.tc_macs_per_s` and :func:`format_storage_bits`),
    the MX+ flags, ``kv_dim`` and the layer overrides spread onto
    physical layers, so a miss prices without a format lookup.
    Construction prices nothing; the memos fill on first use and belong
    to this instance:

    * ``rows`` — per total row count ``m``, the seven-projection stack of
      every layer variant (the base layer, then each override format in
      first-appearance order) and the LM head;
    * ``attention`` — per layer variant, the score/value gemm pair of one
      ``(rows, ctx)`` group. Decode rows revisit the same contexts across
      steps and replicas, so these hit almost always after warm-up.

    A memo that passes its cap (:data:`ROWS_MEMO_CAP`,
    :data:`ATTENTION_MEMO_CAP`) is cleared whole. Memoized and cold prices
    are bit-identical: both add the same floats in the same order.

    A :class:`repro.serve.ServingCluster` builds one pricer and hands it
    to every replica, autoscaled ones included; a standalone
    :class:`repro.serve.ServingEngine` builds its own.
    """

    def __init__(self, spec: GPUSpec, arch: ArchSpec, recipe) -> None:
        from ..serve.recipe import AUTO, as_recipe  # serve imports this module

        recipe = as_recipe(recipe)
        self.spec = spec
        self.arch = arch
        self.recipe = recipe
        self._kv_dim = arch.n_kv_heads * arch.head_dim
        act, weight = recipe.act, recipe.weight
        software = recipe.integration == "software"
        hardware = recipe.integration == "hardware"
        head_fmt = weight if recipe.lm_head == AUTO else recipe.lm_head
        if recipe.layer_overrides:
            # Mixed-precision recipe: the MX+ integration overheads apply
            # only where an MX+ format is actually in play, so flags are
            # re-derived from the formats everywhere — base layers,
            # overrides, LM head.
            base_flags = (software and "+" in act, hardware and "+" in act + weight)
            head_flags = (software and "+" in act, hardware and "+" in act + head_fmt)
        else:
            # Uniform recipes keep the recipe's flags verbatim (the
            # calibrated Figure 11-13 behavior).
            base_flags = head_flags = (software, hardware)
        tile = recipe.min_tile_m
        #: the LM head's roofline operands: base activations x head_fmt
        self._head = _resolve(spec, act, head_fmt, *head_flags, tile)
        # Layer variants as (projection, attention) roofline operands: the
        # base layer first, then one per override format in first-
        # appearance order; kv="auto" follows a layer's own activation
        # format, so an overridden layer's attention is priced at its
        # override (the same semantics QuantRecipe.to_context gives the
        # numeric path).
        kv = None if recipe.kv == AUTO else recipe.kv
        self._variants = [
            (
                _resolve(spec, act, weight, *base_flags, tile),
                _resolve(spec, act, kv or act, *base_flags, tile),
            )
        ]
        index = {}
        overrides = []
        for fmt in recipe.spread_overrides(arch.n_layers).values():
            if fmt not in index:
                index[fmt] = len(self._variants)
                flags = (software and "+" in fmt, hardware and "+" in fmt)
                self._variants.append(
                    (
                        _resolve(spec, fmt, fmt, *flags, tile),
                        _resolve(spec, fmt, kv or fmt, *flags, tile),
                    )
                )
            overrides.append(index[fmt])
        #: variant index of every overridden physical layer, in spread order
        self._overrides = tuple(overrides)
        self._rows: dict[int, tuple] = {}
        self._attention: list[dict] = [{} for _ in self._variants]
        self.rows_lookups = self.rows_misses = 0
        self.attention_lookups = self.attention_misses = 0
        _PRICERS.add(self)

    def _price_rows(self, m: int) -> tuple:
        """Miss path of the rows memo: every variant's projection stack
        (Q, K, V, O, gate, up, down, summed in that order), then the head."""
        arch, kv_dim = self.arch, self._kv_dim
        dims = (  # (n, k) of each projection
            (arch.dim, arch.dim),  # Q proj
            (kv_dim, arch.dim),  # K proj
            (kv_dim, arch.dim),  # V proj
            (arch.dim, arch.dim),  # O proj
            (arch.hidden, arch.dim),  # gate
            (arch.hidden, arch.dim),  # up
            (arch.dim, arch.hidden),  # down
        )
        stack = [
            sum(_roofline(m, n, k, proj) for n, k in dims)
            for proj, _attention in self._variants
        ]
        # LM head, once per forward
        stack.append(_roofline(m, arch.vocab, arch.dim, self._head))
        stack = tuple(stack)
        self.rows_misses += 1
        if len(self._rows) >= ROWS_MEMO_CAP:
            self._rows.clear()
        self._rows[m] = stack
        return stack

    def _price_attention(self, v: int, rows: int, ctx: int) -> tuple:
        """Miss path of variant ``v``'s attention memo: the score
        (rows x ctx) and value (rows x dim over ctx) gemms, whose K/V
        operands stream from the KV cache in the layer's KV format."""
        attention = self._variants[v][1]
        dim = self.arch.dim
        pair = (
            _roofline(rows, ctx, dim, attention),
            _roofline(rows, dim, ctx, attention),
        )
        self.attention_misses += 1
        memo = self._attention[v]
        if len(memo) >= ATTENTION_MEMO_CAP:
            memo.clear()
        memo[rows, ctx] = pair
        return pair

    def price(self, row_groups: Iterable[tuple]) -> float:
        """Matmul seconds for one scheduler step over ``row_groups``.

        ``row_groups`` holds ``(rows, ctx)`` pairs — ``rows`` token rows
        attending over a KV context of ``ctx`` tokens — or, for *mixed*
        prefill+decode batches, ``(rows, ctx, kind)`` triples where
        ``kind`` is ``"prefill"`` (a prompt chunk) or ``"decode"``
        (single-token generation rows). Groups sharing ``(ctx, kind)``
        merge (order-stable); groups of different kinds never do, so a
        chunked-prefill step that co-schedules a prompt chunk with decodes
        at the same context prices two attention kernels, not one merged
        GEMM (the way real serving stacks run a varlen prefill kernel next
        to a decode kernel). Pairs carry kind ``""``. Groups with
        ``rows <= 0`` are dropped; a step without rows costs ``0.0``.

        The linear projections and the LM head batch across all groups
        (they only see total rows); the attention score/value products run
        per merged group. A uniform batch — one group — reproduces the
        classic per-forward cost, so :func:`simulate_inference` totals and
        :class:`repro.serve.ServingEngine` accounting agree exactly.
        """
        merged: dict[tuple, int] = {}
        m_get = merged.get
        m = 0
        if type(row_groups) is not list:
            row_groups = list(row_groups)
        try:
            for rows, ctx, kind in row_groups:
                if rows > 0:
                    key = (ctx, kind)
                    merged[key] = m_get(key, 0) + rows
                    m += rows
        except ValueError:  # (rows, ctx) pairs among the groups
            merged.clear()
            m = 0
            for group in row_groups:
                rows = group[0]
                if rows > 0:
                    key = (group[1], group[2] if len(group) > 2 else "")
                    merged[key] = m_get(key, 0) + rows
                    m += rows
        if m == 0:
            return 0.0
        stack = self._rows.get(m) or self._price_rows(m)
        self.rows_lookups += 1
        layers = []
        for v, memo in enumerate(self._attention):
            get = memo.get
            layer = stack[v]
            for (ctx, _kind), rows in merged.items():
                pair = get((rows, ctx)) or self._price_attention(v, rows, ctx)
                layer += pair[0]
                layer += pair[1]
            layers.append(layer)
        self.attention_lookups += len(merged) * len(layers)
        base_layer = layers[0]
        total = base_layer * self.arch.n_layers
        for v in self._overrides:
            total += layers[v] - base_layer
        total += stack[-1]
        return total

    def cache_info(self) -> dict:
        """This pricer's memo counters: ``hits``/``misses`` over both memos,
        then the ``attention`` and ``rows`` split with each memo's size."""
        info = {
            "attention": {
                "hits": self.attention_lookups - self.attention_misses,
                "misses": self.attention_misses,
                "size": sum(len(memo) for memo in self._attention),
            },
            "rows": {
                "hits": self.rows_lookups - self.rows_misses,
                "misses": self.rows_misses,
                "size": len(self._rows),
            },
        }
        info["hits"] = info["attention"]["hits"] + info["rows"]["hits"]
        info["misses"] = info["attention"]["misses"] + info["rows"]["misses"]
        return info


def step_time(
    spec: GPUSpec,
    arch: ArchSpec,
    cfg,
    row_groups: Iterable[tuple],
) -> float:
    """One-shot :meth:`StepPricer.price` over a fresh pricer.

    Callers that price more than one step of one configuration should
    hold a :class:`StepPricer` instead, so its memos carry over.
    """
    return StepPricer(spec, arch, cfg).price(row_groups)


def step_time_cache_info() -> dict:
    """Memo hit/miss totals over every live :class:`StepPricer`.

    Kept so that run-level tooling can read one process-wide memo hit
    rate: ``hits``/``misses`` total both memos, and the ``attention`` and
    ``rows`` sub-dicts split them. The memoized values themselves belong
    to the pricers; a pricer's own counts are
    :meth:`StepPricer.cache_info`.
    """
    totals = {"attention": {"hits": 0, "misses": 0}, "rows": {"hits": 0, "misses": 0}}
    for pricer in list(_PRICERS):
        info = pricer.cache_info()
        for memo in ("attention", "rows"):
            totals[memo]["hits"] += info[memo]["hits"]
            totals[memo]["misses"] += info[memo]["misses"]
    totals["hits"] = totals["attention"]["hits"] + totals["rows"]["hits"]
    totals["misses"] = totals["attention"]["misses"] + totals["rows"]["misses"]
    return totals


def clear_step_time_cache() -> None:
    """Reset the hit/miss counters of every live :class:`StepPricer`.

    Kept so that run-level tooling can start :func:`step_time_cache_info`
    from zero. Memoized prices stay: they are pure, so dropping them
    would only cost recomputation.
    """
    for pricer in list(_PRICERS):
        pricer.rows_lookups = pricer.rows_misses = 0
        pricer.attention_lookups = pricer.attention_misses = 0


def simulate_inference(
    arch: ArchSpec,
    cfg,
    batch: int = 4,
    prompt_len: int = 1024,
    output_len: int = 64,
    spec: GPUSpec = RTX5090,
) -> StageTimes:
    """Aggregate matmul time for prefill and decode stages (seconds).

    ``cfg`` is a :class:`repro.serve.QuantRecipe` or a recipe name.
    """
    pricer = StepPricer(spec, arch, cfg)
    prefill = pricer.price([(batch * prompt_len, prompt_len)])
    decode = 0.0
    for t in range(output_len):
        decode += pricer.price([(batch, prompt_len + t)])
    return StageTimes(prefill_s=prefill, decode_s=decode)


def end_to_end_speedup(
    arch: ArchSpec,
    cfg,
    batch: int = 4,
    prompt_len: int = 1024,
    output_len: int = 64,
    spec: GPUSpec = RTX5090,
) -> float:
    """Speedup of ``cfg`` over the BF16 baseline (Figure 13)."""
    base = simulate_inference(arch, "bf16", batch, prompt_len, output_len, spec)
    ours = simulate_inference(arch, cfg, batch, prompt_len, output_len, spec)
    return base.total_s / ours.total_s
