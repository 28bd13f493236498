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
The canonical configuration object is :class:`repro.serve.QuantRecipe` —
``simulate_inference``/``end_to_end_speedup``/``step_time`` accept a
recipe, a recipe name, or a :class:`ServingConfig` — the internal timing
struct a recipe lowers to (``QuantRecipe.to_serving_config()``). The
request-level front-end (continuous batching, TTFT/TPOT) lives in
:class:`repro.serve.ServingEngine`, which is backed by :func:`step_time`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..models.zoo import ArchSpec
from .kernels import GemmShape, gemm_time
from .spec import FORMAT_BITS, GPUSpec, RTX5090

__all__ = [
    "ServingConfig",
    "StageTimes",
    "as_serving_config",
    "spread_layer_overrides",
    "step_time",
    "simulate_inference",
    "end_to_end_speedup",
    "step_time_cache_info",
    "clear_step_time_cache",
    "set_step_time_cache_limit",
]


@dataclass(frozen=True)
class ServingConfig:
    """Low-level timing knobs for one configuration (internal struct).

    Prefer :class:`repro.serve.QuantRecipe`; this object is what
    ``QuantRecipe.to_serving_config()`` produces and what the timing
    functions consume internally.
    """

    name: str
    act_fmt: str = "bf16"
    weight_fmt: str = "bf16"
    mxplus_software: bool = False  # Algorithm 1 extra sparse MMA on A
    mxplus_hardware: bool = False  # Section 6 Tensor-Core integration
    min_tile_m: int = 1  # kernel tile granularity on M (A8W4: 128)
    # -- mixed-precision threading (QuantRecipe.to_serving_config) --------
    kv_fmt: str = ""  # KV-cache stream format; "" follows act_fmt
    lm_head_fmt: str = ""  # LM-head weight format; "" follows weight_fmt
    # ((layer, fmt), ...): per-layer act+weight replacement, see
    # QuantRecipe.layer_overrides; n_layer_groups declares the layer space
    # (0 = physical arch layers, G > 0 = G equal groups spread over them).
    layer_overrides: tuple = ()
    n_layer_groups: int = 0


def as_serving_config(cfg) -> ServingConfig:
    """Normalize a ``QuantRecipe`` / recipe name / ``ServingConfig``."""
    if isinstance(cfg, ServingConfig):
        return cfg
    if isinstance(cfg, str):
        from ..serve.recipe import QuantRecipe

        return QuantRecipe.from_name(cfg).to_serving_config()
    to_serving = getattr(cfg, "to_serving_config", None)
    if callable(to_serving):
        return to_serving()
    raise TypeError(
        f"expected QuantRecipe, recipe name, or ServingConfig, got {cfg!r}"
    )


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
    delegates here, and ``step_time`` uses it for per-layer pricing.

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


def _merge_groups(
    row_groups: Iterable[tuple],
) -> tuple[list[tuple[int, int, str]], int]:
    """Merge row groups sharing ``(ctx, kind)`` (order-stable).

    Accepts ``(rows, ctx)`` pairs (legacy, kind ``""``) and
    ``(rows, ctx, kind)`` triples. Groups of *different* kinds never
    merge: a mixed scheduler step tags prompt-chunk rows ``"prefill"``
    and token-generation rows ``"decode"``, and their attention products
    are priced as separate kernels (the way real serving stacks run a
    varlen prefill kernel next to a decode kernel), so
    ``[(5, c, "prefill"), (1, c, "decode")]`` is *not* the same step as
    the pure batch ``[(6, c)]`` — and must not share its memo entry.

    Returns ``(groups, total_rows)`` so the caller never re-walks the
    merged list just to count rows.
    """
    merged: dict[tuple[int, str], int] = {}
    m_get = merged.get
    total = 0
    for group in row_groups:
        rows = group[0]
        if rows <= 0:
            continue
        key = (group[1], group[2]) if len(group) > 2 else (group[1], "")
        merged[key] = m_get(key, 0) + rows
        total += rows
    return [(rows, ctx, kind) for (ctx, kind), rows in merged.items()], total


# Step-time memo: a multi-replica cluster replays the same (spec, arch,
# cfg, groups) step shape once per replica per scheduler iteration, so
# decode sweeps are dominated by identical recomputation. The key covers
# every GPUSpec field (specs are frozen but carry an unhashable dict).
#
# At fleet scale (million-request traces) whole-step keys rarely repeat
# for decode steps — every request sits at a different context length —
# so two finer-grained memos back the step memo up:
#
# * ``_ATT_CACHE`` — the attention score/value gemm *pair* per
#   ``(rows, ctx)`` group. Decode rows revisit the same ``(1, ctx)``
#   shapes across steps, replicas, and layers, so hit rates approach
#   100% after warmup.
# * ``_ROWS_CACHE`` — the row-count-only work (the seven linear
#   projections and the LM head), keyed by total step rows ``m``.
#
# Both sub-caches store the *exact* floats the uncached path would
# produce and the step sum accumulates them in the same order, so cached
# and uncached step times are bit-identical (committed artifacts
# regenerate byte-for-byte). All memos are size-capped LRUs: fleet-scale
# sweeps cannot grow them without bound, and eviction only ever costs a
# recomputation, never a different value.


class _LRUCache:
    """Size-capped LRU memo with hit/miss counters.

    ``get`` refreshes recency; when ``put`` overflows ``maxsize`` the
    least-recently-used entry is evicted. Eviction is invisible to
    callers except as a later miss — values are pure functions of their
    keys.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.data: "OrderedDict[tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        """The cached value for ``key`` (recency-refreshed), else None.

        Recency refresh only engages once the cache is at capacity —
        before that no eviction decision is pending and insertion order
        stands in for recency, which keeps the hot-path ``get`` a single
        dict probe (``move_to_end`` costs as much as the lookup itself).
        """
        value = self.data.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        if len(self.data) >= self.maxsize:
            self.data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        """Insert ``key``; evicts the LRU entry when over capacity."""
        self.data[key] = value
        if len(self.data) > self.maxsize:
            self.data.popitem(last=False)

    def clear(self) -> None:
        self.data.clear()
        self.hits = self.misses = 0

    def __len__(self) -> int:
        return len(self.data)


_STEP_CACHE = _LRUCache(1 << 16)  # whole-step memo: (spec, arch, cfg, groups)
_ATT_CACHE = _LRUCache(1 << 18)  # per-group attention gemm pairs
_ROWS_CACHE = _LRUCache(1 << 14)  # projection-stack / LM-head times per m


def set_step_time_cache_limit(
    step: int | None = None, attention: int | None = None, rows: int | None = None
) -> None:
    """Re-bound the step-time memo caches (entries beyond the new cap are
    evicted LRU-first on the next insert). ``None`` leaves a cap alone."""
    for cache, size in ((_STEP_CACHE, step), (_ATT_CACHE, attention), (_ROWS_CACHE, rows)):
        if size is None:
            continue
        if size < 1:
            raise ValueError("cache limit must be >= 1")
        cache.maxsize = size
        while len(cache.data) > size:
            cache.data.popitem(last=False)


#: id-keyed memo for :func:`_spec_key` — cluster loops pass the same
#: (module-constant) ``GPUSpec`` object millions of times, and rebuilding
#: the sorted-throughput tuple per call shows up in profiles. Holding the
#: spec object itself keeps its ``id`` from being recycled.
_SPEC_KEYS: dict[int, tuple] = {}


def _spec_key(spec: GPUSpec) -> tuple:
    cached = _SPEC_KEYS.get(id(spec))
    if cached is not None and cached[0] is spec:
        return cached[1]
    key = (
        spec.name,
        spec.num_sms,
        spec.tensor_cores_per_sm,
        spec.clock_ghz,
        spec.mem_bw_gbps,
        spec.fp4_macs_per_cycle_per_tc,
        tuple(sorted(spec.format_throughput.items())),
        spec.native_mx,
        spec.sparse_speedup,
    )
    if len(_SPEC_KEYS) > 4096:  # sweeps that build specs in a loop
        _SPEC_KEYS.clear()
    _SPEC_KEYS[id(spec)] = (spec, key)
    return key


# Interned cache-key prefixes: the invariant part of every memo key
# (spec + arch + format flags) is a deep tuple whose hash Python
# recomputes on every probe. Interning it to a small integer once makes
# the per-group attention keys 3-int tuples — the difference between a
# ~3 microsecond and a ~0.1 microsecond cache hit at fleet scale. Ids
# are handed out by a monotonic counter and never reused, so entries in
# the LRU caches can never collide with a later prefix.
_KEY_IDS: dict[tuple, int] = {}


def _intern(prefix: tuple) -> int:
    interned = _KEY_IDS.get(prefix)
    if interned is None:
        interned = len(_KEY_IDS)
        _KEY_IDS[prefix] = interned
    return interned


def step_time_cache_info() -> dict:
    """Hit/miss/size/capacity counters for the step-time memo caches.

    ``hits``/``misses``/``size``/``maxsize`` describe the whole-step
    memo; the ``attention`` and ``rows`` sub-dicts report the per-group
    attention-pair and per-row-count projection memos that serve the
    decode steps whose full group signature never repeats.
    """
    return {
        "hits": _STEP_CACHE.hits,
        "misses": _STEP_CACHE.misses,
        "size": len(_STEP_CACHE),
        "maxsize": _STEP_CACHE.maxsize,
        "attention": {
            "hits": _ATT_CACHE.hits,
            "misses": _ATT_CACHE.misses,
            "size": len(_ATT_CACHE),
            "maxsize": _ATT_CACHE.maxsize,
        },
        "rows": {
            "hits": _ROWS_CACHE.hits,
            "misses": _ROWS_CACHE.misses,
            "size": len(_ROWS_CACHE),
            "maxsize": _ROWS_CACHE.maxsize,
        },
    }


def clear_step_time_cache() -> None:
    """Drop all memoized step times (counters reset too)."""
    _STEP_CACHE.clear()
    _ATT_CACHE.clear()
    _ROWS_CACHE.clear()


def step_time(
    spec: GPUSpec,
    arch: ArchSpec,
    cfg,
    row_groups: Sequence[tuple[int, int]],
) -> float:
    """Matmul seconds for one scheduler step over ``row_groups``.

    ``row_groups`` is a list of ``(rows, ctx)`` pairs — ``rows`` token
    rows attending over a KV context of ``ctx`` tokens — or, for *mixed*
    prefill+decode batches, ``(rows, ctx, kind)`` triples where ``kind``
    is ``"prefill"`` (a prompt chunk) or ``"decode"`` (single-token
    generation rows). The linear projections and the LM head batch across
    all groups (they only see total rows); the attention score/value
    products run per distinct ``(ctx, kind)`` group, so a chunked-prefill
    step co-scheduling a prompt chunk with decodes at the same context
    prices two attention kernels, not one merged GEMM. A uniform batch —
    one group — reproduces the classic per-forward cost, so
    :func:`simulate_inference` totals and
    :class:`repro.serve.ServingEngine` accounting agree exactly.

    Results are memoized on the full (spec, arch, cfg, merged groups)
    key — replicas of a :class:`repro.serve.ServingCluster` that hit the
    same step shape pay the roofline evaluation once. The kind tag is
    part of the key, so a mixed batch can never collide with the
    pure-decode (or legacy untagged) batch of the same merged shape.
    Below the whole-step memo, the per-group attention gemm pair and the
    row-count-only projection/LM-head stacks are memoized separately
    (``_ATT_CACHE``/``_ROWS_CACHE``): a fleet-scale decode step whose
    full group signature never repeats still prices as mostly cache
    hits. All memos are size-capped LRU and bit-transparent — cached and
    uncached paths accumulate the identical floats in identical order.
    """
    cfg = as_serving_config(cfg)
    groups, m = _merge_groups(row_groups)
    if m == 0:
        return 0.0
    spec_key = _spec_key(spec)
    # The whole-step memo only pays off when the full group signature can
    # repeat — uniform batches and small mixed steps. A fleet-scale decode
    # step carries tens of distinct contexts that almost never recur as a
    # set; sorting and hashing that signature per step costs more than the
    # sub-memos below recompute, so wide steps bypass the step memo (its
    # counters only see the calls it could ever serve).
    key = None
    if len(groups) <= 8:
        key = (_intern((spec_key, arch, cfg)), tuple(sorted(groups)))
        cached = _STEP_CACHE.get(key)
        if cached is not None:
            return cached

    kv_fmt = cfg.kv_fmt or cfg.act_fmt
    head_fmt = cfg.lm_head_fmt or cfg.weight_fmt
    kv_dim = arch.n_kv_heads * arch.head_dim
    proj_shapes = (
        GemmShape(m, arch.dim, arch.dim),  # Q proj
        GemmShape(m, kv_dim, arch.dim),  # K proj
        GemmShape(m, kv_dim, arch.dim),  # V proj
        GemmShape(m, arch.dim, arch.dim),  # O proj
        GemmShape(m, arch.hidden, arch.dim),  # gate
        GemmShape(m, arch.hidden, arch.dim),  # up
        GemmShape(m, arch.dim, arch.hidden),  # down
    )

    def _layer_time(
        act_fmt: str, weight_fmt: str, layer_kv_fmt: str, software: bool, hardware: bool
    ) -> float:
        def _time(shape: GemmShape, b_fmt: str) -> float:
            return gemm_time(
                spec,
                shape,
                a_fmt=act_fmt,
                b_fmt=b_fmt,
                mxplus_software=software,
                mxplus_hardware=hardware,
                min_tile_m=cfg.min_tile_m,
            )

        fmt_key = (act_fmt, software, hardware, cfg.min_tile_m)
        proj_key = (_intern((spec_key, arch, "proj", weight_fmt) + fmt_key), m)
        layer = _ROWS_CACHE.get(proj_key)
        if layer is None:
            layer = sum(_time(shape, weight_fmt) for shape in proj_shapes)
            _ROWS_CACHE.put(proj_key, layer)
        # attention: scores (rows x ctx x head_dim) and values; the K/V
        # operands stream from the KV cache in this layer's KV format
        # (kv="auto" follows the layer's own activation format, so an
        # overridden layer's attention is priced at its override — the
        # same semantics QuantRecipe.to_context gives the numeric path).
        # Each group's score/value pair is memoized on (rows, ctx): the
        # pair is independent of the other groups in the step, and decode
        # rows revisit the same shapes across steps/replicas/layers.
        att_base = _intern((spec_key, arch.dim, layer_kv_fmt) + fmt_key)
        # Inlined _LRUCache.get/put: this probe runs once per group per
        # layer (the hottest loop in a decode sweep) and the method-call
        # overhead alone is measurable. Semantics are identical —
        # counters, capacity-gated recency refresh, and eviction all
        # match the methods.
        att_cache = _ATT_CACHE
        att_data = att_cache.data
        att_cap = att_cache.maxsize
        att_hits = 0
        dim = arch.dim
        for rows, ctx, _kind in groups:
            att_key = (att_base, rows, ctx)
            pair = att_data.get(att_key)
            if pair is None:
                att_cache.misses += 1
                pair = (
                    _time(GemmShape(rows, ctx, dim), layer_kv_fmt),
                    _time(GemmShape(rows, dim, ctx), layer_kv_fmt),
                )
                att_cache.put(att_key, pair)
            else:
                att_hits += 1
                if len(att_data) >= att_cap:
                    att_data.move_to_end(att_key)
            layer += pair[0]
            layer += pair[1]
        att_cache.hits += att_hits
        return layer

    if cfg.layer_overrides:
        # Mixed-precision recipe: the MX+ integration overheads apply only
        # where an MX+ format is actually in play, so flags are re-derived
        # from the formats everywhere — base layers, overrides, LM head.
        base_software = cfg.mxplus_software and "+" in cfg.act_fmt
        base_hardware = cfg.mxplus_hardware and "+" in cfg.act_fmt + cfg.weight_fmt
        head_software = cfg.mxplus_software and "+" in cfg.act_fmt
        head_hardware = cfg.mxplus_hardware and "+" in cfg.act_fmt + head_fmt
    else:
        # Uniform recipes keep the caller's flags verbatim (the calibrated
        # Figure 11-13 behavior, byte-identical to the committed artifacts).
        base_software = head_software = cfg.mxplus_software
        base_hardware = head_hardware = cfg.mxplus_hardware

    base_layer = _layer_time(
        cfg.act_fmt, cfg.weight_fmt, kv_fmt, base_software, base_hardware
    )
    total = base_layer * arch.n_layers
    if cfg.layer_overrides:
        spread = spread_layer_overrides(
            cfg.layer_overrides, cfg.n_layer_groups, arch.n_layers
        )
        memo: dict[str, float] = {}
        for fmt in spread.values():
            if fmt not in memo:
                memo[fmt] = _layer_time(
                    fmt,
                    fmt,
                    cfg.kv_fmt or fmt,  # kv="auto" follows the override
                    cfg.mxplus_software and "+" in fmt,
                    cfg.mxplus_hardware and "+" in fmt,
                )
            total += memo[fmt] - base_layer
    head_key = (
        _intern((
            spec_key, arch, "head", head_fmt,
            cfg.act_fmt, head_software, head_hardware, cfg.min_tile_m,
        )),
        m,
    )
    head = _ROWS_CACHE.get(head_key)
    if head is None:
        head = gemm_time(  # LM head, once per forward
            spec,
            GemmShape(m, arch.vocab, arch.dim),
            a_fmt=cfg.act_fmt,
            b_fmt=head_fmt,
            mxplus_software=head_software,
            mxplus_hardware=head_hardware,
            min_tile_m=cfg.min_tile_m,
        )
        _ROWS_CACHE.put(head_key, head)
    total += head
    if key is not None:
        _STEP_CACHE.put(key, total)
    return total


def simulate_inference(
    arch: ArchSpec,
    cfg,
    batch: int = 4,
    prompt_len: int = 1024,
    output_len: int = 64,
    spec: GPUSpec = RTX5090,
) -> StageTimes:
    """Aggregate matmul time for prefill and decode stages (seconds).

    ``cfg`` may be a :class:`repro.serve.QuantRecipe`, a recipe name, or a
    legacy :class:`ServingConfig`.
    """
    cfg = as_serving_config(cfg)
    prefill = step_time(spec, arch, cfg, [(batch * prompt_len, prompt_len)])
    decode = 0.0
    for t in range(output_len):
        decode += step_time(spec, arch, cfg, [(batch, prompt_len + t)])
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
