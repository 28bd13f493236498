"""Paged KV cache: block-granular allocation with shared-prefix caching.

The flat token budget of the PR-1 engine models KV memory as one counter.
Real serving stacks (vLLM-style paged attention) allocate the KV cache in
fixed-size *blocks* ("pages") of a few tokens each, which (a) bounds
fragmentation, (b) lets common prompt prefixes — system prompts, few-shot
preambles — be stored **once** and shared across requests, and (c) ties
capacity to *bytes*, where the MX+ formats' smaller KV footprint turns
directly into more resident requests.

:class:`PagedKVCache` is that allocator in virtual time: it tracks block
ownership and prefix reference counts, not tensor data. Capacity can be
stated in blocks, tokens, or — via :func:`kv_token_bytes` and
:meth:`PagedKVCache.from_byte_budget` — as a byte budget that is divided
by the recipe's KV bytes/token, so an MXFP4+ cache holds ~3.6x the tokens
of a BF16 cache at an equal budget:

>>> from repro.models.zoo import ARCHS
>>> arch = ARCHS["llama-2-13b"]
>>> bf16 = PagedKVCache.from_byte_budget(1 << 30, arch, "bf16")
>>> mxp = PagedKVCache.from_byte_budget(1 << 30, arch, "mxfp4+")
>>> mxp.capacity_tokens > 3 * bf16.capacity_tokens
True

Allocation and prefix sharing (block_tokens=4, so a 6-token prefix shares
its one *full* block; the tail lives in private blocks):

>>> kv = PagedKVCache(num_blocks=8, block_tokens=4)
>>> kv.try_allocate("a", tokens=8, prefix_id="sys", prefix_len=6)  # miss
0
>>> kv.try_allocate("b", tokens=8, prefix_id="sys", prefix_len=6)  # hit
4
>>> kv.stats()["prefix_hits"], kv.used_blocks  # 1 shared + 1 private each
(1, 3)

A ``block_tokens=1`` cache with no prefixes reproduces the PR-1 flat
budget exactly — that is what :class:`repro.serve.ServingEngine` builds
from its ``kv_token_budget`` argument when no cache is passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from ..gpu.spec import format_storage_bits
from ..models.zoo import ArchSpec
from .recipe import AUTO, as_recipe

__all__ = [
    "PagedKVCache",
    "kv_token_bytes",
    "KVTransfer",
    "INTERCONNECTS",
    "get_interconnect",
]


def kv_token_bytes(arch: ArchSpec, recipe_or_fmt) -> float:
    """KV-cache bytes per resident token for one architecture + KV format.

    One token keeps a key and a value vector (``n_kv_heads * head_dim``
    each) per layer; the per-element width is
    :func:`repro.gpu.spec.format_storage_bits` of the recipe's resolved
    KV format (:attr:`repro.serve.QuantRecipe.kv_format`);
    ``recipe_or_fmt`` is a recipe, a recipe name or a format name (see
    :func:`repro.serve.recipe.as_recipe`). For a mixed-precision recipe
    with ``kv="auto"`` the cache is stored per layer in that layer's own
    format (the ``QuantRecipe.to_context`` semantics), so the per-token
    bytes sum layer-by-layer over the spread overrides; an explicit
    ``kv=`` pins every layer.

    >>> from repro.models.zoo import ARCHS
    >>> kv_token_bytes(ARCHS["llama-2-13b"], "bf16")
    819200.0
    >>> kv_token_bytes(ARCHS["llama-2-13b"], "a8w4")  # KV follows act: mxfp8
    422400.0
    """
    recipe = as_recipe(recipe_or_fmt)
    fmt = recipe.kv_format
    per_layer_bytes = 2.0 * arch.n_kv_heads * arch.head_dim / 8.0
    if recipe.layer_overrides and recipe.kv == AUTO:
        spread = recipe.spread_overrides(arch.n_layers)
        bits = {f: format_storage_bits(f) for f in {fmt, *spread.values()}}
        return per_layer_bytes * sum(
            bits[spread.get(i, fmt)] for i in range(arch.n_layers)
        )
    return per_layer_bytes * arch.n_layers * format_storage_bits(fmt)


@dataclass(slots=True)
class _Seq:
    """Private allocation state for one resident sequence."""

    tokens: int  # total context tokens (shared prefix included)
    prefix_key: tuple | None  # (prefix_id, shared_tokens) or None
    shared: int = 0  # prefix_key[1] denormalized for the append hot path

    def __post_init__(self) -> None:
        self.shared = self.prefix_key[1] if self.prefix_key else 0

    @property
    def private_tokens(self) -> int:
        return self.tokens - self.shared

    def private_blocks(self, block_tokens: int) -> int:
        return -(-self.private_tokens // block_tokens)


@dataclass(slots=True)
class _Prefix:
    """One cached shared prefix: ``blocks`` pages holding ``tokens`` tokens."""

    tokens: int
    blocks: int
    refs: int = 0
    lru: int = 0  # last-touched tick, for zero-ref eviction order


@dataclass
class KVStats:
    """Cumulative allocator counters (see :meth:`PagedKVCache.stats`)."""

    allocations: int = 0
    failed_allocations: int = 0
    prefix_hits: int = 0
    prefix_misses: int = 0
    prefix_tokens_reused: int = 0
    prefix_evictions: int = 0
    peak_used_blocks: int = 0


class PagedKVCache:
    """Block-granular KV allocator with refcounted shared prefixes.

    Parameters
    ----------
    num_blocks:
        Total pages in the cache.
    block_tokens:
        Tokens per page. ``1`` degenerates to a flat token budget (the
        PR-1 engine semantics); real paged-attention kernels use 16-64.
    token_bytes:
        Optional bytes per resident token (see :func:`kv_token_bytes`);
        enables the ``*_bytes`` properties and is recorded by
        :meth:`from_byte_budget`.

    Only *full* blocks of a declared prefix are shared; the remainder of
    the prompt and all generated tokens live in per-sequence private
    blocks. Freeing a sequence decrefs its prefix but keeps the pages
    cached; zero-reference prefixes are evicted LRU-first when an
    allocation would otherwise fail.
    """

    def __init__(
        self,
        num_blocks: int,
        block_tokens: int = 1,
        token_bytes: float | None = None,
    ) -> None:
        if num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if block_tokens < 1:
            raise ValueError("block_tokens must be >= 1")
        self.num_blocks = int(num_blocks)
        self.block_tokens = int(block_tokens)
        self.token_bytes = token_bytes
        self._seqs: dict[str, _Seq] = {}
        self._prefixes: dict[tuple, _Prefix] = {}
        self._used_blocks = 0  # maintained incrementally (O(1) accounting)
        self._tick = 0
        self._stats = KVStats()

    # -- constructors --------------------------------------------------
    @classmethod
    def from_token_budget(
        cls, token_budget: int, block_tokens: int = 1, token_bytes: float | None = None
    ) -> "PagedKVCache":
        """A cache holding at most ``token_budget`` tokens.

        Capacity rounds *down* to whole pages (never past the budget);
        a budget smaller than one page is an error.

        >>> PagedKVCache.from_token_budget(1024, block_tokens=16).num_blocks
        64
        >>> PagedKVCache.from_token_budget(1000, block_tokens=16).capacity_tokens
        992
        """
        if token_budget < block_tokens:
            raise ValueError(
                f"token_budget {token_budget} smaller than one "
                f"{block_tokens}-token page"
            )
        return cls(
            num_blocks=token_budget // block_tokens,
            block_tokens=block_tokens,
            token_bytes=token_bytes,
        )

    @classmethod
    def from_byte_budget(
        cls,
        byte_budget: float,
        arch: ArchSpec,
        recipe_or_fmt,
        block_tokens: int = 16,
    ) -> "PagedKVCache":
        """Size the cache by GPU memory: ``byte_budget / page_bytes`` pages.

        This is where a recipe's KV format choice becomes serving
        capacity: fewer bits per element → smaller pages → more pages in
        the same budget → more admissible concurrent requests.
        """
        per_token = kv_token_bytes(arch, recipe_or_fmt)
        page_bytes = per_token * block_tokens
        num_blocks = int(byte_budget // page_bytes)
        if num_blocks < 1:
            raise ValueError(
                f"byte_budget {byte_budget:.0f} smaller than one "
                f"{block_tokens}-token page ({page_bytes:.0f} bytes)"
            )
        return cls(num_blocks, block_tokens, token_bytes=per_token)

    # -- capacity accounting -------------------------------------------
    @property
    def capacity_tokens(self) -> int:
        """Upper bound on resident tokens (pages x tokens/page)."""
        return self.num_blocks * self.block_tokens

    @property
    def used_blocks(self) -> int:
        """Pages held by sequences plus all cached prefixes."""
        return self._used_blocks

    @property
    def free_blocks(self) -> int:
        """Pages not held by any sequence or cached prefix."""
        return self.num_blocks - self.used_blocks

    @property
    def free_tokens(self) -> int:
        """Tokens the free pages could hold — the live capacity signal
        the cluster's ``free-kv-at-arrival`` router observes."""
        return self.free_blocks * self.block_tokens

    @property
    def reclaimable_blocks(self) -> int:
        """Pages held by zero-reference cached prefixes (evictable)."""
        return sum(p.blocks for p in self._prefixes.values() if p.refs == 0)

    @property
    def used_tokens(self) -> int:
        """Resident tokens, counting each cached prefix once."""
        private = sum(s.private_tokens for s in self._seqs.values())
        return private + sum(p.tokens for p in self._prefixes.values())

    @property
    def capacity_bytes(self) -> float | None:
        """Byte capacity (``None`` unless built with ``token_bytes``)."""
        if self.token_bytes is None:
            return None
        return self.capacity_tokens * self.token_bytes

    @property
    def used_bytes(self) -> float | None:
        """Bytes of held pages (``None`` unless built with ``token_bytes``)."""
        if self.token_bytes is None:
            return None
        return self.used_blocks * self.block_tokens * self.token_bytes

    def seq_tokens(self, seq_id: str) -> int:
        """Context tokens currently resident for sequence ``seq_id``."""
        return self._seqs[seq_id].tokens

    # -- prefix helpers ------------------------------------------------
    def _prefix_key(self, prefix_id: str | None, prefix_len: int) -> tuple | None:
        """Sharable (id, tokens) key — only full blocks of a prefix shared."""
        if prefix_id is None or prefix_len <= 0:
            return None
        shared = (prefix_len // self.block_tokens) * self.block_tokens
        if shared == 0:
            return None
        return (prefix_id, shared)

    def cached_prefix_tokens(self, prefix_id: str | None, prefix_len: int) -> int:
        """Tokens a new sequence with this prefix would reuse (0 on miss)."""
        key = self._prefix_key(prefix_id, prefix_len)
        if key is not None and key in self._prefixes:
            return key[1]
        return 0

    def _evict_prefixes(self, blocks_needed: int, protect: tuple | None = None) -> None:
        """Drop zero-ref prefixes, LRU first, until ``blocks_needed`` free.

        ``protect`` shields one key (the prefix the current allocation is
        about to hit) from eviction.
        """
        if self.free_blocks >= blocks_needed:
            return
        idle = sorted(
            (k for k, p in self._prefixes.items() if p.refs == 0 and k != protect),
            key=lambda k: self._prefixes[k].lru,
        )
        for key in idle:
            if self.free_blocks >= blocks_needed:
                break
            self._used_blocks -= self._prefixes.pop(key).blocks
            self._stats.prefix_evictions += 1

    # -- allocation ----------------------------------------------------
    def blocks_needed(
        self, tokens: int, prefix_id: str | None = None, prefix_len: int = 0
    ) -> int:
        """Pages a :meth:`try_allocate` with these arguments would claim."""
        key = self._prefix_key(prefix_id, prefix_len)
        shared = key[1] if key else 0
        private = -(-(tokens - shared) // self.block_tokens)
        if key is not None and key not in self._prefixes:
            private += shared // self.block_tokens
        return private

    def _fits(self, tokens: int, prefix_id: str | None, prefix_len: int) -> tuple:
        """Admission plan: ``(key, needed_blocks, fits)`` without side effects.

        ``fits`` accounts for idle prefixes that *could* be evicted —
        excluding the one this allocation would hit.
        """
        key = self._prefix_key(prefix_id, prefix_len)
        needed = self.blocks_needed(tokens, prefix_id, prefix_len)
        reclaimable = sum(
            p.blocks
            for k, p in self._prefixes.items()
            if p.refs == 0 and k != key
        )
        return key, needed, needed <= self.free_blocks + reclaimable

    def can_allocate(
        self, tokens: int, prefix_id: str | None = None, prefix_len: int = 0
    ) -> bool:
        """Whether :meth:`try_allocate` would succeed — pure check, no
        eviction, no counter updates (use for admission polling)."""
        return self._fits(tokens, prefix_id, prefix_len)[2]

    def try_allocate(
        self,
        seq_id: str,
        tokens: int,
        prefix_id: str | None = None,
        prefix_len: int = 0,
    ) -> int | None:
        """Admit a sequence of ``tokens`` context tokens.

        Returns the number of *cached* prefix tokens the sequence reuses
        (``0`` on a prefix miss or when no prefix is declared) — i.e. the
        tokens the prefill step does **not** need to recompute — or
        ``None`` when the cache cannot hold the sequence even after
        evicting idle prefixes.
        """
        if seq_id in self._seqs:
            raise ValueError(f"sequence {seq_id!r} already allocated")
        if tokens < 1:
            raise ValueError("tokens must be >= 1")
        if prefix_len > tokens:
            raise ValueError(
                f"prefix_len {prefix_len} exceeds sequence tokens {tokens}"
            )
        key, needed, fits = self._fits(tokens, prefix_id, prefix_len)
        hit = key is not None and key in self._prefixes
        if not fits:
            # Fail fast before evicting: dropping warm prefixes cannot
            # make this allocation fit, so keep them cached.
            self._stats.failed_allocations += 1
            return None
        self._evict_prefixes(needed, protect=key)
        self._tick += 1
        cached = 0
        if key is not None:
            shared = key[1]
            if hit:
                entry = self._prefixes[key]
                cached = shared
                self._stats.prefix_hits += 1
                self._stats.prefix_tokens_reused += shared
            else:
                entry = self._prefixes[key] = _Prefix(
                    tokens=shared, blocks=shared // self.block_tokens
                )
                self._stats.prefix_misses += 1
            entry.refs += 1
            entry.lru = self._tick
        self._seqs[seq_id] = _Seq(tokens=tokens, prefix_key=key)
        self._used_blocks += needed
        self._stats.allocations += 1
        self._stats.peak_used_blocks = max(self._stats.peak_used_blocks, self.used_blocks)
        return cached

    def append_blocks_needed(self, seq_ids) -> int:
        """New pages required to grow each sequence by one token."""
        needed = 0
        for seq_id in seq_ids:
            seq = self._seqs[seq_id]
            if seq.private_tokens % self.block_tokens == 0:
                needed += 1
        return needed

    def ensure_free(self, blocks: int) -> bool:
        """Free ``blocks`` pages by evicting idle prefixes; False if short."""
        self._evict_prefixes(blocks)
        return self.free_blocks >= blocks

    def append_token(self, seq_id: str) -> None:
        """Grow a sequence by one generated token (page-aligned)."""
        seq = self._seqs[seq_id]
        if (seq.tokens - seq.shared) % self.block_tokens == 0:
            # Fast path: a page is already free (the overwhelmingly common
            # case — the engine preempts before stepping a full cache), so
            # skip the eviction scan `ensure_free` would no-op through.
            if self._used_blocks >= self.num_blocks and not self.ensure_free(1):
                raise RuntimeError(
                    f"KV cache overflow growing {seq_id!r}: preempt before "
                    "appending (see ServingEngine._preempt_overflow)"
                )
            used = self._used_blocks = self._used_blocks + 1
            if used > self._stats.peak_used_blocks:
                self._stats.peak_used_blocks = used
        seq.tokens += 1

    def free(self, seq_id: str) -> None:
        """Release a sequence; its prefix stays cached for future hits."""
        seq = self._seqs.pop(seq_id)
        self._used_blocks -= seq.private_blocks(self.block_tokens)
        if seq.prefix_key is not None:
            self._prefixes[seq.prefix_key].refs -= 1

    def drop_idle_prefixes(self) -> int:
        """Evict every zero-reference prefix; returns pages reclaimed."""
        before = self.used_blocks
        for key in [k for k, p in self._prefixes.items() if p.refs == 0]:
            self._used_blocks -= self._prefixes.pop(key).blocks
            self._stats.prefix_evictions += 1
        return before - self.used_blocks

    def reset(self) -> None:
        """Forget all sequences, prefixes, and counters."""
        self._seqs.clear()
        self._prefixes.clear()
        self._used_blocks = 0
        self._tick = 0
        self._stats = KVStats()

    # -- reporting -----------------------------------------------------
    def stats(self) -> dict:
        """Cumulative counters plus a point-in-time occupancy snapshot."""
        s = self._stats
        return {
            "num_blocks": self.num_blocks,
            "block_tokens": self.block_tokens,
            "used_blocks": self.used_blocks,
            "free_blocks": self.free_blocks,
            "resident_seqs": len(self._seqs),
            "cached_prefixes": len(self._prefixes),
            "allocations": s.allocations,
            "failed_allocations": s.failed_allocations,
            "prefix_hits": s.prefix_hits,
            "prefix_misses": s.prefix_misses,
            "prefix_tokens_reused": s.prefix_tokens_reused,
            "prefix_evictions": s.prefix_evictions,
            "peak_used_blocks": s.peak_used_blocks,
        }

    def __repr__(self) -> str:
        return (
            f"PagedKVCache(num_blocks={self.num_blocks}, "
            f"block_tokens={self.block_tokens}, used={self.used_blocks})"
        )


# ----------------------------------------------------------------------
# KV migration pricing (disaggregated prefill/decode serving)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KVTransfer:
    """Prices migration of a request's KV pages over an interconnect.

    Disaggregated serving runs prefill and decode on *separate* replica
    pools, so every request's KV cache — ``ctx`` tokens at the recipe's
    exact :func:`kv_token_bytes` — must cross a prefill→decode link
    before decoding can start. This object is the link model:

    * ``occupancy_s(n_bytes)`` — the time the link is *busy* moving the
      bytes (``bytes / bandwidth``); the cluster serializes concurrent
      migrations on this, so a slow link becomes a queue.
    * ``transfer_s(n_bytes)`` — end-to-end latency of one migration:
      propagation ``latency_s`` plus the occupancy.

    ``bandwidth_gb_s`` is in GB/s (1 GB = 1e9 bytes). ``math.inf``
    models the unified-equivalent limit (zero-time transfers); ``0.0``
    models a stalled link — ``occupancy_s`` returns ``inf`` and a
    cluster asked to schedule such a transfer raises rather than
    spinning forever.

    The MX+ serving argument shows up here directly: migration bytes are
    ``tokens * kv_token_bytes(arch, recipe)``, so a 4.5-bit KV recipe
    moves ~3.6x less than BF16 per request at the same context length.

    >>> link = KVTransfer(bandwidth_gb_s=64.0, latency_s=50e-6)
    >>> link.occupancy_s(64e9)  # 64 GB over 64 GB/s
    1.0
    >>> link.transfer_s(0.0) == link.latency_s
    True
    >>> KVTransfer(bandwidth_gb_s=float("inf"), latency_s=0.0).transfer_s(1e12)
    0.0
    >>> KVTransfer(bandwidth_gb_s=0.0).occupancy_s(1.0)
    inf
    """

    bandwidth_gb_s: float = 64.0  # PCIe 5.0 x16-class default
    latency_s: float = 50e-6
    name: str = ""

    def __post_init__(self) -> None:
        if self.bandwidth_gb_s < 0:
            raise ValueError("bandwidth_gb_s must be >= 0")
        if self.latency_s < 0 or math.isinf(self.latency_s):
            raise ValueError("latency_s must be finite and >= 0")

    def occupancy_s(self, n_bytes: float) -> float:
        """Seconds the link is busy moving ``n_bytes`` (queueing unit)."""
        if n_bytes < 0:
            raise ValueError("n_bytes must be >= 0")
        if n_bytes == 0 or math.isinf(self.bandwidth_gb_s):
            return 0.0
        if self.bandwidth_gb_s == 0:
            return math.inf
        return n_bytes / (self.bandwidth_gb_s * 1e9)

    def transfer_s(self, n_bytes: float) -> float:
        """End-to-end seconds for one migration: latency + occupancy."""
        return self.latency_s + self.occupancy_s(n_bytes)

    def migration_bytes(self, arch: ArchSpec, recipe_or_fmt, tokens: int) -> float:
        """Bytes ``tokens`` KV tokens occupy under the recipe's KV format.

        Per-layer aware via :func:`kv_token_bytes`, so a tuned
        mixed-precision recipe with ``kv="auto"`` migrates exactly what
        its paged cache stores.

        >>> from repro.models.zoo import ARCHS
        >>> link = KVTransfer()
        >>> arch = ARCHS["llama-2-13b"]
        >>> link.migration_bytes(arch, "mxfp4+", 100) < link.migration_bytes(
        ...     arch, "bf16", 100)
        True
        """
        return kv_token_bytes(arch, recipe_or_fmt) * tokens


#: Named interconnect presets for the disaggregated serving scenarios.
INTERCONNECTS: dict[str, KVTransfer] = {
    "nvlink4": KVTransfer(bandwidth_gb_s=450.0, latency_s=10e-6, name="nvlink4"),
    "pcie5": KVTransfer(bandwidth_gb_s=64.0, latency_s=50e-6, name="pcie5"),
    "100gbe": KVTransfer(bandwidth_gb_s=12.5, latency_s=200e-6, name="100gbe"),
    "infinite": KVTransfer(
        bandwidth_gb_s=math.inf, latency_s=0.0, name="infinite"
    ),
}


def get_interconnect(name_or_transfer) -> KVTransfer:
    """Resolve an interconnect preset name (or pass a :class:`KVTransfer`).

    >>> get_interconnect("pcie5").bandwidth_gb_s
    64.0
    >>> sorted(INTERCONNECTS)
    ['100gbe', 'infinite', 'nvlink4', 'pcie5']
    """
    if isinstance(name_or_transfer, KVTransfer):
        return name_or_transfer
    key = str(name_or_transfer).lower()
    if key not in INTERCONNECTS:
        raise KeyError(
            f"unknown interconnect {name_or_transfer!r} "
            f"(available: {', '.join(sorted(INTERCONNECTS))})"
        )
    return INTERCONNECTS[key]
