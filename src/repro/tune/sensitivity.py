"""Per-layer / per-role quantization-sensitivity profiling.

The search space of a mixed-precision recipe is too large to measure
exhaustively, but the paper's damage mechanism is local: a layer whose
activation blocks carry outliers collapses under a narrow format while its
neighbours shrug. Profiling measures, for every *role* (each transformer
block, the LM head, and the KV/attention path) and every candidate format,
the held-out perplexity of the model with **only that role** quantized —
the real :class:`repro.nn.transformer.TransformerLM` numeric path through
:func:`repro.eval.perplexity.perplexity`, not a proxy.

The resulting :class:`SensitivityReport` supports an additive first-order
perplexity prediction for any full assignment (the standard mixed-precision
search surrogate, cf. NxFP's per-tensor sweeps), which the searchers in
:mod:`repro.tune.search` rank candidates with before spending a real
measurement.

Profiles are measured afresh on every call: each cell depends on the
model weights *and* on what every format's codec computes, so no on-disk
key short of the codec itself could say when a stored cell went stale.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..eval.perplexity import perplexity
from ..models.zoo import PROFILES, get_corpus, load_model
from ..serve.recipe import BF16, QuantRecipe

__all__ = [
    "SensitivityReport",
    "probe_recipe",
    "profile_sensitivity",
    "DEFAULT_PROFILE_FORMATS",
    "DEFAULT_KV_PROFILE_FORMATS",
]

#: formats profiled by default: the MX ladder the tuner searches over.
DEFAULT_PROFILE_FORMATS = (
    "mxfp8+",
    "mxfp6+",
    "mxfp4+",
    "mxfp4+-k64",
    "mxfp4",
    "mxfp4-k64",
)

#: KV-role ladder profiled by default. Kept identical to the searchers'
#: ``repro.tune.search.KV_LADDER`` (which aliases this tuple) so that a
#: report from ``profile_sensitivity()`` with default arguments covers
#: every cell ``greedy_bit_descent``/``evolutionary_search`` read with
#: *their* default ``kv_ladder``.
DEFAULT_KV_PROFILE_FORMATS = (
    "mxfp8",
    "mxfp6",
    "mxfp4+",
    "mxfp4",
    "mxfp4-k64",
)


@dataclass
class SensitivityReport:
    """Perplexity of the model with one role quantized at a time.

    ``cells[role][fmt]`` is the measured perplexity; roles are
    ``"layer:<i>"`` for each transformer block, ``"lm_head"``, and
    ``"kv"`` (the attention/KV-cache operands across all layers).
    """

    model: str
    corpus: str
    batch: int
    seq_len: int
    n_layers: int
    formats: tuple
    baseline_ppl: float
    cells: dict
    kv_formats: tuple = ()  # KV-role ladder; empty means "same as formats"

    # ------------------------------------------------------------------
    @property
    def roles(self) -> list[str]:
        """Profiled role names, sorted (e.g. layer groups, lm_head, kv)."""
        return [f"layer:{i}" for i in range(self.n_layers)] + ["lm_head", "kv"]

    def role_formats(self, role: str) -> tuple:
        """The format ladder profiled for ``role`` (KV has its own)."""
        if role == "kv" and self.kv_formats:
            return self.kv_formats
        return self.formats

    def ppl(self, role: str, fmt: str) -> float:
        """Measured perplexity with only ``role`` in format ``fmt``."""
        if fmt == BF16:
            return self.baseline_ppl
        try:
            return self.cells[role][fmt]
        except KeyError:
            raise KeyError(
                f"role {role!r} was not profiled under {fmt!r} "
                f"(profiled: {sorted(self.cells.get(role, {}))}); re-run "
                f"profile_sensitivity with a matching ladder"
            ) from None

    def delta(self, role: str, fmt: str) -> float:
        """Perplexity increase attributable to quantizing ``role`` alone."""
        return self.ppl(role, fmt) - self.baseline_ppl

    def predict(self, assignment: dict) -> float:
        """First-order additive perplexity estimate for a full assignment.

        ``assignment`` maps roles to format names (``"bf16"`` allowed).
        The estimate is ``baseline + sum(delta(role, fmt))`` — exact when
        quantization damage is independent across roles, and a useful
        ranking surrogate when it is not (searchers re-measure the points
        they keep).
        """
        return self.baseline_ppl + sum(
            self.delta(role, fmt) for role, fmt in assignment.items()
        )

    def ranked_roles(self, fmt: str) -> list[tuple[str, float]]:
        """Roles sorted most-sensitive-first by their delta under ``fmt``.

        Roles whose ladder was not profiled under ``fmt`` (the KV role
        has its own ladder) are omitted rather than raising.
        """
        pairs = [
            (role, self.delta(role, fmt))
            for role in self.roles
            if fmt == BF16 or fmt in self.cells.get(role, {})
        ]
        return sorted(pairs, key=lambda rf: (-rf[1], rf[0]))

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON view of the report."""
        return {
            "model": self.model,
            "corpus": self.corpus,
            "batch": self.batch,
            "seq_len": self.seq_len,
            "n_layers": self.n_layers,
            "formats": list(self.formats),
            "kv_formats": list(self.kv_formats),
            "baseline_ppl": self.baseline_ppl,
            "cells": self.cells,
        }

    @staticmethod
    def from_payload(payload: dict) -> "SensitivityReport":
        """Rebuild a report from :meth:`to_payload` JSON."""
        return SensitivityReport(
            model=payload["model"],
            corpus=payload["corpus"],
            batch=int(payload["batch"]),
            seq_len=int(payload["seq_len"]),
            n_layers=int(payload["n_layers"]),
            formats=tuple(payload["formats"]),
            kv_formats=tuple(payload.get("kv_formats", ())),
            baseline_ppl=float(payload["baseline_ppl"]),
            cells={r: dict(c) for r, c in payload["cells"].items()},
        )


def probe_recipe(role: str, fmt: str, n_layers: int) -> QuantRecipe:
    """The recipe that quantizes exactly one role of an ``n_layers`` model.

    >>> probe_recipe("layer:1", "mxfp4", 2).overrides
    {1: 'mxfp4'}
    >>> probe_recipe("kv", "mxfp8", 2).kv
    'mxfp8'
    """
    name = f"probe-{role.replace(':', '')}-{fmt}"
    if role.startswith("layer:"):
        layer = int(role.split(":", 1)[1])
        return QuantRecipe(
            name, layer_overrides={layer: fmt}, n_layer_groups=n_layers
        )
    if role == "lm_head":
        return QuantRecipe(name, lm_head=fmt)
    if role == "kv":
        return QuantRecipe(name, kv=fmt)
    raise KeyError(f"unknown sensitivity role {role!r}")


def profile_sensitivity(
    model: str = "test-tiny",
    formats: tuple = DEFAULT_PROFILE_FORMATS,
    kv_formats: tuple | None = None,
    batch: int = 16,
    seq_len: int = 128,
    verbose: bool = False,
) -> SensitivityReport:
    """Measure the per-role sensitivity grid.

    Layer and LM-head roles are profiled under ``formats``; the KV role
    under ``kv_formats`` — defaulting to
    :data:`DEFAULT_KV_PROFILE_FORMATS` (the searchers' KV ladder) when
    ``formats`` is also the default, and to ``formats`` otherwise, so
    both all-defaults and custom-same-ladder compositions with the
    searchers cover every cell they read. The searchers draw the KV slot
    from its own ladder, so profiling the cross product would spend real
    model evaluations on cells nothing reads. Each cell is one
    perplexity evaluation of the real model on its held-out corpus,
    seeded and deterministic.
    """
    formats = tuple(dict.fromkeys(formats))  # stable de-dup
    if kv_formats:
        kv_formats = tuple(dict.fromkeys(kv_formats))
    elif formats == DEFAULT_PROFILE_FORMATS:
        # all-defaults composition: match the searchers' default KV_LADDER
        kv_formats = DEFAULT_KV_PROFILE_FORMATS
    else:
        # a custom `formats` without an explicit KV ladder keeps the
        # follow-`formats` behavior, so custom same-ladder searches work
        kv_formats = formats
    profile = PROFILES[model]
    lm = load_model(model)
    corpus = get_corpus(profile.corpus, profile.train_tokens)
    n_layers = lm.config.n_layers
    report = SensitivityReport(
        model=model,
        corpus=profile.corpus,
        batch=batch,
        seq_len=seq_len,
        n_layers=n_layers,
        formats=formats,
        kv_formats=kv_formats,
        baseline_ppl=perplexity(lm, corpus, "bf16", batch=batch, seq_len=seq_len),
        cells={},
    )
    for role in report.roles:
        row = report.cells[role] = {}
        for fmt in report.role_formats(role):
            recipe = probe_recipe(role, fmt, n_layers)
            row[fmt] = perplexity(lm, corpus, recipe, batch=batch, seq_len=seq_len)
            if verbose:  # pragma: no cover - progress chatter
                print(f"[tune] {model} {role:>8s} {fmt:>10s}: ppl {row[fmt]:.3f}")
    return report
