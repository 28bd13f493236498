"""Property test: :class:`repro.gpu.inference.StepPricer` prices every step
exactly as the scalar step roofline it replaced.

``oracle_step_time`` below is that roofline, kept verbatim minus its
memos: merge row groups sharing ``(ctx, kind)``, sum the seven projection
gemms per layer, add each merged group's attention score/value pair, add
``memo[fmt] - base_layer`` per overridden layer, then the LM head. The
pricer must return the same float (``==``, not approx) for pairs and
kind-tagged triples, non-positive rows, empty steps, layer overrides in
physical and group index spaces, and explicit ``kv``/``lm_head`` formats —
cold, warm, and through the one-shot :func:`step_time`.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.inference import StepPricer, spread_layer_overrides, step_time
from repro.gpu.kernels import GemmShape, gemm_time
from repro.gpu.spec import RTX5090, RTXA6000
from repro.models.zoo import ARCHS
from repro.serve import as_recipe, get_recipe

BASES = ("mxfp4", "mxfp4+", "mxfp4++", "a8w4", "bf16")
FORMATS = ("bf16", "mxfp4", "mxfp4+", "mxfp4++", "mxfp6", "mxfp8+")
ARCH_NAMES = ("llama-2-7b", "llama-3.1-8b")


def old_timing_fields(recipe) -> SimpleNamespace:
    """A recipe under the field names the scalar roofline read: ``""``
    for a KV format that follows each layer's activations, the weight
    format for an ``"auto"`` LM head, and integration as two flags."""
    return SimpleNamespace(
        act_fmt=recipe.act,
        weight_fmt=recipe.weight,
        mxplus_software=recipe.integration == "software",
        mxplus_hardware=recipe.integration == "hardware",
        min_tile_m=recipe.min_tile_m,
        kv_fmt="" if recipe.kv == "auto" else recipe.kv,
        lm_head_fmt=recipe.weight if recipe.lm_head == "auto" else recipe.lm_head,
        layer_overrides=recipe.layer_overrides,
        n_layer_groups=recipe.n_layer_groups,
    )


def oracle_step_time(spec, arch, cfg, row_groups) -> float:
    """The scalar step roofline, unmemoized (see the module docstring)."""
    cfg = old_timing_fields(as_recipe(cfg))
    merged: dict[tuple[int, str], int] = {}
    m = 0
    for group in row_groups:
        rows = group[0]
        if rows <= 0:
            continue
        key = (group[1], group[2]) if len(group) > 2 else (group[1], "")
        merged[key] = merged.get(key, 0) + rows
        m += rows
    groups = [(rows, ctx, kind) for (ctx, kind), rows in merged.items()]
    if m == 0:
        return 0.0

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

    def _layer_time(act_fmt, weight_fmt, layer_kv_fmt, software, hardware):
        def _time(shape, b_fmt):
            return gemm_time(
                spec,
                shape,
                a_fmt=act_fmt,
                b_fmt=b_fmt,
                mxplus_software=software,
                mxplus_hardware=hardware,
                min_tile_m=cfg.min_tile_m,
            )

        layer = sum(_time(shape, weight_fmt) for shape in proj_shapes)
        for rows, ctx, _kind in groups:
            pair = (
                _time(GemmShape(rows, ctx, arch.dim), layer_kv_fmt),
                _time(GemmShape(rows, arch.dim, ctx), layer_kv_fmt),
            )
            layer += pair[0]
            layer += pair[1]
        return layer

    if cfg.layer_overrides:
        base_software = cfg.mxplus_software and "+" in cfg.act_fmt
        base_hardware = cfg.mxplus_hardware and "+" in cfg.act_fmt + cfg.weight_fmt
        head_software = cfg.mxplus_software and "+" in cfg.act_fmt
        head_hardware = cfg.mxplus_hardware and "+" in cfg.act_fmt + head_fmt
    else:
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
                    cfg.kv_fmt or fmt,
                    cfg.mxplus_software and "+" in fmt,
                    cfg.mxplus_hardware and "+" in fmt,
                )
            total += memo[fmt] - base_layer
    total += gemm_time(  # LM head, once per forward
        spec,
        GemmShape(m, arch.vocab, arch.dim),
        a_fmt=cfg.act_fmt,
        b_fmt=head_fmt,
        mxplus_software=head_software,
        mxplus_hardware=head_hardware,
        min_tile_m=cfg.min_tile_m,
    )
    return total


@st.composite
def recipes(draw):
    recipe = get_recipe(draw(st.sampled_from(BASES)))
    n_groups = draw(st.sampled_from((0, 0, 4, 7, 64)))
    space = n_groups or 32
    overrides = draw(
        st.dictionaries(
            st.integers(0, space - 1), st.sampled_from(FORMATS), max_size=6
        )
    )
    return dataclasses.replace(
        recipe,
        name=f"{recipe.name}-prop",
        kv=draw(st.sampled_from(("auto", "auto", "mxfp8", "mxfp4+"))),
        lm_head=draw(st.sampled_from(("auto", "auto", "bf16", "mxfp8"))),
        integration=draw(st.sampled_from(("none", "software", "hardware")))
        if "+" in recipe.act + recipe.weight
        else "none",
        layer_overrides=overrides,
        n_layer_groups=n_groups if overrides else 0,
    )


GROUP = st.one_of(
    st.tuples(st.integers(-2, 300), st.integers(1, 4096)),
    st.tuples(
        st.integers(-2, 300),
        st.integers(1, 4096),
        st.sampled_from(("prefill", "decode")),
    ),
)
# Few distinct contexts, so groups merge and the memos see repeats.
DECODE_ROW = st.tuples(
    st.just(1), st.sampled_from((64, 65, 300, 2048)), st.just("decode")
)
STEP = st.lists(st.one_of(GROUP, DECODE_ROW), max_size=12)


@settings(max_examples=150, deadline=None)
@given(
    spec=st.sampled_from((RTX5090, RTXA6000)),
    arch=st.sampled_from(ARCH_NAMES).map(ARCHS.__getitem__),
    recipe=recipes(),
    steps=st.lists(STEP, min_size=1, max_size=6),
)
def test_pricer_equals_scalar_oracle(spec, arch, recipe, steps):
    pricer = StepPricer(spec, arch, recipe)
    for groups in steps:
        want = oracle_step_time(spec, arch, recipe, groups)
        assert pricer.price(groups) == want  # memos warm across the steps
        assert pricer.price(groups) == want  # and fully warm
        assert step_time(spec, arch, recipe, groups) == want  # cold


def test_empty_and_non_positive_steps_cost_nothing():
    pricer = StepPricer(RTX5090, ARCHS["llama-2-7b"], "mxfp4+")
    for groups in ([], [(0, 128)], [(-3, 64, "decode"), (0, 9, "prefill")]):
        assert pricer.price(groups) == 0.0 == oracle_step_time(
            RTX5090, ARCHS["llama-2-7b"], "mxfp4+", groups
        )
    assert pricer.cache_info()["misses"] == 0  # nothing was priced
