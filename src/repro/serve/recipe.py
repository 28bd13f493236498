"""`QuantRecipe`: the single deployment-configuration surface.

The paper treats format choice as a *deployment recipe*: which microscaling
format each tensor role uses (activations, weights, KV cache, LM head,
attention matmuls), how MX+ is integrated (software Algorithm 1 vs. the
Tensor-Core BCU of Section 6), and the scheme scope (full direct-cast flow
vs. the linear-only Table 7 protocol). ``QuantRecipe`` captures one such
recipe as a frozen, validated dataclass that every consumer reads::

    recipe = QuantRecipe.from_name("a-mxfp4+")
    recipe.to_context()             # numeric path: repro.nn / repro.eval / repro.quant
    StepPricer(spec, arch, recipe)  # timing path: repro.gpu.inference
    ServingEngine(arch, recipe)     # request-level serving: repro.serve.engine

Named recipes live in a registry (``register_recipe`` / ``get_recipe``);
:func:`as_recipe` is the one coercion every entry point that also takes a
name applies.

Role fields hold *format names* (strings), not format objects, so recipes
stay hashable, comparable, and trivially serializable; formats are
instantiated on adaptation via :func:`repro.core.registry.get_format`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.registry import available_formats, get_format, suggest_near_misses

__all__ = [
    "QuantRecipe",
    "as_recipe",
    "register_recipe",
    "get_recipe",
    "available_recipes",
]

#: sentinel role value: inherit the role's natural default (see QuantRecipe).
AUTO = "auto"
#: role value meaning "leave this role in baseline (BF16) precision".
BF16 = "bf16"

_INTEGRATIONS = ("none", "software", "hardware")
_SCOPES = ("full", "linear-only")


def _is_format(name: str) -> bool:
    try:
        get_format(name)
    except KeyError:
        return False
    return True


@dataclass(frozen=True)
class QuantRecipe:
    """One validated serving recipe: per-role formats + integration path.

    Role fields take a format name (see ``repro.core.available_formats()``),
    ``"bf16"`` (baseline precision), or ``"auto"``:

    * ``kv="auto"`` — KV cache / attention operands follow ``act``.
    * ``lm_head="auto"`` — the LM head weight follows ``weight``;
      ``lm_head="bf16"`` leaves the head matmul unquantized.
    * ``attention="auto"`` — quantize the QK^T / PV matmuls;
      ``attention="bf16"`` leaves them in baseline precision.

    ``integration`` selects how MX+ formats reach the Tensor Cores:
    ``"software"`` (Algorithm 1: one extra sparse MMA on the activation
    operand), ``"hardware"`` (Section 6 BCU), or ``"none"``.

    ``scope="linear-only"`` restricts quantization to weight-activation
    matmuls (the Table 7 scheme-comparison protocol).

    ``layer_overrides`` makes the recipe *mixed-precision per layer*: a
    mapping from transformer-block index to a format name (or ``"bf16"``)
    that replaces both the act and weight formats for that block. It is
    normalized to a sorted tuple of ``(layer, fmt)`` pairs so the recipe
    stays frozen/hashable. ``n_layer_groups`` declares the layer space the
    indices live in: 0 means "physical layer indices of the serving
    architecture"; a positive value ``G`` means the indices address ``G``
    equal *groups* of layers — the timing model spreads group ``g`` over
    arch layers ``[g*n/G, (g+1)*n/G)``. The recipe autotuner
    (:mod:`repro.tune`) searches on a scaled-down model with ``G`` blocks
    and serves the result on the full-size architecture through exactly
    this projection.
    """

    name: str
    act: str = BF16
    weight: str = BF16
    kv: str = AUTO
    lm_head: str = AUTO
    attention: str = AUTO
    integration: str = "none"
    scope: str = "full"
    bf16_base: bool = True
    min_tile_m: int = 1  # kernel tile granularity on M (A8W4: 128)
    layer_overrides: tuple = ()  # ((layer, fmt), ...) or a dict at init
    n_layer_groups: int = 0  # layer space of the override indices (0=physical)

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("QuantRecipe.name must be a non-empty string")
        for role in ("act", "weight"):
            value = getattr(self, role)
            if value != BF16 and not _is_format(value):
                raise KeyError(
                    f"recipe {self.name!r}: unknown {role} format {value!r}"
                    f"{suggest_near_misses(value, available_formats())}"
                )
        overrides = self.layer_overrides
        if isinstance(overrides, dict):
            overrides = overrides.items()
        normalized = []
        for layer, fmt in overrides:
            layer = int(layer)
            if layer < 0:
                raise ValueError(
                    f"recipe {self.name!r}: negative layer index {layer}"
                )
            if fmt != BF16 and not _is_format(fmt):
                raise KeyError(
                    f"recipe {self.name!r}: unknown layer {layer} format "
                    f"{fmt!r}{suggest_near_misses(fmt, available_formats())}"
                )
            normalized.append((layer, str(fmt)))
        normalized.sort()
        if len({layer for layer, _ in normalized}) != len(normalized):
            raise ValueError(
                f"recipe {self.name!r}: duplicate layer in layer_overrides"
            )
        object.__setattr__(self, "layer_overrides", tuple(normalized))
        if self.n_layer_groups < 0:
            raise ValueError(
                f"recipe {self.name!r}: n_layer_groups must be >= 0"
            )
        if self.n_layer_groups and normalized:
            top = normalized[-1][0]
            if top >= self.n_layer_groups:
                raise ValueError(
                    f"recipe {self.name!r}: layer override index {top} is "
                    f"outside the declared {self.n_layer_groups} layer groups"
                )
        if self.kv == BF16:
            raise ValueError(
                f"recipe {self.name!r}: kv='bf16' is ambiguous — use "
                "attention='bf16' to keep attention matmuls in baseline "
                "precision, or kv='auto' to follow the activation format"
            )
        if self.kv != AUTO and not _is_format(self.kv):
            raise KeyError(
                f"recipe {self.name!r}: unknown kv format {self.kv!r}"
                f"{suggest_near_misses(self.kv, available_formats())}"
            )
        if self.lm_head not in (AUTO, BF16) and not _is_format(self.lm_head):
            raise KeyError(
                f"recipe {self.name!r}: unknown lm_head format {self.lm_head!r}"
                f"{suggest_near_misses(self.lm_head, available_formats())}"
            )
        if self.attention not in (AUTO, BF16):
            raise ValueError(
                f"recipe {self.name!r}: attention must be 'auto' or 'bf16', "
                f"got {self.attention!r} (use kv=<fmt> to pick the KV format)"
            )
        if self.integration not in _INTEGRATIONS:
            raise ValueError(
                f"recipe {self.name!r}: integration must be one of "
                f"{_INTEGRATIONS}, got {self.integration!r}"
            )
        mxplus_roles = self.act + self.weight + "".join(
            fmt for _, fmt in self.layer_overrides
        )
        if self.lm_head not in (AUTO, BF16):
            mxplus_roles += self.lm_head
        if self.integration != "none" and "+" not in mxplus_roles:
            raise ValueError(
                f"recipe {self.name!r}: integration={self.integration!r} "
                "requires an MX+ family format on the act or weight role"
            )
        if self.scope not in _SCOPES:
            raise ValueError(
                f"recipe {self.name!r}: scope must be one of {_SCOPES}, "
                f"got {self.scope!r}"
            )
        if self.min_tile_m < 1:
            raise ValueError(
                f"recipe {self.name!r}: min_tile_m must be >= 1, "
                f"got {self.min_tile_m}"
            )

    # ------------------------------------------------------------------
    @staticmethod
    def from_name(spec: str) -> "QuantRecipe":
        """Resolve a paper-style name into a recipe (case-insensitive).

        * a registered recipe name (``"a-mxfp4+"``, ``"a8w4"``, ...);
        * ``"baseline"`` / ``"bf16"``: no block quantization;
        * ``"a-<fmt>+"``: MX+ activations over base-format weights under
          software integration (the paper's A-MXFP4+ configuration);
        * ``"a:<fmt>,w:<fmt>[,kv:<fmt>]"``: an explicit per-role mix;
        * any plain format name: that format on both A and W (MX+/MX++
          formats imply hardware integration).

        Raises ``KeyError`` with near-miss suggestions for unknown names.

        >>> QuantRecipe.from_name("a-mxfp4+").weight
        'mxfp4'
        >>> QuantRecipe.from_name("mxfp4+").integration
        'hardware'
        >>> QuantRecipe.from_name("a:mxfp8,w:mxfp4").act
        'mxfp8'
        >>> QuantRecipe.from_name("baseline") == QuantRecipe.from_name("bf16")
        True
        """
        key = str(spec).strip().lower()
        if key == "baseline":
            key = BF16
        if key in _RECIPES:
            return _RECIPES[key]
        if ":" in key:
            return QuantRecipe._from_role_spec(key)
        if key.startswith("a-") and key.endswith("+") and not key.endswith("++"):
            fmt = key[2:]
            base = fmt[:-1]
            if _is_format(fmt) and _is_format(base):
                return QuantRecipe(
                    name=key, act=fmt, weight=base, integration="software"
                )
        if _is_format(key):
            # MX+/MX++ family formats imply Section 6 hardware integration;
            # membership is a "+" anywhere in the name so block-size
            # variants ("mxfp4+-k64") classify like their parents.
            integration = "hardware" if "+" in key else "none"
            return QuantRecipe(name=key, act=key, weight=key, integration=integration)
        candidates = sorted(set(available_recipes()) | set(available_formats()))
        raise KeyError(
            f"unknown recipe or format {spec!r}{suggest_near_misses(key, candidates)} "
            f"(available recipes: {', '.join(available_recipes())}; "
            f"formats: {', '.join(available_formats())})"
        )

    @staticmethod
    def _from_role_spec(key: str) -> "QuantRecipe":
        """Parse an explicit ``"a:<fmt>,w:<fmt>[,kv:<fmt>]"`` mix."""
        roles = {"a": BF16, "w": BF16, "kv": AUTO}
        for part in key.split(","):
            if ":" not in part:
                raise KeyError(f"malformed role spec {part!r} in {key!r}")
            role, fmt = part.split(":", 1)
            if role not in roles:
                raise KeyError(
                    f"unknown role {role!r} in {key!r}; roles: a, w, kv"
                )
            roles[role] = fmt
        return QuantRecipe(name=key, act=roles["a"], weight=roles["w"], kv=roles["kv"])

    def with_(self, **kwargs) -> "QuantRecipe":
        """A modified copy (``dataclasses.replace`` with validation).

        >>> get_recipe("mxfp4").with_(kv="mxfp8").kv
        'mxfp8'
        """
        return replace(self, **kwargs)

    @property
    def overrides(self) -> dict[int, str]:
        """``layer_overrides`` as a plain ``{layer: fmt}`` dict.

        >>> get_recipe("mxfp4").with_(layer_overrides={1: "mxfp4+"}).overrides
        {1: 'mxfp4+'}
        """
        return dict(self.layer_overrides)

    def layer_format(self, layer: int) -> str:
        """The act/weight format layer ``layer`` runs under (override or
        the recipe-wide activation/weight roles — which must agree for a
        single answer; mixed global roles return the act format)."""
        return self.overrides.get(layer, self.act)

    def spread_overrides(self, n_layers: int) -> dict[int, str]:
        """Project group-indexed overrides onto ``n_layers`` physical layers.

        With ``n_layer_groups == G``, group ``g`` covers layers
        ``[g*n/G, (g+1)*n/G)`` — the convention the timing model uses to
        serve a recipe tuned on a ``G``-block stand-in model on a
        full-size architecture. Physical-indexed recipes come back as-is.

        >>> r = get_recipe("mxfp4").with_(layer_overrides={1: "mxfp4+"},
        ...                               n_layer_groups=2)
        >>> r.spread_overrides(4)
        {2: 'mxfp4+', 3: 'mxfp4+'}
        """
        from ..gpu.inference import spread_layer_overrides  # single source

        return spread_layer_overrides(
            self.layer_overrides, self.n_layer_groups, n_layers
        )

    @property
    def kv_format(self) -> str:
        """The resolved KV-cache storage format name.

        ``kv="auto"`` follows the activation format (the paper's serving
        protocol stores K/V in the activation's microscaling format);
        otherwise the explicit override wins. Used by
        :func:`repro.serve.kvcache.kv_token_bytes` to turn a recipe into
        KV bytes/token, and hence page sizing.

        >>> get_recipe("mxfp4+").kv_format
        'mxfp4+'
        >>> get_recipe("bf16").kv_format
        'bf16'
        >>> QuantRecipe.from_name("a:mxfp8,w:mxfp4,kv:mxfp4").kv_format
        'mxfp4'
        """
        return self.kv if self.kv != AUTO else self.act

    # ------------------------------------------------------------------
    # numeric-path adapter (the timing path reads the fields directly)
    # ------------------------------------------------------------------
    def to_context(self):
        """Adapt to the numeric path: a :class:`repro.nn.quantize.QuantContext`.

        Layer overrides become per-layer derived contexts: block ``i`` of a
        :class:`repro.nn.transformer.TransformerLM` picks them up through
        ``QuantContext.layer_context(i)``. With ``kv="auto"`` an overridden
        layer's attention operands follow that layer's format (the KV cache
        is stored per layer); an explicit ``kv=`` pins every layer.
        """
        from ..nn.quantize import QuantContext

        full = self.scope == "full"
        head_override = (
            None if self.lm_head in (AUTO, BF16) else get_format(self.lm_head)
        )
        base = QuantContext(
            act=None if self.act == BF16 else get_format(self.act),
            weight=None if self.weight == BF16 else get_format(self.weight),
            kv=None if self.kv == AUTO else get_format(self.kv),
            lm_head=head_override,
            quantize_lm_head=full and self.lm_head != BF16,
            quantize_attention=full and self.attention != BF16,
            bf16_base=self.bf16_base,
            name=self.name,
            n_layer_groups=self.n_layer_groups,
        )
        for layer, fmt in self.layer_overrides:
            layer_fmt = None if fmt == BF16 else get_format(fmt)
            base.layer_overrides[layer] = base.with_(
                act=layer_fmt,
                weight=layer_fmt,
                name=f"{self.name}@L{layer}",
                layer_overrides={},
                n_layer_groups=0,
            )
        return base

    # ------------------------------------------------------------------
    # serialization (tuned-recipe frontiers persist recipes as JSON)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict; exact inverse of :meth:`from_dict`.

        >>> QuantRecipe.from_dict(get_recipe("a8w4").to_dict()) == get_recipe("a8w4")
        True
        """
        out = {
            "name": self.name,
            "act": self.act,
            "weight": self.weight,
            "kv": self.kv,
            "lm_head": self.lm_head,
            "attention": self.attention,
            "integration": self.integration,
            "scope": self.scope,
            "bf16_base": self.bf16_base,
            "min_tile_m": self.min_tile_m,
        }
        if self.layer_overrides:
            out["layer_overrides"] = {
                str(layer): fmt for layer, fmt in self.layer_overrides
            }
        if self.n_layer_groups:
            out["n_layer_groups"] = self.n_layer_groups
        return out

    @staticmethod
    def from_dict(payload: dict) -> "QuantRecipe":
        """Rebuild a recipe from :meth:`to_dict` output."""
        data = dict(payload)
        overrides = data.pop("layer_overrides", {})
        data["layer_overrides"] = tuple(
            sorted((int(k), v) for k, v in dict(overrides).items())
        )
        return QuantRecipe(**data)


def as_recipe(recipe) -> QuantRecipe:
    """A :class:`QuantRecipe` passes through; a name goes through
    :meth:`QuantRecipe.from_name` (recipe names and plain format names).

    >>> as_recipe("a8w4") is get_recipe("a8w4")
    True
    >>> as_recipe("mxint8").kv_format
    'mxint8'
    """
    if isinstance(recipe, QuantRecipe):
        return recipe
    return QuantRecipe.from_name(recipe)


# ----------------------------------------------------------------------
# recipe registry
# ----------------------------------------------------------------------
_RECIPES: dict[str, QuantRecipe] = {}


def register_recipe(recipe: QuantRecipe, overwrite: bool = False) -> QuantRecipe:
    """Register a named recipe; raises on duplicates unless ``overwrite``."""
    key = recipe.name.lower()
    if key in _RECIPES and not overwrite:
        raise ValueError(
            f"recipe {recipe.name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    _RECIPES[key] = recipe
    return recipe


def available_recipes() -> list[str]:
    """Sorted names of all registered recipes."""
    return sorted(_RECIPES)


def get_recipe(name: str) -> QuantRecipe:
    """Look up a registered recipe; raises ``KeyError`` with suggestions."""
    key = name.lower()
    if key == "baseline":
        key = BF16
    if key not in _RECIPES:
        raise KeyError(
            f"unknown recipe {name!r}{suggest_near_misses(key, available_recipes())} "
            f"(available: {', '.join(available_recipes())})"
        )
    return _RECIPES[key]


# The serving configurations evaluated in Figures 11-13, plus the wider MX
# ladder. Names match the paper's labels (A-MXFP4+ = software integration;
# plain MXFP4+/MXFP4++ = Section 6 hardware integration).
for _recipe in (
    QuantRecipe("bf16"),
    QuantRecipe("mxfp4", act="mxfp4", weight="mxfp4"),
    QuantRecipe("mxfp6", act="mxfp6", weight="mxfp6"),
    QuantRecipe("mxfp8", act="mxfp8", weight="mxfp8"),
    QuantRecipe("a-mxfp4+", act="mxfp4+", weight="mxfp4", integration="software"),
    QuantRecipe("a-mxfp6+", act="mxfp6+", weight="mxfp6", integration="software"),
    QuantRecipe("a-mxfp8+", act="mxfp8+", weight="mxfp8", integration="software"),
    QuantRecipe("mxfp4+", act="mxfp4+", weight="mxfp4+", integration="hardware"),
    QuantRecipe("mxfp6+", act="mxfp6+", weight="mxfp6+", integration="hardware"),
    QuantRecipe("mxfp8+", act="mxfp8+", weight="mxfp8+", integration="hardware"),
    QuantRecipe("mxfp4++", act="mxfp4++", weight="mxfp4++", integration="hardware"),
    # CUTLASS ships a single M=128 tile shape for A8W4 (Section 7.4), so
    # decode (M = batch) pays heavy tile padding.
    QuantRecipe("a8w4", act="mxfp8", weight="mxfp4", min_tile_m=128),
):
    register_recipe(_recipe)
del _recipe
