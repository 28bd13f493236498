"""``repro.tune`` — automated mixed-precision recipe search.

The repo's first *recipe discovery* subsystem: instead of evaluating
hand-written :class:`repro.serve.QuantRecipe` configurations one at a
time, the tuner searches the per-layer/per-role format design space and
returns a quality/cost Pareto frontier, wired end to end:

1. :mod:`~repro.tune.sensitivity` measures each role's perplexity damage
   per format on the real numeric model path;
2. :mod:`~repro.tune.cost` prices any candidate with the serving stack's
   own step-time and KV-footprint models;
3. :mod:`~repro.tune.search` runs deterministic greedy bit-descent plus a
   seeded evolutionary search over per-layer assignments;
4. :mod:`~repro.tune.frontier` keeps the non-dominated set, serializes it
   (``benchmarks/results/tune_frontier.json``), and registers winners in
   the serving recipe registry — tuned recipes are immediately servable
   through ``ServingEngine``/``ServingCluster``.

Quickstart::

    from repro.tune import autotune

    result = autotune(model="test-tiny", seed=0, register=True)
    for p in result.frontier:
        print(p.recipe.name, p.perplexity, p.tokens_per_s)
    # the winner is now a named recipe:
    from repro.serve import ServingCluster, get_recipe
    cluster = ServingCluster(result.cost_model.arch,
                             get_recipe(result.winner.recipe.name),
                             page_budget_bytes=4 << 30)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..eval.perplexity import perplexity
from ..models.zoo import ARCHS, PROFILES, get_corpus, load_model
from ..serve.recipe import QuantRecipe
from .cost import CostModel, RecipeCost
from .frontier import FrontierPoint, ParetoFrontier
from .pricing import GPU_PRICES, GPUPrice, available_gpu_prices, get_gpu_price
from .search import (
    DEFAULT_LADDER,
    KV_LADDER,
    evolutionary_search,
    greedy_bit_descent,
    recipe_from_assignment,
)
from .sensitivity import (
    DEFAULT_PROFILE_FORMATS,
    SensitivityReport,
    probe_recipe,
    profile_sensitivity,
)

__all__ = [
    "autotune",
    "TuneResult",
    "CostModel",
    "RecipeCost",
    "GPUPrice",
    "GPU_PRICES",
    "available_gpu_prices",
    "get_gpu_price",
    "FrontierPoint",
    "ParetoFrontier",
    "SensitivityReport",
    "profile_sensitivity",
    "probe_recipe",
    "greedy_bit_descent",
    "evolutionary_search",
    "recipe_from_assignment",
    "DEFAULT_LADDER",
    "KV_LADDER",
    "DEFAULT_PROFILE_FORMATS",
]


@dataclass
class TuneResult:
    """Everything one tuning run produced."""

    frontier: ParetoFrontier
    report: SensitivityReport
    cost_model: CostModel
    uniform: dict  # recipe name -> FrontierPoint for the uniform ladder
    winner: FrontierPoint | None  # dominates the uniform baseline, if any
    baseline: str
    measurements: int  # real perplexity evaluations spent

    def summary(self) -> dict:
        """JSON-friendly digest (the committed benchmark artifact shape)."""
        return {
            "model": self.report.model,
            "baseline": self.baseline,
            "cost_model": self.cost_model.to_dict(),
            "measurements": self.measurements,
            "uniform": {
                name: point.to_dict() for name, point in self.uniform.items()
            },
            "winner": self.winner.to_dict() if self.winner else None,
            "frontier": self.frontier.to_payload(),
        }


def autotune(
    model: str = "test-tiny",
    arch=None,
    formats: tuple = DEFAULT_LADDER,
    kv_formats: tuple = KV_LADDER,
    cost_model: CostModel | None = None,
    baseline: str = "mxfp4",
    seed: int = 0,
    batch: int = 16,
    seq_len: int = 128,
    generations: int = 8,
    population: int = 24,
    measure_top: int = 3,
    greedy: bool = True,
    evolution: bool = True,
    max_ppl: float | None = None,
    register: bool = False,
    verbose: bool = False,
) -> TuneResult:
    """Profile, search, and assemble the recipe Pareto frontier.

    Quality comes from the scaled-down zoo model ``model`` (real forward
    passes); cost from ``cost_model`` (default: llama-2-13b serving on an
    RTX 5090-class budget). The uniform ladder recipes are always
    measured too, so the frontier can be read against the fixed menu, and
    ``winner`` is the searched point that Pareto-dominates the uniform
    ``baseline`` recipe with the highest throughput (``None`` when search
    found no dominating mix). With ``register`` the frontier recipes land
    in the serving registry.
    """
    if cost_model is None:
        cost_model = CostModel(arch if arch is not None else ARCHS["llama-2-13b"])
    report = profile_sensitivity(
        model,
        formats=tuple(fmt for fmt in formats if fmt != "bf16"),
        kv_formats=tuple(fmt for fmt in kv_formats if fmt != "bf16"),
        batch=batch,
        seq_len=seq_len,
        verbose=verbose,
    )

    lm = load_model(model)
    corpus = get_corpus(PROFILES[model].corpus, PROFILES[model].train_tokens)
    measured: dict[QuantRecipe, float] = {}

    def measure_ppl(recipe: QuantRecipe) -> float:
        if recipe not in measured:
            measured[recipe] = perplexity(
                lm, corpus, recipe, batch=batch, seq_len=seq_len
            )
        return measured[recipe]

    frontier = ParetoFrontier()

    # Uniform ladder reference points (the registry's fixed menu).
    uniform: dict[str, FrontierPoint] = {}
    for fmt in dict.fromkeys(tuple(formats) + (baseline,)):
        recipe = QuantRecipe.from_name(fmt)
        cost = cost_model.evaluate(recipe)
        point = FrontierPoint(
            recipe=recipe,
            perplexity=measure_ppl(recipe),
            tokens_per_s=cost.tokens_per_s,
            kv_bytes_per_token=cost.kv_bytes_per_token,
            origin="uniform",
        )
        uniform[recipe.name] = point
        frontier.add(point)

    if greedy:
        greedy_bit_descent(
            report, cost_model, measure_ppl, frontier,
            ladder=formats, kv_ladder=kv_formats, max_ppl=max_ppl,
        )
    if evolution:
        evolutionary_search(
            report, cost_model, measure_ppl, frontier,
            ladder=formats, kv_ladder=kv_formats, seed=seed,
            population=population, generations=generations,
            measure_top=measure_top, max_ppl=max_ppl,
        )

    base_point = uniform[QuantRecipe.from_name(baseline).name]
    dominating = [
        p for p in frontier.dominating(base_point) if p.origin != "uniform"
    ]
    winner = max(dominating, key=lambda p: p.tokens_per_s, default=None)

    if register:
        frontier.register(overwrite=True)

    return TuneResult(
        frontier=frontier,
        report=report,
        cost_model=cost_model,
        uniform=uniform,
        winner=winner,
        baseline=baseline,
        measurements=len(measured),
    )
