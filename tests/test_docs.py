"""Documentation checks: doctests over the public `repro.serve` and
`repro.tune` APIs, doctested tutorial pages (SERVING_GUIDE.md), the
generated-API freshness + docstring-coverage gates, and a markdown link
check over README + docs/.

Runs in tier-1 and as the CI docs job, so examples in docstrings stay
runnable, generated pages stay fresh, and links stay unbroken.
"""

import doctest
import importlib.util
import re
from pathlib import Path

import pytest

import repro.bench.matrix
import repro.bench.pricing
import repro.bench.report
import repro.gpu.inference
import repro.obs.export
import repro.obs.metrics
import repro.obs.trace
import repro.serve
import repro.serve.cluster
import repro.serve.engine
import repro.serve.kvcache
import repro.serve.recipe
import repro.serve.sched
import repro.serve.workload
import repro.tune.cost
import repro.tune.frontier
import repro.tune.pricing
import repro.tune.search
import repro.tune.sensitivity

REPO = Path(__file__).resolve().parents[1]

DOCTEST_MODULES = [
    repro.serve.recipe,
    repro.serve.kvcache,
    repro.serve.engine,
    repro.serve.sched,
    repro.serve.workload,
    repro.serve.cluster,
    repro.tune.frontier,
    repro.tune.cost,
    repro.tune.search,
    repro.tune.sensitivity,
    repro.tune.pricing,
    repro.gpu.inference,
    repro.bench.matrix,
    repro.bench.pricing,
    repro.bench.report,
    repro.obs.trace,
    repro.obs.metrics,
    repro.obs.export,
]

#: Markdown pages whose ``>>>`` snippets must run (tutorial doctests).
DOCTESTED_PAGES = ["docs/SERVING_GUIDE.md"]


def _load_api_generator():
    """Import benchmarks/make_api_reference.py (not an installed package)."""
    spec = importlib.util.spec_from_file_location(
        "make_api_reference", REPO / "benchmarks" / "make_api_reference.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module", DOCTEST_MODULES, ids=lambda m: m.__name__)
def test_serve_doctests(module):
    results = doctest.testmod(module, verbose=False, report=True)
    assert results.attempted > 0, f"{module.__name__} has no doctests"
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {module.__name__}"


@pytest.mark.parametrize("page", DOCTESTED_PAGES)
def test_markdown_page_doctests(page):
    """Tutorial pages are executable: every `>>>` snippet must pass."""
    results = doctest.testfile(
        str(REPO / page), module_relative=False, verbose=False, report=True
    )
    assert results.attempted > 10, f"{page} lost its doctest snippets"
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {page}"


def test_api_reference_docstring_coverage():
    """Every public symbol/method/property in repro.serve + repro.tune
    must carry a docstring (the generator aborts otherwise)."""
    gen = _load_api_generator()
    missing = gen.check_coverage()
    assert not missing, f"undocumented public API: {missing}"


def test_api_reference_is_fresh():
    """docs/API.md must match a regeneration from the live docstrings
    (the in-process mirror of the CI `git diff --exit-code` gate)."""
    gen = _load_api_generator()
    committed = (REPO / "docs" / "API.md").read_text()
    assert committed == gen.build_api_md(), (
        "docs/API.md is stale — regenerate with "
        "`PYTHONPATH=src python benchmarks/make_api_reference.py`"
    )


def _markdown_files():
    files = [REPO / "README.md"]
    files += sorted((REPO / "docs").glob("*.md"))
    return files


_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


@pytest.mark.parametrize("md", _markdown_files(), ids=lambda p: p.name)
def test_markdown_links_resolve(md):
    """Every relative markdown link must point at an existing file."""
    broken = []
    for target in _LINK.findall(md.read_text()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue  # intra-page anchor
        if not (md.parent / path).exists():
            broken.append(target)
    assert not broken, f"broken links in {md.relative_to(REPO)}: {broken}"


def test_experiments_md_exists_and_indexes_every_benchmark():
    """docs/EXPERIMENTS.md is generated and must cover all benchmarks."""
    text = (REPO / "docs" / "EXPERIMENTS.md").read_text()
    for bench in sorted((REPO / "benchmarks").glob("test_*.py")):
        assert f"benchmarks/{bench.name}" in text, (
            f"{bench.name} missing from docs/EXPERIMENTS.md — add it to "
            "BENCHMARK_INDEX and rerun benchmarks/make_experiments_md.py"
        )


def test_architecture_md_names_real_modules():
    """The architecture walkthrough must not drift from the source tree."""
    text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
    for mod in re.findall(r"`(?:core|gpu|nn|eval|serve|models|data)/\w+\.py`", text):
        rel = mod.strip("`")
        assert (REPO / "src" / "repro" / rel).exists(), f"ARCHITECTURE.md names missing module {rel}"
