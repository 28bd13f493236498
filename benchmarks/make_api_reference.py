"""Generate docs/API.md from the `repro.serve` / `repro.tune` / `repro.bench` docstrings.

The reference is assembled from the packages' own ``__all__`` surfaces —
one section per module, one entry per public symbol, with class entries
listing their public methods and properties. Because the source of truth
is the docstrings, the page can never describe an API that does not
exist; a CI freshness gate (mirroring the EXPERIMENTS.md one) regenerates
it and fails on drift:

    PYTHONPATH=src python benchmarks/make_api_reference.py
    git diff --exit-code docs/API.md

Generation doubles as the **docstring-coverage check**: any public
symbol, public method, or public property in these packages without a
docstring aborts the script (and the docs CI job) with a list of the
offenders — new serving/tuning API cannot land undocumented.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

OUT = Path(__file__).parents[1] / "docs" / "API.md"

#: The documented surface: every module re-exported by the two packages.
MODULES = [
    "repro.serve",
    "repro.serve.recipe",
    "repro.serve.kvcache",
    "repro.serve.engine",
    "repro.serve.sched",
    "repro.serve.workload",
    "repro.serve.cluster",
    "repro.tune",
    "repro.tune.sensitivity",
    "repro.tune.cost",
    "repro.tune.search",
    "repro.tune.frontier",
    "repro.tune.pricing",
    "repro.bench",
    "repro.bench.matrix",
    "repro.bench.planner",
    "repro.bench.runner",
    "repro.bench.pricing",
    "repro.bench.report",
    "repro.obs",
    "repro.obs.trace",
    "repro.obs.metrics",
    "repro.obs.export",
]


def public_symbols(module) -> list[tuple[str, object]]:
    """The module's documented surface: its ``__all__``, in source order."""
    names = getattr(module, "__all__", None)
    if names is None:
        raise SystemExit(f"{module.__name__} has no __all__; cannot enumerate API")
    return [(name, getattr(module, name)) for name in names]


def _is_local(obj, module) -> bool:
    """Whether ``obj`` is defined in ``module`` (not a re-export)."""
    return getattr(obj, "__module__", None) == module.__name__


def public_members(cls) -> list[tuple[str, object]]:
    """Public methods/properties defined on ``cls`` itself (inherited and
    dataclass-generated members excluded)."""
    members = []
    for name, obj in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(obj, property) or inspect.isfunction(obj):
            members.append((name, obj))
        elif isinstance(obj, (classmethod, staticmethod)):
            members.append((name, obj.__func__))
    return members


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _first_line(doc: str) -> str:
    return doc.strip().splitlines()[0].strip()


def check_coverage() -> list[str]:
    """Public symbols/members in the documented packages lacking docstrings."""
    missing = []
    for modname in MODULES:
        module = importlib.import_module(modname)
        if not (module.__doc__ or "").strip():
            missing.append(modname)
        for name, obj in public_symbols(module):
            if not _is_local(obj, module) and modname in ("repro.serve", "repro.tune", "repro.bench"):
                continue  # package re-export: documented at its home module
            if not callable(obj) and not inspect.isclass(obj):
                continue  # data constants (registries) documented in module text
            if not (inspect.getdoc(obj) or "").strip():
                missing.append(f"{modname}.{name}")
            if inspect.isclass(obj) and _is_local(obj, module):
                for mname, member in public_members(obj):
                    target = member.fget if isinstance(member, property) else member
                    if not (inspect.getdoc(target) or "").strip():
                        missing.append(f"{modname}.{name}.{mname}")
    return sorted(set(missing))


def _render_symbol(lines: list[str], name: str, obj, module) -> None:
    doc = inspect.getdoc(obj) or ""
    if inspect.isclass(obj):
        lines.append(f"### class `{name}`\n")
        lines.append(doc + "\n")
        members = public_members(obj) if _is_local(obj, module) else []
        if members:
            lines.append("| Member | Summary |")
            lines.append("|---|---|")
            for mname, member in members:
                target = member.fget if isinstance(member, property) else member
                kind = "property " if isinstance(member, property) else ""
                summary = _first_line(inspect.getdoc(target) or "")
                lines.append(f"| {kind}`{mname}` | {summary} |")
            lines.append("")
    elif callable(obj):
        lines.append(f"### `{name}{_signature(obj)}`\n")
        lines.append(doc + "\n")
    else:
        lines.append(f"### data `{name}`\n")
        summary = {
            dict: f"registry with {len(obj)} entries: "
            + ", ".join(f"`{k}`" for k in sorted(obj)),
        }.get(type(obj), repr(obj))
        lines.append(summary + "\n")


def build_api_md() -> str:
    """Assemble the full reference page as one markdown string."""
    lines = [
        "# API reference — `repro.serve`, `repro.tune`, and `repro.bench`",
        "",
        "Generated from the package docstrings by",
        "`benchmarks/make_api_reference.py` — edit the docstrings, not this",
        "file, then regenerate (CI fails on drift):",
        "",
        "```bash",
        "PYTHONPATH=src python benchmarks/make_api_reference.py",
        "```",
        "",
        "Generation fails on any undocumented public symbol, method, or",
        "property in these packages (the docstring-coverage gate). See",
        "[SERVING_GUIDE.md](SERVING_GUIDE.md) for the tutorial,",
        "[GLOSSARY.md](GLOSSARY.md) for terminology, and",
        "[ARCHITECTURE.md](ARCHITECTURE.md) for the package map.",
        "",
        "## Contents",
        "",
    ]
    modules = [(name, importlib.import_module(name)) for name in MODULES]
    for modname, module in modules:
        anchor = modname.replace(".", "")
        lines.append(f"- [`{modname}`](#{anchor}) — "
                     f"{_first_line(module.__doc__ or '')}")
    lines.append("")
    for modname, module in modules:
        lines.append(f"## `{modname}`\n")
        lines.append((inspect.getdoc(module) or "").strip() + "\n")
        symbols = public_symbols(module)
        if modname in ("repro.serve", "repro.tune", "repro.bench"):
            # The package __init__ re-exports its modules' surfaces; list
            # the names and point at their home sections instead of
            # duplicating every entry.
            lines.append("Re-exported surface (documented in the module "
                         "sections below):\n")
            lines.append(", ".join(f"`{name}`" for name, _ in symbols) + "\n")
            continue
        for name, obj in symbols:
            if not _is_local(obj, module) and (
                inspect.isclass(obj) or inspect.isfunction(obj)
            ):
                continue  # documented at its defining module
            _render_symbol(lines, name, obj, module)
    return "\n".join(lines).rstrip() + "\n"


def main() -> None:
    missing = check_coverage()
    if missing:
        print("undocumented public API (add docstrings):", file=sys.stderr)
        for name in missing:
            print(f"  - {name}", file=sys.stderr)
        raise SystemExit(1)
    OUT.write_text(build_api_md())
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
