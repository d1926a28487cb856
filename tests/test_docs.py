"""Documentation sync: the docs cannot drift from the code.

Three enforced contracts:

* ``docs/ARCHITECTURE.md`` mentions every module under ``src/repro/``
  (a new module without a home in the architecture map fails CI), and
  names no ``repro.*`` module or attribute that does not exist (a
  deleted module cannot linger in the map);
* the pass table in ``docs/PASSES.md`` is byte-identical to what the
  live pass registry renders
  (:func:`repro.compiler.report.pass_reference_table`);
* the metric catalog table in ``docs/OBSERVABILITY.md`` is
  byte-identical to what the live metric catalog renders
  (:func:`repro.obs.catalog.metric_catalog_table`);
* ``docs/CI.md`` documents every job of both GitHub workflows -- and
  no job that no longer exists;
* every public name exported from ``repro`` and ``repro.service`` (and
  every module) carries a docstring.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro
import repro.service
from repro.compiler.report import pass_reference_table

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
DOCS = REPO / "docs"


def _module_names() -> list[str]:
    """Dotted names of every module under src/repro (packages included)."""
    names = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent)
        parts = list(rel.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def test_architecture_doc_exists():
    assert (DOCS / "ARCHITECTURE.md").is_file()


def test_architecture_mentions_every_module():
    text = (DOCS / "ARCHITECTURE.md").read_text()
    missing = [name for name in _module_names() if name not in text]
    assert not missing, (
        "docs/ARCHITECTURE.md has no mention of: "
        + ", ".join(missing)
        + " -- add each module to the paper-to-code map or the package tour"
    )


def _resolves(dotted: str) -> bool:
    """True iff ``dotted`` names an importable module or an attribute of one."""
    try:
        pkgutil.resolve_name(dotted)
        return True
    except (ImportError, AttributeError):
        return False


def test_architecture_names_only_what_exists():
    """The converse of the test above.  Metric names share the ``repro.``
    prefix and are held to the catalog instead.  Likewise every
    ``benchmarks/``, ``tests/`` or ``docs/`` path the README or a doc
    names (in prose or in a command) must be on disk; a ``*`` globs."""
    from repro.obs.catalog import CATALOG

    text = (DOCS / "ARCHITECTURE.md").read_text()
    tokens = set(re.findall(r"`(repro(?:\.\w+)+)`", text))
    stale = sorted(t for t in tokens - set(CATALOG) if not _resolves(t))
    assert not stale, (
        "docs/ARCHITECTURE.md names modules/attributes that do not exist: "
        + ", ".join(stale)
    )

    path_token = re.compile(r"(?<![\w/.-])(?:benchmarks|tests|docs)/[\w./*-]*")
    for doc in (REPO / "README.md", *sorted(DOCS.glob("*.md"))):
        paths = {t.rstrip(".") for t in path_token.findall(doc.read_text())}
        dangling = sorted(p for p in paths if not any(REPO.glob(p)))
        assert not dangling, (
            f"{doc.relative_to(REPO)} names paths that do not exist: "
            + ", ".join(dangling)
        )


def test_fuzzing_doc_covers_kinds_and_profiles():
    """docs/FUZZING.md must document every oracle finding kind and every
    registered Hypothesis profile, plus the CLI entry point."""
    from repro.fuzz.oracle import FINDING_KINDS
    from repro.fuzz.profiles import PROFILES

    text = (DOCS / "FUZZING.md").read_text()
    missing = [k for k in FINDING_KINDS if f"`{k}`" not in text]
    assert not missing, f"docs/FUZZING.md does not document kinds: {missing}"
    missing = [p for p in PROFILES if f"`{p}`" not in text]
    assert not missing, f"docs/FUZZING.md does not document profiles: {missing}"
    assert "python -m repro.fuzz" in text
    assert "tests/fuzz_corpus" in text
    assert "HYPOTHESIS_PROFILE" in text


def _workflow_jobs(path: Path) -> list[str]:
    """Top-level job ids of a GitHub Actions workflow file.

    A two-space-indented ``name:`` line under the top-level ``jobs:``
    key is a job id; intentionally a line parse so the test needs no
    YAML dependency.
    """
    jobs, in_jobs = [], False
    for line in path.read_text().splitlines():
        if line.startswith("jobs:"):
            in_jobs = True
            continue
        if in_jobs:
            if line and not line[0].isspace():
                in_jobs = False
                continue
            m = re.match(r"^  ([A-Za-z0-9_-]+):\s*$", line)
            if m:
                jobs.append(m.group(1))
    return jobs


def test_ci_doc_covers_every_job():
    """docs/CI.md must document every job of both workflows -- and must
    not document a job that no longer exists."""
    text = (DOCS / "CI.md").read_text()
    workflows = REPO / ".github" / "workflows"
    jobs: set[str] = set()
    for wf in ("ci.yml", "nightly.yml"):
        found = _workflow_jobs(workflows / wf)
        assert found, f".github/workflows/{wf} declares no jobs?"
        jobs.update(found)
    missing = sorted(j for j in jobs if f"`{j}`" not in text)
    assert not missing, f"docs/CI.md does not document jobs: {missing}"
    documented = set(re.findall(r"^\| `([A-Za-z0-9_-]+)` \|", text, flags=re.M))
    stale = sorted(documented - jobs)
    assert not stale, f"docs/CI.md documents jobs that no longer exist: {stale}"
    # the operator-facing anchors the doc promises
    assert ".github/actions/setup-repro" in text
    assert "cancel-in-progress" in text
    assert "REPRO_MP_SEEDS" in text
    # the profile-recipe steps are documented as they are run
    ci = (workflows / "ci.yml").read_text()
    recipes = re.findall(r"run: (python3 benchmarks/profile_request\.py .+)", ci)
    assert len(recipes) == 2
    undocumented = [cmd for cmd in recipes if f"`{cmd}`" not in text]
    assert not undocumented, f"docs/CI.md does not quote: {undocumented}"


def test_pass_table_matches_registry():
    text = (DOCS / "PASSES.md").read_text()
    begin = "<!-- BEGIN PASS TABLE (generated; do not edit by hand) -->"
    end = "<!-- END PASS TABLE -->"
    assert begin in text and end in text, "docs/PASSES.md lost its table markers"
    embedded = text.split(begin, 1)[1].split(end, 1)[0].strip()
    rendered = pass_reference_table().strip()
    assert embedded == rendered, (
        "docs/PASSES.md is out of sync with the live pass registry -- "
        "regenerate the table with "
        "`python -c \"from repro.compiler.report import pass_reference_table; "
        'print(pass_reference_table())"`'
    )


def test_metric_catalog_matches_registry():
    from repro.obs.catalog import metric_catalog_table

    text = (DOCS / "OBSERVABILITY.md").read_text()
    begin = "<!-- BEGIN METRIC CATALOG (generated; do not edit by hand) -->"
    end = "<!-- END METRIC CATALOG -->"
    assert begin in text and end in text, (
        "docs/OBSERVABILITY.md lost its catalog markers"
    )
    embedded = text.split(begin, 1)[1].split(end, 1)[0].strip()
    rendered = metric_catalog_table().strip()
    assert embedded == rendered, (
        "docs/OBSERVABILITY.md is out of sync with the live metric catalog -- "
        "regenerate the table with "
        "`python -c \"from repro.obs.catalog import metric_catalog_table; "
        'print(metric_catalog_table())"`'
    )


def test_every_catalog_entry_is_wellformed():
    from repro.obs.catalog import CATALOG

    for name, spec in CATALOG.items():
        assert name == spec.name and name.startswith("repro."), name
        assert spec.kind in ("counter", "gauge", "histogram"), name
        assert spec.help.strip(), f"{name} has no help text"


def test_every_pass_has_a_paper_anchor():
    from repro.compiler.artifacts import PASS_ANCHORS, PASS_ORDER

    assert set(PASS_ANCHORS) == set(PASS_ORDER)
    assert all(PASS_ANCHORS[n].strip() for n in PASS_ORDER)


def test_every_module_has_a_docstring():
    undocumented = []
    for name in _module_names():
        mod = importlib.import_module(name)
        if not (mod.__doc__ or "").strip():
            undocumented.append(name)
    assert not undocumented, f"modules without docstrings: {undocumented}"


@pytest.mark.parametrize(
    "module", [repro, repro.service], ids=["repro", "repro.service"]
)
def test_every_export_has_a_docstring(module):
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        doc = inspect.getdoc(obj)
        # an inherited docstring is not this object's documentation ...
        if doc and getattr(obj, "__doc__", None) is None:
            doc = None
        # ... and neither is a dataclass's autogenerated signature string
        if (
            doc
            and inspect.isclass(obj)
            and dataclasses.is_dataclass(obj)
            and doc.startswith(f"{obj.__name__}(")
        ):
            doc = None
        if not (doc or "").strip():
            undocumented.append(name)
    assert not undocumented, (
        f"exports of {module.__name__} without docstrings: {undocumented}"
    )


def test_readme_quickstart_is_complete_and_runs():
    """The README quickstart must be copy-pasteable: it defines SOURCE."""
    text = (REPO / "README.md").read_text()
    blocks, in_block, current = [], False, []
    for line in text.splitlines():
        if line.startswith("```python"):
            in_block, current = True, []
        elif line.startswith("```") and in_block:
            in_block = False
            blocks.append("\n".join(current))
        elif in_block:
            current.append(line)
    quickstart = next(
        (b for b in blocks if "CompilerSession" in b and "session.run" in b), None
    )
    assert quickstart is not None, "README lost its session quickstart"
    assert "SOURCE = " in quickstart, "README quickstart must define SOURCE"
    exec(compile(quickstart, "<README quickstart>", "exec"), {})
