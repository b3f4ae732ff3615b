#!/usr/bin/env python
"""Docs link-and-freshness check: the ``docs/`` site must stay true.

Eight classes of rot this catches, each a CI failure:

* **Dead links** — every relative markdown link in ``README.md`` and
  ``docs/*.md`` must resolve to a file inside the repository, and a
  ``#fragment`` pointing into a markdown file must match one of that
  file's heading anchors (GitHub slug rules).  Links that leave the
  repository (``https://``, the CI badge's ``../../actions/...``) are
  out of scope — we cannot validate the outside world from a checkout.
* **Undocumented and vanished benchmarks** — every committed
  ``BENCH_*.json`` artifact at the repository root must be mentioned by
  name somewhere in the docs, so a new gated artifact cannot land
  invisibly; and every ``BENCH_<name>.json`` the docs name must exist
  there, so deleting an artifact cannot leave its docs row behind.
* **Undocumented endpoints** — every path in
  ``repro.serve.http.PUBLIC_ENDPOINTS`` must appear in
  ``docs/http_api.md``, so the API reference cannot silently lag the
  server.
* **Dangling citations in code** — every ``*.md`` file a Python comment
  or docstring names must exist (at the repository root, beside the
  citing file, or under ``docs/``), so code cannot keep pointing at a
  document that was renamed, dropped or never written.
* **Stale metric series** — every ``serve_*`` / ``engine_*`` /
  ``join_*`` / ``obs_*`` series the docs name must be emitted by a
  freshly built ``TransformService`` registry, and every series that
  registry emits must have a row in the series table of
  ``docs/observability.md``, so a renamed or dropped counter fails
  here instead of rotting in the prose.
* **Vanished methods** — every ``<Class>.<name>`` the docs (and the
  verify skill page under ``.claude/skills/``) write in backticks, for
  every public class defined in any module of the ``repro`` package,
  must resolve with ``getattr`` on the class or be an attribute its
  methods set on ``self``, so a deleted or renamed member cannot stay
  documented (and a deleted class drops out of the owner set with its
  module's definition).
* **Stale environment variables** — every ``REPRO_*`` variable the docs
  name must occur in ``src/``, and every one ``src/`` names must be
  documented in ``docs/operations.md``, so a removed knob cannot linger
  in the docs and a new one cannot land undocumented.
* **Numbered ROADMAP citations** — ``README.md`` and ``docs/*.md`` may
  not cite ``ROADMAP <n>`` or ``ROADMAP item <n>``: ``ROADMAP.md``
  renumbers its items whenever it is re-anchored, so a citation names
  the item by its subject instead.

Usage::

    python scripts/check_docs.py          # exit 0 clean, 1 with findings

``tests/test_docs.py`` runs the same functions in the tier-1 lane, so
the check gates merges even before the dedicated CI step runs.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import io
import pkgutil
import re
import sys
import tokenize
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: The pages the docs site must always have; a rename without updating
#: this tuple (and every inbound link) is a failure, not a drive-by.
REQUIRED_PAGES = (
    "architecture.md",
    "http_api.md",
    "observability.md",
    "operations.md",
)

#: Where first-party Python lives; comments and docstrings under these
#: directories are scanned for markdown citations.
SOURCE_DIRS = ("src", "tests", "benchmarks", "scripts", "examples")

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*\S)\s*$")
_MD_REF_RE = re.compile(r"[\w./-]*\w\.md\b")
_BENCH_REF_RE = re.compile(r"\bBENCH_\w+\.json\b")
#: A metric series named in prose: a serving-registry namespace prefix
#: and a Prometheus-typed suffix (gauges, which carry no suffix, are
#: only recognisable in the series table).  ``<backend>`` is the docs'
#: placeholder for one kernel backend name.
_SERIES_RE = re.compile(
    r"\b(?:serve|engine|join|obs)_[a-z0-9_<>]*_(?:total|seconds)\b"
)
_ENV_RE = re.compile(r"\bREPRO_[A-Z_]+")
_ROADMAP_RE = re.compile(r"\bROADMAP\s+(?:item\s+)?\d+[a-z]?\b")
#: The first cell of a series-table row: ``| `name` | ...``.
_SERIES_ROW_RE = re.compile(r"^\|\s*`([a-z0-9_<>]+)`\s*\|", re.M)
#: Read beside the docs site by the member check only.
VERIFY_SKILL = Path(".claude") / "skills" / "verify" / "SKILL.md"


def collect_doc_files(root: Path = REPO_ROOT) -> list[Path]:
    """The markdown set under check: ``README.md`` + ``docs/*.md``."""
    files = [root / "README.md"]
    files.extend(sorted((root / "docs").glob("*.md")))
    return [f for f in files if f.is_file()]


def _heading_anchors(markdown: str) -> set[str]:
    """GitHub-style anchor slugs for every heading outside code fences."""
    anchors: set[str] = set()
    in_fence = False
    for line in markdown.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING_RE.match(line)
        if match:
            heading = match.group(1).lower()
            slug = re.sub(r"[^\w\- ]", "", heading).replace(" ", "-")
            anchors.add(slug)
    return anchors


def check_links(files: list[Path], root: Path = REPO_ROOT) -> list[str]:
    """Dead relative links and dangling ``#fragment`` anchors."""
    problems: list[str] = []
    root = root.resolve()
    for doc in files:
        text = doc.read_text()
        rel_doc = doc.resolve().relative_to(root)
        for target in _LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            if not path_part:
                # Same-page anchor.
                if fragment and fragment not in _heading_anchors(text):
                    problems.append(
                        f"{rel_doc}: dangling same-page anchor #{fragment}"
                    )
                continue
            resolved = (doc.parent / path_part).resolve()
            if not resolved.is_relative_to(root):
                # Points outside the checkout (e.g. the CI badge's
                # GitHub-relative URL) — unverifiable from here.
                continue
            if not resolved.exists():
                problems.append(f"{rel_doc}: dead link {target}")
                continue
            if fragment and resolved.suffix == ".md":
                anchors = _heading_anchors(resolved.read_text())
                if fragment not in anchors:
                    problems.append(
                        f"{rel_doc}: link {target} points at a heading "
                        f"{resolved.name} does not have"
                    )
    return problems


def check_bench_coverage(
    files: list[Path], root: Path = REPO_ROOT
) -> list[str]:
    """Committed ``BENCH_*.json`` artifacts and the docs name each other."""
    corpus = "\n".join(f.read_text() for f in files)
    committed = {artifact.name for artifact in root.glob("BENCH_*.json")}
    named = set(_BENCH_REF_RE.findall(corpus))
    return [
        f"{name}: committed benchmark artifact is never mentioned in "
        "README.md or docs/"
        for name in sorted(committed - named)
    ] + [
        f"{name}: named in README.md or docs/, but no such artifact is "
        "committed at the repository root"
        for name in sorted(named - committed)
    ]


def check_endpoint_coverage(root: Path = REPO_ROOT) -> list[str]:
    """Every public HTTP endpoint must appear in ``docs/http_api.md``."""
    from repro.serve.http import PUBLIC_ENDPOINTS

    api_doc = root / "docs" / "http_api.md"
    if not api_doc.is_file():
        return ["docs/http_api.md: missing (the API reference page)"]
    text = api_doc.read_text()
    return [
        f"docs/http_api.md: public endpoint {endpoint} is undocumented"
        for endpoint in PUBLIC_ENDPOINTS
        if endpoint not in text
    ]


def _comments_and_docstrings(source: str) -> list[str]:
    """The prose of a Python file: ``#`` comments plus docstrings."""
    prose = [
        token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    ]
    documented = (
        ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef
    )
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, documented):
            prose.append(ast.get_docstring(node, clean=False) or "")
    return prose


def check_source_references(root: Path = REPO_ROOT) -> list[str]:
    """Every ``*.md`` a comment or docstring cites must exist."""
    problems: list[str] = []
    for directory in SOURCE_DIRS:
        for source in sorted((root / directory).rglob("*.py")):
            prose = "\n".join(_comments_and_docstrings(source.read_text()))
            bases = (root, source.parent, root / "docs")
            for reference in sorted(set(_MD_REF_RE.findall(prose))):
                if not any((base / reference).is_file() for base in bases):
                    problems.append(
                        f"{source.relative_to(root)}: cites {reference}, "
                        "which does not exist"
                    )
    return problems


def emitted_series() -> set[str]:
    """Every series name a freshly built serving registry exports."""
    from repro.serve.router import build_pipeline
    from repro.serve.service import TransformService

    with TransformService(build_pipeline()) as service:
        return set(service.metrics_snapshot())


def check_metric_series(
    files: list[Path], root: Path = REPO_ROOT
) -> list[str]:
    """Docs name only emitted series; the table lists every emitted one."""
    emitted = emitted_series()

    def matches(name: str) -> set[str]:
        pattern = re.escape(name).replace(re.escape("<backend>"), "[a-z]+")
        return {series for series in emitted if re.fullmatch(pattern, series)}

    problems = []
    table_page = root / "docs" / "observability.md"
    listed = set(_SERIES_ROW_RE.findall(table_page.read_text()))
    for doc in files:
        named = set(_SERIES_RE.findall(doc.read_text()))
        if doc == table_page:
            named |= listed
        problems += [
            f"{doc.relative_to(root)}: names metric series {name}, which "
            "the serving registry does not emit"
            for name in sorted(named)
            if not matches(name)
        ]
    covered = set().union(*(matches(name) for name in listed))
    problems += [
        f"docs/observability.md: emitted metric series {series} is "
        "missing from the series table"
        for series in sorted(emitted - covered)
    ]
    return problems


#: The packages whose modules' public classes own documented members.
MEMBER_PACKAGES = ("repro",)


def _has_member(cls: type, name: str) -> bool:
    """A class attribute, or an attribute a method of the class sets on self."""
    if hasattr(cls, name):
        return True
    assigned = re.compile(rf"\bself\.{name}\b\s*[:=](?!=)")
    return any(
        assigned.search(inspect.getsource(base))
        for base in cls.__mro__[:-1]
        if base.__module__.startswith("repro.")
    )


def member_owners() -> dict[str, type]:
    """Every public class defined in a module of :data:`MEMBER_PACKAGES`
    (the packages themselves and their sub-packages included)."""
    modules = []
    for name in MEMBER_PACKAGES:
        package = importlib.import_module(name)
        modules.append(package)
        modules += [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(package.__path__, f"{name}.")
        ]
    return {
        name: value
        for module in modules
        for name, value in vars(module).items()
        if inspect.isclass(value)
        and value.__module__ == module.__name__
        and not name.startswith("_")
    }


def check_documented_members(
    files: list[Path], root: Path = REPO_ROOT
) -> list[str]:
    """Every backticked ``<Class>.<name>`` of a :func:`member_owners`
    class must exist on the class."""
    owners = member_owners()
    member = re.compile(rf"\b({'|'.join(owners)})\.(\w+)")
    problems = []
    for doc in files:
        # Odd segments of a split on backticks are the code spans
        # (wrapped spans and fenced blocks included).
        spans = "\n".join(doc.read_text().split("`")[1::2])
        problems += [
            f"{doc.relative_to(root)}: names {owner}.{name}, which does "
            "not exist"
            for owner, name in sorted(set(member.findall(spans)))
            if not _has_member(owners[owner], name)
        ]
    return problems


def check_environment_variables(
    files: list[Path], root: Path = REPO_ROOT
) -> list[str]:
    """Docs name only ``REPRO_*`` variables ``src/`` knows, and
    ``docs/operations.md`` documents every one of those."""
    in_source: set[str] = set()
    for source in (root / "src").rglob("*.py"):
        in_source.update(_ENV_RE.findall(source.read_text()))
    problems = [
        f"{doc.relative_to(root)}: names environment variable {name}, "
        "which nothing in src/ reads"
        for doc in files
        for name in sorted(set(_ENV_RE.findall(doc.read_text())) - in_source)
    ]
    operations = (root / "docs" / "operations.md").read_text()
    problems += [
        f"docs/operations.md: environment variable {name} is read in "
        "src/ but not documented"
        for name in sorted(in_source - set(_ENV_RE.findall(operations)))
    ]
    return problems


def check_roadmap_citations(
    files: list[Path], root: Path = REPO_ROOT
) -> list[str]:
    """No ``ROADMAP <n>`` / ``ROADMAP item <n>`` citation: items renumber."""
    return [
        f"{doc.relative_to(root)}: cites {' '.join(match.split())!r}; "
        "ROADMAP items are renumbered, so name the item's subject"
        for doc in files
        for match in _ROADMAP_RE.findall(doc.read_text())
    ]


def check_required_pages(root: Path = REPO_ROOT) -> list[str]:
    """The pages the README promises must exist."""
    return [
        f"docs/{page}: required page is missing"
        for page in REQUIRED_PAGES
        if not (root / "docs" / page).is_file()
    ]


def run_all(root: Path = REPO_ROOT) -> list[str]:
    """Every check; the full problem list (empty means clean)."""
    files = collect_doc_files(root)
    problems = check_required_pages(root)
    problems += check_links(files, root)
    problems += check_bench_coverage(files, root)
    problems += check_endpoint_coverage(root)
    problems += check_source_references(root)
    problems += check_metric_series(files, root)
    problems += check_environment_variables(files, root)
    problems += check_roadmap_citations(files, root)
    skill = root / VERIFY_SKILL
    problems += check_documented_members(
        files + [skill] if skill.is_file() else files, root
    )
    return problems


def main() -> int:
    problems = run_all()
    for problem in problems:
        print(f"check_docs: {problem}", file=sys.stderr)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    files = collect_doc_files()
    print(f"check_docs: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
