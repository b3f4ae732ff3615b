"""The import graph, and what may live in ``src/``.

Importing one layer loads that layer only.  Package ``__init__`` files
re-export nothing beyond the names ``benchmarks/e2e`` imports from
``repro.index``, ``repro.serve`` and ``repro.model``, so a worker
process or a batch join never pays for the HTTP tier.  Each import
check runs in a fresh interpreter: the test process itself has long
since imported everything.

Every function, method and class defined in ``src/`` must be named by
production code: ``src/``, ``scripts/``, ``examples/`` or
``benchmarks/`` (whose ``test_*.py`` and ``conftest.py`` count as
tests).  The scan parses names with :mod:`ast` (identifiers,
attributes, imported names and their aliases, identifier-like string
constants) and ignores a definition's references to itself, so code
only the tests call fails here; a genuine test helper belongs in
``tests/``.
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
import textwrap
from collections.abc import Iterator
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Where production code lives; a definition in ``src/`` must be named
#: somewhere under one of these.
_PRODUCTION_DIRS = ("src", "scripts", "examples", "benchmarks")

#: Definitions kept although no production code names them.
_ENTRY_POINTS = {
    # ``http.server.BaseHTTPRequestHandler`` calls these by name.
    "do_GET",
    "do_POST",
    "log_message",
    # The bounded many-to-many form of Eq. 5 (paper footnote 2), which
    # the README claims; it stays until an experiment calls it or it goes.
    "match_many",
}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")

#: Layers a join or a worker process never needs.
_FOREIGN = (
    "repro.serve",
    "http.server",
    "repro.surrogate",
    "repro.datagen",
    "repro.eval",
    "repro.baselines",
    "repro.metrics",
)

#: The process layer: a worker process loads it, a join never does
#: (every join runs in the calling thread).
_PROCESSES = ("multiprocessing", "repro.procs")

#: Every module whose top level is imported (but whose ``main()`` is
#: not run) by the body check.
_BODIES = sorted(
    [
        *(REPO_ROOT / "examples").glob("*.py"),
        *(REPO_ROOT / "scripts").glob("*.py"),
        *(REPO_ROOT / "benchmarks").glob("*.py"),
        *(
            REPO_ROOT / "benchmarks" / "e2e" / f"{name}.py"
            for name in ("workloads", "offline", "serving", "server")
        ),
    ]
)


def _run(code: str) -> object:
    """Run ``code`` in a fresh interpreter; return the JSON it prints."""
    paths = [
        REPO_ROOT / "src",
        REPO_ROOT / "benchmarks",
        REPO_ROOT / "benchmarks" / "e2e",
    ]
    prelude = f"import json, sys\nsys.path[:0] = {[str(p) for p in paths]!r}\n"
    proc = subprocess.run(
        [sys.executable, "-c", prelude + code],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(statement: str) -> set[str]:
    return set(_run(f"{statement}\nprint(json.dumps(sorted(sys.modules)))"))


def test_the_worker_layer_loads_nothing_else():
    loaded = _loaded_after("import repro.procs")
    ours = {name for name in loaded if name.split(".")[0] == "repro"}
    assert ours == {"repro", "repro.exceptions", "repro.procs"}


@pytest.mark.parametrize("module", ["repro.index", "repro.core.pipeline"])
def test_the_join_layers_do_not_load_serving_or_evaluation(module):
    loaded = _loaded_after(f"import {module}")
    assert module in loaded
    foreign = sorted(
        name
        for name in loaded
        if any(
            name == f or name.startswith(f"{f}.") for f in _FOREIGN + _PROCESSES
        )
    )
    assert foreign == []


def test_script_example_and_benchmark_bodies_import():
    # A module body imports under a name other than "__main__", so
    # nothing behind its main guard runs.
    failures = _run(
        "import importlib.util, traceback\n"
        "failures = {}\n"
        f"for i, path in enumerate({[str(p) for p in _BODIES]!r}):\n"
        "    spec = importlib.util.spec_from_file_location(f'_body_{i}', path)\n"
        "    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)\n"
        "    try:\n"
        "        spec.loader.exec_module(module)\n"
        "    except Exception:\n"
        "        failures[path] = traceback.format_exc(limit=-1)\n"
        "print(json.dumps(failures))"
    )
    assert failures == {}
    assert len(_BODIES) >= 26


def _production_files(root: Path) -> list[Path]:
    return [
        path
        for directory in _PRODUCTION_DIRS
        for path in sorted((root / directory).rglob("*.py"))
        if not (path.name.startswith("test_") or path.name == "conftest.py")
    ]


def _names(tree: ast.AST) -> Iterator[tuple[str, int]]:
    """Every name the code uses, with its line: identifiers, attributes,
    each part of an imported dotted name and its alias, and string
    constants that could name a definition (``getattr``, ``__all__``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno
            if node.asname:
                yield node.asname, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENTIFIER.match(node.value):
                yield node.value, node.lineno


def _definitions(
    body: list[ast.stmt], owner: str = ""
) -> Iterator[tuple[str, ast.AST]]:
    """Module-level and class-level functions and classes, as
    ``(qualified name, node)``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield owner + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, f"{owner}{node.name}.")


def _called_only_by_tests(root: Path) -> list[str]:
    """``path:line name`` of every definition in ``root/src`` that no
    production file names outside the definition itself."""
    trees = {path: ast.parse(path.read_text()) for path in _production_files(root)}
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _names(tree):
            uses.setdefault(name, []).append((path, line))
    found = []
    for path, tree in trees.items():
        if root / "src" not in path.parents:
            continue
        for qualified, node in _definitions(tree.body):
            name = node.name
            if name in _ENTRY_POINTS or (
                name.startswith("__") and name.endswith("__")
            ):
                continue
            if all(
                where == path and node.lineno <= line <= node.end_lineno
                for where, line in uses.get(name, ())
            ):
                found.append(f"{path.relative_to(root)}:{node.lineno} {qualified}")
    return found


def test_src_defines_nothing_only_tests_call():
    assert _called_only_by_tests(REPO_ROOT) == []


def test_the_scan_flags_test_only_code(tmp_path):
    files = {
        "src/pkg/mod.py": """
            import http.server as web

            class Handler(web.BaseHTTPRequestHandler):
                def do_GET(self): ...
                def __len__(self): return 0
                def recurse(self, n): return self.recurse(n - 1)
                def by_name(self): ...
                def unused(self): ...

            def used(): return Handler
            def imported(): ...
            def for_tests(): ...
            def for_bench_tests(): ...
            """,
        "scripts/run.py": """
            from pkg.mod import imported as alias, used
            getattr(used(), "by_name")
            """,
        "tests/test_mod.py": "from pkg.mod import for_tests, recurse, unused\n",
        "benchmarks/test_bench.py": "from pkg.mod import for_bench_tests\n",
        "benchmarks/conftest.py": "from pkg.mod import for_bench_tests\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    assert _called_only_by_tests(tmp_path) == [
        "src/pkg/mod.py:7 Handler.recurse",
        "src/pkg/mod.py:9 Handler.unused",
        "src/pkg/mod.py:13 for_tests",
        "src/pkg/mod.py:14 for_bench_tests",
    ]
