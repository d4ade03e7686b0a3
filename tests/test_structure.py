"""Structural guards on the library source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import trace_forge

SOURCE = Path(trace_forge.__file__).parent


def _self_calls(tree: ast.Module) -> list[str]:
    """Functions that call themselves by bare name, and methods that call
    themselves through ``self``."""
    found = []
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == fn.name:
                found.append(f"{fn.name}:{node.lineno}")
            elif (
                id(fn) in methods
                and isinstance(callee, ast.Attribute)
                and callee.attr == fn.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "self"
            ):
                found.append(f"self.{fn.name}:{node.lineno}")
    return found


def test_no_function_calls_itself():
    # recursion depth must not grow with the graph, so the library loops
    offenders = {}
    for path in sorted(SOURCE.glob("*.py")):
        calls = _self_calls(ast.parse(path.read_text(), filename=str(path)))
        if calls:
            offenders[path.name] = calls
    assert offenders == {}


def test_self_call_scan_finds_recursion():
    tree = ast.parse(
        "def walk(n):\n"
        "    return walk(n - 1) if n else 0\n"
        "class Node:\n"
        "    def depth(self):\n"
        "        return 1 + self.depth()\n"
        "    def size(self):\n"
        "        return len(self.children)\n"
    )
    assert _self_calls(tree) == ["walk:2", "self.depth:5"]


def test_exports_resolve():
    assert len(set(trace_forge.__all__)) == len(trace_forge.__all__)
    missing = [n for n in trace_forge.__all__ if not hasattr(trace_forge, n)]
    assert missing == []


def _calls_to(tree: ast.AST, name: str) -> list[int]:
    """Lines that call ``name`` by bare name or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == name)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == name)
        )
    ]


def test_trace_class_is_built_only_in_walks():
    # one trace analysis: every TraceClass comes from walks.classify_trace
    offenders = {}
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "walks.py":
            continue
        lines = _calls_to(ast.parse(path.read_text(), filename=str(path)), "TraceClass")
        if lines:
            offenders[path.name] = lines
    assert offenders == {}


def test_call_scan_finds_both_forms():
    tree = ast.parse("TraceClass(1)\nwalks.TraceClass(2)\nTraceClass\n")
    assert _calls_to(tree, "TraceClass") == [1, 2]


def test_spanning_trees_are_not_found_by_subset_scan():
    # iter_spanning_trees prunes a depth-first search; a scan over every
    # (|V| - 1)-edge subset is the test reference only
    tree = ast.parse((SOURCE / "spanning.py").read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    names += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    assert "combinations" not in names


def _functions_calling(tree: ast.Module, name: str) -> list[str]:
    """Top-level functions whose bodies call ``name``, once per call."""
    return [
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for _ in _calls_to(fn, name)
    ]


def test_witnesses_are_dispatched_in_decide_only():
    # decide.find_witness chooses between construction and search; the CLI
    # searches only to re-check verdicts with --oracle, and a decision
    # never searches
    searches = {}
    for path in sorted(SOURCE.glob("*.py")):
        if path.name != "decide.py":
            callers = _functions_calling(ast.parse(path.read_text()), "find_trace")
            if callers:
                searches[path.name] = callers
    assert searches == {"cli.py": ["_oracle_agrees"]}
    decide = ast.parse((SOURCE / "decide.py").read_text())
    (body,) = [
        fn for fn in decide.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "decide_existence"
    ]
    assert _calls_to(body, "find_trace") == _calls_to(body, "find_witness") == []


def test_cli_import_leaves_networkx_unloaded():
    # networkx takes most of the start-up time; only graph6 parsing and
    # edge connectivity load it, on first use
    src = str(SOURCE.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = "import sys, trace_forge.cli; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "False"


def _names_imported_from(tree: ast.Module, module: str) -> list[str]:
    """Names a package module imports from its sibling ``module``; the
    sibling itself, taken by ``from . import``, counts as ``"*"``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == module:
                names += [alias.name for alias in node.names]
            elif node.module is None:
                names += ["*" for alias in node.names if alias.name == module]
    return sorted(names)


def test_search_is_imported_only_for_searches():
    # the cell (TraceSpec, spec_satisfied, KINDS, DIRECTIONS) lives in
    # walks, so search.py is imported only by code that runs a search
    imports = {}
    for path in sorted(SOURCE.glob("*.py")):
        names = _names_imported_from(ast.parse(path.read_text()), "search")
        if names:
            imports[path.name] = names
    assert imports == {
        "__init__.py": ["enumerate_traces", "find_trace"],
        "cli.py": ["find_trace"],
        "decide.py": ["find_trace"],
    }


def test_import_scan_finds_both_forms():
    tree = ast.parse(
        "from .search import find_trace, TraceSpec\n"
        "from . import search, walks\n"
        "from trace_forge.search import DEFAULT_BUDGET\n"
    )
    assert _names_imported_from(tree, "search") == ["*", "TraceSpec", "find_trace"]
