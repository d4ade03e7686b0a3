"""Structural guards on the library source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trace_forge

from conftest import k4_chain

SOURCE = Path(trace_forge.__file__).parent
FIXTURES = Path(__file__).parent / "fixtures"


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
    # decide._witness chooses between construction and search; the CLI
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


def test_each_cell_is_decided_in_one_place():
    # the evaluator makes decide.py's one tree walk, the extractor and the
    # witnesses take their trees from it, and only the antiparallel tree
    # pipeline searches: every other yes-cell is built
    decide = ast.parse((SOURCE / "decide.py").read_text())
    assert _functions_calling(decide, "_first_tree") == ["_decide_cells"]
    assert _calls_to(decide, "min_tree") == []
    assert _functions_calling(decide, "find_trace") == ["_build_from_tree"]


def test_extraction_takes_the_evaluators_tree():
    # by the characterization the certificate of the trace's cell is the
    # extracted tree, so extraction decides that cell once and neither
    # projects, transfers nor reads a transition graph; the paper's converse
    # is replayed in the tests (conftest.converse_tree)
    decide = ast.parse((SOURCE / "decide.py").read_text())
    (body,) = [
        fn for fn in decide.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "extract_qualified_tree_from_trace"
    ]
    assert len(_calls_to(body, "_decide_cells")) == 1
    for name in (
        "project_trace_through_split", "transfer_tree_on_identification", "transition_graph_at",
    ):
        assert _calls_to(body, name) == [], name
    assert _names_imported_from(decide, "transform") == [
        "lift_trace_through_identification", "split_reduce_qualified",
    ]


def test_scan_driver_owns_the_block_rule():
    # _pick hands a bridged graph to its blocks itself: no sentinel answer
    # and no gate argument for a caller to act on
    spanning = ast.parse((SOURCE / "spanning.py").read_text())
    assert _functions_calling(spanning, "_by_blocks") == ["_pick"]
    names = {node.id for node in ast.walk(spanning) if isinstance(node, ast.Name)}
    assert "_SPLIT" not in names
    (pick,) = [
        fn for fn in spanning.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "_pick"
    ]
    args = pick.args
    assert [a.arg for a in args.args] == ["g", "degrees", "thresholds", "least"]
    assert args.posonlyargs == args.kwonlyargs == args.defaults == []
    assert args.vararg is None and args.kwarg is None


def test_cli_import_leaves_networkx_unloaded(tmp_path):
    # networkx takes most of the start-up time; only graph6 parsing and
    # edge connectivity load it, on first use.  A deficiency scan of three
    # K4 blocks joined by two bridges finds the bridges without it.  The
    # import itself loads no top-level package outside the standard library
    # but trace_forge; modules loaded before it (start-up .pth hooks) do
    # not count.
    edges = tmp_path / "k4chain3.edges"
    edges.write_text("".join(f"{u} {v}\n" for u, v in k4_chain(3).edges))
    src = str(SOURCE.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import trace_forge.cli\n"
        "loaded = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(*sorted(loaded - set(sys.stdlib_module_names)), sep=',')\n"
        "print('networkx' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = trace_forge.cli.main(['deficiency', '-i', {str(edges)!r}, '-d', '4'])\n"
        "print(code, 'networkx' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.split() == ["trace_forge", "False", "0", "False"]


def test_cli_import_loads_no_dataclasses_or_json():
    # the value classes are written out, so no method is generated at
    # import, and the writer's C encoder comes from _json; so the import
    # loads neither dataclasses (with the inspect, ast, dis and tokenize it
    # pulls in) nor the json package.  Modules loaded before it (start-up
    # .pth hooks) do not count.
    src = str(SOURCE.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import trace_forge.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    loaded = out.stdout.split()
    assert "trace_forge.cli" in loaded
    unwanted = {"dataclasses", "inspect", "ast", "dis", "tokenize", "json"}
    assert [m for m in loaded if m.partition(".")[0] in unwanted] == []


def test_scanned_argv_loads_no_argparse():
    # cli._scan reads a plain argv from the option table, so neither the
    # import nor the command loads argparse (with gettext, re and enum), and
    # annotations load neither typing nor pathlib.  python -S keeps site's
    # .pth hooks from loading any of them first.  An abbreviated option
    # goes to argparse, which gives the same verdict.
    k4 = str(FIXTURES / "k4.edges")
    probe = (
        "import io, sys\n"
        "import trace_forge.cli\n"
        "def run(argv):\n"
        "    sys.stdout = out = io.StringIO()\n"
        "    code = trace_forge.cli.main(argv)\n"
        "    sys.stdout = sys.__stdout__\n"
        "    print(code, repr(out.getvalue()))\n"
        f"run(['table', '-i', {k4!r}, '--json'])\n"
        "print(*[m for m in ('argparse', 'gettext', 're', 'enum', 'typing', 'pathlib')\n"
        "        if m in sys.modules])\n"
        f"run(['decide', '-i', {k4!r}, '--kind', 'stable', '-d', '1', '--dir', 'antiparallel'])\n"
        "print('argparse' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
    )
    table, loaded, decide, abbreviated = out.stdout.splitlines()
    assert table.startswith("0 '{\\n  \"cells\": [")
    assert loaded == ""
    assert decide == "1 'verdict: no (NoQualifiedTree(D=4))\\n'"
    assert abbreviated == "True"


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
        "__init__.py": ["find_trace"],
        "cli.py": ["find_trace"],
        "decide.py": ["find_trace"],
    }


def _absolute_imports(tree: ast.Module) -> list[str]:
    """The top-level package of each absolute import."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_library_needs_nothing_from_the_tests():
    # the brute-force listings of qualified trees and of traces are test
    # oracles in tests/conftest.py; the library imports nothing the test
    # suite brings, defines neither listing and does not export them
    test_only = {"pytest", "hypothesis", "conftest", "tests"}
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SOURCE.glob("*.py"))}
    imports = {name: test_only.intersection(_absolute_imports(t)) for name, t in trees.items()}
    assert {name: found for name, found in imports.items() if found} == {}
    defined = [
        (node.name, name)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name in ("qualified_trees", "enumerate_traces", "_scores")
    ]
    assert defined == []
    assert {"qualified_trees", "enumerate_traces"}.isdisjoint(trace_forge.__all__)


def test_absolute_import_scan_finds_both_forms():
    tree = ast.parse(
        "import pytest, os.path\n"
        "from hypothesis import given\n"
        "from . import search\n"
        "from tests.conftest import k4_chain\n"
    )
    assert _absolute_imports(tree) == ["pytest", "os", "hypothesis", "tests"]


def test_import_scan_finds_both_forms():
    tree = ast.parse(
        "from .search import find_trace, TraceSpec\n"
        "from . import search, walks\n"
        "from trace_forge.search import DEFAULT_BUDGET\n"
    )
    assert _names_imported_from(tree, "search") == ["*", "TraceSpec", "find_trace"]


def _definitions(tree: ast.AST) -> tuple[list[str], list[str]]:
    """The sorted names of the classes, and of the functions and methods,
    defined anywhere in ``tree``."""
    nodes = list(ast.walk(tree))
    classes = [n.name for n in nodes if isinstance(n, ast.ClassDef)]
    functions = [
        n.name for n in nodes if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return sorted(classes), sorted(functions)


# module -> (the classes it defines, functions it must not define)
PLAIN_VALUES = {
    # a co-tree is the tuple of its components, the least tree a (value,
    # tree) pair, and qualified_deficiency_of_tree the one per-tree score
    "spanning": (["CotreeComponent", "SpanningTree"], {"deficiency_of_tree", "tree_is_qualified"}),
    # the repetitions at v are a tuple of sorted tuples, and the steps of a
    # trace are read from its sequence
    "walks": (["DoubleTrace", "TraceClass", "TraceSpec"], {"steps"}),
    # a split answers with its tree; its new ids, halves and values are read
    # from the inputs and that tree
    "transform": ([], set()),
    # the CLI writes the deficiency document from min_tree and betti_number
    "decide": (["DecisionCertificate"], {"graph_deficiency_report"}),
}


@pytest.mark.parametrize("module", list(PLAIN_VALUES))
def test_layers_answer_in_plain_values(module):
    # no result type and no report layer stands between a caller and a
    # value it already has or can read
    classes, functions = _definitions(ast.parse((SOURCE / f"{module}.py").read_text()))
    expected_classes, absent = PLAIN_VALUES[module]
    assert classes == expected_classes
    assert absent.isdisjoint(functions)


def test_definition_scan_finds_nested_classes_and_methods():
    tree = ast.parse(
        "class Certificate:\n"
        "    def value(self): ...\n"
        "def score(t):\n"
        "    class Local: ...\n"
        "async def fetch(): ...\n"
        "if True:\n"
        "    class Hidden: ...\n"
    )
    assert _definitions(tree) == (["Certificate", "Hidden", "Local"], ["fetch", "score", "value"])


def _graph_beside_tree(tree: ast.Module) -> list[str]:
    """Functions and methods with both a ``Graph``-annotated and a
    ``SpanningTree``-annotated parameter; an annotation names a class bare
    or as an attribute."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        named = [
            {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(p.annotation)}
            for p in params
            if p.annotation
        ]
        if any("Graph" in n for n in named) and any("SpanningTree" in n for n in named):
            found.append(fn.name)
    return found


def test_trees_carry_their_host():
    # a SpanningTree holds its host, so a function on a given tree takes the
    # tree alone and reads the graph from tree.host; a graph passed beside it
    # could only disagree with the host
    offenders = {}
    for path in sorted(SOURCE.glob("*.py")):
        found = _graph_beside_tree(ast.parse(path.read_text(), filename=str(path)))
        if found:
            offenders[path.name] = found
    assert offenders == {}


def test_host_scan_finds_functions_and_methods():
    tree = ast.parse(
        "def score(g: Graph, t: SpanningTree | None): ...\n"
        "class Reducer:\n"
        "    def grow(self, t: SpanningTree, *, host: graph.Graph): ...\n"
        "def walk(t: SpanningTree, g=None): ...\n"
        "def spans(g: Graph, edges: frozenset[Edge]): ...\n"
    )
    assert _graph_beside_tree(tree) == ["score", "grow"]


def _climbs_a_forest(node: ast.AST) -> bool:
    """A loop ``while parent[x] != x``: the climb to a union-find root."""
    test = node.test if isinstance(node, ast.While) else None
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.ops[0], ast.NotEq)
        and isinstance(test.left, ast.Subscript)
        and ast.dump(test.left.slice) == ast.dump(test.comparators[0])
    )


def _root_chasers(tree: ast.Module) -> list[str]:
    """Functions and methods, as ``name`` or ``Class.name``, that climb a
    union-find forest."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            scope = [(f"{node.name}.", fn) for fn in node.body]
        else:
            scope = [("", node)]
        for prefix, fn in scope:
            if isinstance(fn, ast.FunctionDef) and any(map(_climbs_a_forest, ast.walk(fn))):
                found.append(prefix + fn.name)
    return found


def test_one_general_union_find():
    # graph._components answers every component question: connectivity
    # (Graph.connected counts its components, with no traversal of its
    # own) and those of spanning and transform; the loops that keep state
    # it lacks (parity and top degree per root in _score, unions undone on
    # backtracking in iter_spanning_trees) are the only other union-finds,
    # and the scoring rule stays in spanning.  The search engine keeps path
    # ends and walks follow cycles instead, since their transition graphs
    # are paths and cycles
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SOURCE.glob("*.py"))}
    chasers = {name: found for name, tree in trees.items() if (found := _root_chasers(tree))}
    assert chasers == {"spanning.py": ["_score", "iter_spanning_trees"]}
    defined = [
        (node.name, name)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name in ("_components", "_find_root", "_qualified_count")
    ]
    assert defined == [("_components", "graph.py")]
    importers = [
        name for name, tree in trees.items()
        if "_components" in _names_imported_from(tree, "graph")
    ]
    assert importers == ["spanning.py", "transform.py"]
    from_spanning = _names_imported_from(trees["transform.py"], "spanning")
    assert [n for n in from_spanning if n.startswith("_")] == []
    (graph_class,) = [
        node for node in trees["graph.py"].body
        if isinstance(node, ast.ClassDef) and node.name == "Graph"
    ]
    (connected,) = [
        fn for fn in graph_class.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "connected"
    ]
    assert len(_calls_to(connected, "_components")) == 1
    loops = (ast.For, ast.While, ast.comprehension)
    assert [type(n).__name__ for n in ast.walk(connected) if isinstance(n, loops)] == []


def _callers(tree: ast.Module, name: str) -> list[str]:
    """Functions and methods, as ``name`` or ``Class.name``, that call
    ``name``, once per call."""
    found = []
    for node in tree.body:
        scope = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for fn in scope:
            if isinstance(fn, ast.FunctionDef):
                found += [prefix + fn.name] * len(_calls_to(fn, name))
    return found


def test_transition_graphs_come_from_one_walk():
    # walks._transition_components proves a trace and finds every vertex's
    # transition cycles in one pass: making a DoubleTrace calls it, and the
    # readers take the cycles the trace keeps
    walks = ast.parse((SOURCE / "walks.py").read_text())
    assert _callers(walks, "_transition_components") == ["DoubleTrace.__init__"]
    readers = {
        fn.name: fn for fn in walks.body
        if isinstance(fn, ast.FunctionDef)
        and fn.name in ("classify_trace", "transition_graph_at")
    }
    assert len(readers) == 2
    for fn in readers.values():
        for routine in ("_components", "_transition_components"):
            assert _calls_to(fn, routine) == [], (fn.name, routine)
        assert "_repetitions" in {
            node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)
        }


def test_traces_are_made_only_by_validation():
    # every DoubleTrace in the library comes from walks.validate_double_trace,
    # the one name the tracer counts validations by
    makers = {}
    for path in sorted(SOURCE.glob("*.py")):
        callers = _callers(ast.parse(path.read_text()), "DoubleTrace")
        if callers:
            makers[path.name] = callers
    assert makers == {"walks.py": ["validate_double_trace"]}


def test_caller_scan_finds_functions_and_methods():
    tree = ast.parse(
        "def f():\n"
        "    g()\n"
        "    m.g()\n"
        "class C:\n"
        "    def h(self):\n"
        "        return g()\n"
        "def k():\n"
        "    return 1\n"
    )
    assert _callers(tree, "g") == ["f", "f", "C.h"]


def test_root_chase_scan_finds_functions_and_methods():
    tree = ast.parse(
        "def find(p, x):\n"
        "    while p[x] != x:\n"
        "        x = p[x]\n"
        "    return x\n"
        "class Forest:\n"
        "    def root(self, x):\n"
        "        while self.parent[x] != x:\n"
        "            x = self.parent[x]\n"
        "        return x\n"
        "def count(xs, n):\n"
        "    while xs[0] != n:\n"
        "        n += 1\n"
    )
    assert _root_chasers(tree) == ["find", "Forest.root"]


def _indented_dumps(tree: ast.AST) -> list[int]:
    """Lines that call ``dumps`` or ``dump``, by bare name or as an
    attribute, with an ``indent`` argument."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("dumps", "dump")
        and any(kw.arg == "indent" for kw in node.keywords)
    )


def test_json_documents_have_one_writer():
    # cli._json_dump writes every --json document; json.dumps with indent
    # would be a second writer, on the standard library's pure-Python encoder
    offenders = {}
    for path in sorted(SOURCE.glob("*.py")):
        lines = _indented_dumps(ast.parse(path.read_text(), filename=str(path)))
        if lines:
            offenders[path.name] = lines
    assert offenders == {}


def test_indent_scan_finds_both_forms():
    tree = ast.parse(
        "json.dumps(doc, indent=2)\n"
        "dumps(doc, sort_keys=True, indent=None)\n"
        "json.dumps(doc, sort_keys=True)\n"
        "json.dump(doc, out, indent=4)\n"
    )
    assert _indented_dumps(tree) == [1, 2, 4]


def _load_time_imports(tree: ast.Module) -> set[str]:
    """The top-level package of each absolute import that runs when the
    module loads: every one outside a function body."""
    found = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return found


# every fresh process pays for these (setup_s); a new one is a reviewed edit
LOAD_TIME_IMPORTS = {
    "__future__", "_json", "collections", "functools", "itertools",
    "os", "sys", "types",
}


def test_load_time_imports_stay_within_the_known_set():
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        found |= _load_time_imports(ast.parse(path.read_text(), filename=str(path)))
    assert found - {"trace_forge"} <= LOAD_TIME_IMPORTS


def test_load_time_import_scan_skips_function_bodies():
    tree = ast.parse(
        "import os.path, sys\n"
        "from json.encoder import c_make_encoder\n"
        "from . import walks\n"
        "try:\n"
        "    import operator\n"
        "except ImportError:\n"
        "    pass\n"
        "class C:\n"
        "    import heapq\n"
        "    def m(self):\n"
        "        import networkx\n"
        "def f():\n"
        "    import networkx\n"
    )
    assert _load_time_imports(tree) == {"os", "sys", "json", "operator", "heapq"}
