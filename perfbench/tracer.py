"""Per-layer tracing from outside the program.

``Tracer.install`` wraps every public function of every ``trace_forge.*``
module and rebinds each name that refers to one, in every ``trace_forge``
namespace, so calls between modules and within a module both pass through a
wrapper.  The program's source is not touched.  Each call is a span (name,
start, end, parent); a generator's span is each resumption.  Spans and
counts are kept in memory, self time is a span's duration minus its
children's, and ``dump`` writes the spans out when the run ends.

A function the metrics rely on that a later change deletes or renames is
reported in ``absent`` and the metrics built on it read 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

#: Functions the per-layer metrics are built from, as module.function.
EXPECTED = (
    "spanning.iter_spanning_trees",
    "spanning.cotree_decomposition",
    "search.find_trace",
    "transform.split_reduce_qualified",
    "transform.split_reduce_deficiency",
    "transform.lift_trace_through_identification",
    "transform.project_trace_through_split",
    "transform.transfer_tree_on_identification",
    "graph.split_vertex",
    "graph.identify_vertices",
    "graph.is_connected",
    "walks.validate_double_trace",
    "walks.min_rotation",
    "walks.transition_graph_at",
    "walks.classify_trace",
    "formats.load_graph",
    "formats.load_trace_sequence",
    "cli.main",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


#: Counters read from a call's arguments: name -> (counter, amount).
ARG_COUNTERS = {
    "walks.validate_double_trace": (
        "walks.steps_validated",
        lambda a, k: len(_arg(a, k, 1, "sequence")),
    ),
    "formats.load_graph": (
        "formats.bytes_read",
        lambda a, k: os.path.getsize(_arg(a, k, 0, "path")),
    ),
    "formats.load_trace_sequence": (
        "formats.bytes_read",
        lambda a, k: os.path.getsize(_arg(a, k, 0, "path")),
    ),
}


class Tracer:
    def __init__(self, expected=EXPECTED):
        self.expected = tuple(expected)
        self.names: list[str] = []  # span name table: "module.function@caller"
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []  # open span indices
        self.child_time: list[float] = []  # per open span: children's duration
        # keyed by "module.function"
        self.depth: Counter = Counter()  # open spans
        self.calls: Counter = Counter()
        self.total: Counter = Counter()  # duration of outermost spans, seconds
        self.self_time: Counter = Counter()  # seconds
        self.counts: Counter = Counter()
        self.absent: list[str] = []

    # -- spans ---------------------------------------------------------------------

    def _open(self, nid: int, qual: str) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.child_time.append(0.0)
        self.depth[qual] += 1
        return idx

    def _close(self, idx: int, qual: str) -> None:
        end = perf_counter()
        self.span_end[idx] = end
        self.stack.pop()
        dur = end - self.span_start[idx]
        self.self_time[qual] += dur - self.child_time.pop()
        if self.child_time:
            self.child_time[-1] += dur
        self.depth[qual] -= 1
        if self.depth[qual] == 0:
            self.total[qual] += dur

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, fn, qual: str, caller: str):
        via = f"{qual}@{caller}"
        nid = len(self.names)
        self.names.append(via)
        counter = ARG_COUNTERS.get(qual)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[qual] += 1
                tracer.counts[via] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(nid, qual)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx, qual)
                    tracer.counts[qual + ".yields"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[qual] += 1
            tracer.counts[via] += 1
            idx = tracer._open(nid, qual)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{qual}!{type(exc).__name__}"] += 1
                raise
            finally:
                tracer._close(idx, qual)
            tracer.counts[qual + ".returns"] += 1
            if counter is not None:
                tracer.counts[counter[0]] += counter[1](args, kwargs)
            return result

        return wrapper

    def install(self, package: str = "trace_forge") -> None:
        """Wrap every public function of every loaded ``package.*`` module."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        originals = {}
        for name, mod in modules.items():
            short = name[len(package) + 1:]
            for attr, value in vars(mod).items():
                if inspect.isfunction(value) and value.__module__ == name and not attr.startswith("_"):
                    originals[id(value)] = (value, f"{short}.{attr}")
        found = {qual for _, qual in originals.values()}
        self.absent = [q for q in self.expected if q not in found]
        # one wrapper per (function, namespace), so a count can say who called
        for name, mod in modules.items():
            caller = name[len(package) + 1:] or package
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    fn, qual = originals[id(value)]
                    setattr(mod, attr, self._wrap(fn, qual, caller))

    # -- results -------------------------------------------------------------------

    def ms_of(self, qual: str) -> float:
        return 1000.0 * self.total[qual]

    def module_self_ms(self, module: str) -> float:
        prefix = module + "."
        return 1000.0 * sum(v for q, v in self.self_time.items() if q.startswith(prefix))

    def metrics(self) -> dict[str, tuple[float, str]]:
        c = self.counts
        trees = c["spanning.iter_spanning_trees.yields"]
        enum_ms = self.ms_of("spanning.iter_spanning_trees")
        accepted = (
            c["transform.split_reduce_qualified.returns"]
            + c["transform.split_reduce_deficiency.returns"]
        )
        candidates = c["graph.split_vertex@transform"]
        return {
            "spanning.trees_yielded": (trees, "count"),
            "spanning.tree_enum_ms": (enum_ms, "ms"),
            "spanning.trees_per_s": (trees / (enum_ms / 1000.0) if enum_ms else 0.0, "1/s"),
            "spanning.cotree_decompositions": (self.calls["spanning.cotree_decomposition"], "count"),
            "spanning.cotree_ms": (self.ms_of("spanning.cotree_decomposition"), "ms"),
            "search.find_trace_calls": (self.calls["search.find_trace"], "count"),
            "search.find_trace_ms": (self.ms_of("search.find_trace"), "ms"),
            "search.budget_exhausted": (c["search.find_trace!BudgetExhaustedError"], "count"),
            "transform.splits_accepted": (accepted, "count"),
            "transform.split_candidates": (candidates, "count"),
            "transform.split_yield": (accepted / candidates if candidates else 0.0, "ratio"),
            "transform.lifts": (self.calls["transform.lift_trace_through_identification"], "count"),
            "transform.projections": (self.calls["transform.project_trace_through_split"], "count"),
            "transform.tree_transfers": (self.calls["transform.transfer_tree_on_identification"], "count"),
            "transform.self_ms": (self.module_self_ms("transform"), "ms"),
            "graph.split_vertex_calls": (self.calls["graph.split_vertex"], "count"),
            "graph.identify_calls": (self.calls["graph.identify_vertices"], "count"),
            "graph.is_connected_calls": (self.calls["graph.is_connected"], "count"),
            "graph.self_ms": (self.module_self_ms("graph"), "ms"),
            "walks.validations": (self.calls["walks.validate_double_trace"], "count"),
            "walks.steps_validated": (c["walks.steps_validated"], "count"),
            "walks.validate_ms": (self.ms_of("walks.validate_double_trace"), "ms"),
            "walks.min_rotation_ms": (self.ms_of("walks.min_rotation"), "ms"),
            "walks.transition_graphs": (self.calls["walks.transition_graph_at"], "count"),
            "walks.classify_ms": (self.ms_of("walks.classify_trace"), "ms"),
            "formats.load_ms": (
                self.ms_of("formats.load_graph") + self.ms_of("formats.load_trace_sequence"), "ms"),
            "formats.bytes_read": (c["formats.bytes_read"], "B"),
            "cli.self_ms": (self.module_self_ms("cli"), "ms"),
            "decide.self_ms": (self.module_self_ms("decide"), "ms"),
            "trace.spans": (len(self.span_start), "count"),
            "trace.absent_functions": (len(self.absent), "count"),
        }

    def dump(self, prefix: str) -> None:
        """Write ``<prefix>.json`` (names, counts, absent functions) and
        ``<prefix>.spans``: four arrays of equal length one after another,
        name id (int32), parent span index (int32, -1 at a root), start and
        end (float64 seconds of perf_counter)."""
        meta = {
            "names": self.names,
            "spans": len(self.span_start),
            "absent": self.absent,
            "counts": dict(sorted(self.counts.items())),
            "layout": ["name:int32", "parent:int32", "start:float64", "end:float64"],
        }
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1)
        with open(prefix + ".spans", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
