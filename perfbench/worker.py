"""Runs one workload's operation list in a fresh process and checks it.

Usage: python3 perfbench/worker.py <workdir> <rounds> <trace 0|1> <result.json>

The operation list is read from ``<workdir>/manifest.json``.  Untraced, the
list runs ``rounds`` times round-robin and each operation keeps its least
calibrated time (see Clock); peak RSS is read right after the last round.
Traced, the list runs twice untraced (the first pass warms up) and once
under the tracer.  Every output of every round must equal the first
round's, and the first round's outputs are then checked against the
definitions (checks.py).
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_program():
    """Import trace_forge from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import trace_forge.cli  # noqa: PLC0415 - path set up first

    origin = Path(trace_forge.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"trace_forge imported from {origin}, not from {ROOT / 'src'}")
    return trace_forge


def run_op(tf, op: dict, graph_path: str) -> tuple[float, int, str, str, list | None]:
    """Time one operation; returns (seconds, exit code, stdout, stderr, tree)."""
    out, err = io.StringIO(), io.StringIO()
    tree = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tf.cli.main(op["argv"])
            if op["argv"][0] == "find" and code == 0:
                # names looked up through the modules, so the tracer sees them
                trace = json.loads(out.getvalue())["trace"]
                g = tf.formats.load_graph(graph_path)
                w = tf.walks.validate_double_trace(g, trace)
                t = tf.decide.extract_qualified_tree_from_trace(w, op["d"])
                tree = [list(e) for e in t.sorted_edges()]
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is an output the checks reject
            code = -1
            traceback.print_exc()
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue(), tree


#: The calibration kernel: a frozen union-find scan of 5-edge subsets of K6,
#: the same kind of pure-Python work as the program's inner loops.
CAL_EDGES = [(i, j) for i in range(6) for j in range(i + 1, 6)]
#: Calibration sample at least this often, between operations.
CAL_EVERY_S = 0.1
#: An operation's speed is the fastest calibration within this margin of it.
CAL_WINDOW_S = 0.5
#: Kernel time at the reference speed: times are reported as if the machine
#: ran the kernel in this long (about its fast phase on a 2-core x86 host).
CAL_REF_S = 1.0e-3


def calibrate() -> tuple[float, float]:
    """(end time, seconds) of one run of the calibration kernel."""
    gc.disable()
    start = time.perf_counter()
    n = 0
    for subset in combinations(CAL_EDGES, 5):
        root = list(range(6))
        for u, v in subset:
            while root[u] != u:
                u = root[u]
            while root[v] != v:
                v = root[v]
            if u == v:
                break
            root[u] = v
        else:
            n += 1
            if n > 600:
                break
    end = time.perf_counter()
    gc.enable()
    return end, end - start


class Clock:
    """Times operations and samples machine speed between them.

    The host's speed drifts by 1.3-1.8x in phases that last from seconds to
    longer than a run, so each operation's time is scaled by
    CAL_REF_S / (fastest calibration within CAL_WINDOW_S of the operation).
    """

    def __init__(self):
        self.cal: list[tuple[float, float]] = []  # (end, seconds) per kernel run
        self.timed: list[tuple[float, float]] = []  # (start, end) per operation

    def maybe_calibrate(self) -> None:
        if not self.cal or time.perf_counter() - self.cal[-1][0] > CAL_EVERY_S:
            self.cal.append(calibrate())

    def scaled(self) -> list[float]:
        """Scaled seconds of every operation timed so far.  A kernel run is
        never more than CAL_EVERY_S before an operation starts, so every
        window holds one."""
        self.cal.append(calibrate())
        ends = [t for t, _ in self.cal]
        out = []
        for start, end in self.timed:
            lo = bisect.bisect_left(ends, start - CAL_WINDOW_S)
            hi = bisect.bisect_right(ends, end + CAL_WINDOW_S)
            fastest = min(c for _, c in self.cal[lo:hi])
            out.append((end - start) * CAL_REF_S / fastest)
        return out


def run_round(tf, ops, graphs, clock: Clock) -> list[tuple]:
    """One pass over the list; returns each operation's outputs."""
    gc.collect()
    outputs = []
    for op in ops:
        clock.maybe_calibrate()
        seconds, *output = run_op(tf, op, graphs[op["graph"]]["path"])
        end = time.perf_counter()
        clock.timed.append((end - seconds, end))
        outputs.append(tuple(output))
    return outputs


def spec_of(argv: list[str]) -> dict:
    """The cell an argv asks for (``-d`` is the threshold D for ``deficiency``)."""
    spec = {"kind": "double", "direction": "any", "d": None}
    for flag, key in (("--kind", "kind"), ("--direction", "direction"), ("-d", "d")):
        if flag in argv:
            spec[key] = argv[argv.index(flag) + 1]
    if spec["d"] is not None:
        spec["d"] = int(spec["d"])
    return spec


def check_outputs(manifest: dict, outputs: list[tuple], reference: dict) -> tuple[int, list[str]]:
    """Check every output; returns (failed operations, problems)."""
    import checks  # noqa: PLC0415 - sibling module

    hosts, oracles = {}, {}
    failed, problems = 0, []
    for op, (code, stdout, stderr, tree) in zip(manifest["ops"], outputs):
        key = op["graph"]
        info = manifest["graphs"][key]
        if key not in hosts:
            hosts[key] = checks.Host.from_file(info["path"])
            oracles[key] = checks.Oracle(hosts[key], reference.get(info["ref"]))
        h, oracle = hosts[key], oracles[key]
        argv = op["argv"]
        try:
            if code == 2 and op.get("expect_fail") and "budget exhausted" in stderr:
                failed += 1
                continue
            checks.require(code in (0, 1), f"exit {code}: {stderr.strip()}")
            doc = json.loads(stdout)
            if argv[0] == "table":
                checks.check_table(h, oracle, doc)
            elif argv[0] == "deficiency":
                checks.check_deficiency(h, oracle, doc, spec_of(argv)["d"])
            elif argv[0] == "decide":
                checks.check_decide_stable_antiparallel(h, oracle, doc, spec_of(argv)["d"])
            elif argv[0] == "find" and code == 0:
                checks.check_constructed(h, doc["trace"], tree, op["d"])
            elif argv[0] == "find":
                checks.check_not_found(h, oracle, op["d"])
            elif argv[0] == "verify":
                seq = Path(manifest["traces"][op["trace"]]).read_text().split()
                checks.check_verify(h, [int(x) for x in seq], doc, spec_of(argv))
            else:
                checks.require(False, f"no check for {argv[0]}")
            checks.require(not op.get("expect_fail"), "expected a budget exhaustion")
        except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
            problems.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
    return failed, problems


def main() -> int:
    workdir, rounds, traced, result_path = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
    tf = import_program()
    sys.path.insert(0, str(HERE))
    os.chdir(workdir)
    manifest = json.loads(Path("manifest.json").read_text())
    ops, graphs = manifest["ops"], manifest["graphs"]
    result: dict = {"ops": len(ops)}
    problems: list[str] = []

    clock = Clock()
    first = run_round(tf, ops, graphs, clock)
    if traced:
        from tracer import Tracer  # noqa: PLC0415 - sibling module

        later = [run_round(tf, ops, graphs, clock)]
        tracer = Tracer()
        tracer.install()
        later.append(run_round(tf, ops, graphs, clock))
        scaled = clock.scaled()
        n = len(ops)
        # per-operation ratio, so a slow phase during a few long operations
        # does not decide the figure
        ratios = [t / u for u, t in zip(scaled[n:2 * n], scaled[2 * n:])]
        result["overhead_pct"] = 100 * (statistics.median(ratios) - 1)
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        tracer.dump(str(Path(result_path).with_suffix("")) + "-spans")
    else:
        later = [run_round(tf, ops, graphs, clock) for _ in range(rounds - 1)]
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        scaled = clock.scaled()
        raw = [end - start for start, end in clock.timed]
        result["times"] = [min(scaled[i::len(ops)]) for i in range(len(ops))]
        result["raw_times"] = [min(raw[i::len(ops)]) for i in range(len(ops))]
        result["calibration_s"] = [c for _, c in clock.cal]
    result["rounds"] = 1 + len(later)
    for i, outputs in enumerate(later, start=2):
        for op, a, b in zip(ops, first, outputs):
            if a != b:
                problems.append(f"round {i} output differs for {' '.join(op['argv'])}")
    import reference  # noqa: PLC0415 - sibling module

    failed, found = check_outputs(manifest, first, reference.load())
    result["failed"] = failed
    result["problems"] = problems + found
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report the crash to the parent, which fails the run
        traceback.print_exc()
        sys.exit(3)
