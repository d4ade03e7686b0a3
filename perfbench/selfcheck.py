"""Quick self-check of the benchmark harness (not a timing run).

    python3 perfbench/selfcheck.py

Runs every workload on a small slice of its operation list, untraced and
traced, with all correctness checks; runs the traced slice twice and
requires identical counts; and makes sure the tracer reports a function it
expects but cannot find as absent instead of crashing.  Takes about a
minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SLICE = 24


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--limit", str(SLICE)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "B")}


def check_absent_function_is_tolerated() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import trace_forge.cli  # noqa: PLC0415 - path set up first
    from tracer import EXPECTED, Tracer  # noqa: PLC0415

    k4 = HERE / "_work" / "selfcheck-k4.edges"
    k4.parent.mkdir(exist_ok=True)
    k4.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    tracer = Tracer(expected=EXPECTED + ("walks.renamed_away",))
    tracer.install()
    with contextlib.redirect_stdout(io.StringIO()):
        trace_forge.cli.main(["deficiency", "-i", str(k4)])
    k4.unlink()
    metrics = tracer.metrics()
    assert tracer.absent == ["walks.renamed_away"], tracer.absent
    assert metrics["trace.absent_functions"][0] == 1
    assert metrics["spanning.trees_yielded"][0] > 0


def main() -> int:
    failures = []
    for workload in ("decide_sweep", "construct_roundtrip", "verify_long"):
        plain = run(workload, 0)
        traced = [run(workload, 1), run(workload, 1)]
        for label, res in (("untraced", plain), ("traced", traced[0])):
            line = f"{workload} {label}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}"
            print(line)
            if not res["correct"]:
                failures.append(line)
        if counts(traced[0]) != counts(traced[1]):
            failures.append(f"{workload}: traced counts differ between two runs")
    check_absent_function_is_tolerated()
    print("absent-function tolerance: ok")
    for f in failures:
        print("FAILED:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
