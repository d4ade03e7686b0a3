"""trace-forge benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload decide_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The run writes the workload's inputs from
the seed into ``perfbench/_work``, times how long a fresh interpreter takes
to import ``trace_forge.cli`` (``setup_s``), then starts one worker process
that runs the operation list round-robin, keeps each operation's least
speed-calibrated time and checks every output (worker.py).  ``--trace 1``
runs the list untraced and traced instead and reports the per-layer
metrics.  The last line of standard output is the result object; the
worker's full result (raw and calibrated times) is kept in
``perfbench/_out``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402 - after the path set-up

#: Approximate seconds per pass over each list on a 2-core x86 machine;
#: rounds = seconds // pass, and never fewer than MIN_ROUNDS.
NOMINAL_PASS_S = {"decide_sweep": 8.0, "construct_roundtrip": 3.5, "verify_long": 6.0}
MIN_ROUNDS = 3
#: Fresh interpreters timed for setup_s (after one untimed warm-up).
SETUP_SAMPLES = 9
#: Whole-run limit, leaving room under a 180 s ceiling.
WORKER_TIMEOUT_S = 165


def measure_setup(samples: int) -> float:
    """Median wall time of a fresh ``python3 -c 'import trace_forge.cli'``."""
    cmd = [sys.executable, "-c", "import trace_forge.cli"]
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    subprocess.run(cmd, env=env, check=True, cwd=ROOT)  # writes the .pyc files
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_worker(workdir: Path, rounds: int, trace: int, env_extra: dict, result: Path, timeout: float) -> dict:
    env = {"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": "0", **env_extra}
    cmd = [sys.executable, str(HERE / "worker.py"), str(workdir), str(rounds), str(trace), str(result)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(result.read_text())


def end_to_end(res: dict, setup_s: float) -> dict:
    times = res["times"]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(times), "ms"),
        "latency_p90_ms": (1000 * statistics.quantiles(times, n=10)[8], "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(res: dict) -> dict:
    layers = {k: tuple(v) for k, v in res["layers"].items()}
    layers["trace.overhead_pct"] = (res["overhead_pct"], "%")
    return layers


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit", type=int, default=None, help="keep a slice of N operations (self-check)")
    args = p.parse_args(argv)
    began = time.monotonic()
    if not (ROOT / "src" / "trace_forge" / "cli.py").is_file():
        print(f"error: no trace_forge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = HERE / "_work" / tag
    outdir = HERE / "_out"
    outdir.mkdir(exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        manifest = workloads.build_manifest(args.workload, args.seed, workdir, args.limit)
        setup_s = measure_setup(SETUP_SAMPLES) if args.trace == 0 else None
        rounds = max(MIN_ROUNDS, int(args.seconds // NOMINAL_PASS_S[args.workload]))
        timeout = WORKER_TIMEOUT_S - (time.monotonic() - began)
        res = run_worker(workdir, rounds, args.trace, manifest.env, outdir / f"{tag}.json", timeout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = per_layer(res) if args.trace else end_to_end(res, setup_s)
    for problem in res["problems"][:20]:
        print("CHECK FAILED:", problem, file=sys.stderr)
    if res.get("absent"):
        print("absent functions:", ", ".join(res["absent"]), file=sys.stderr)
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["ops"] * res["rounds"],
        "failed": res["failed"] * res["rounds"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
