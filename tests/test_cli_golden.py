"""Golden CLI digests: each listed run keeps its exit code and the sha256 of
its standard output, byte for byte.

The runs cover every ``decide --json`` and ``find --json`` cell (three kinds
by three directions, with d = 1, 2, 3 for the stable kind), ``table -d 1,2,3
--json`` with and without ``--oracle``, ``deficiency -d 4 --json``, and
``verify --json`` of each trace that ``find`` returns, for the same cell, on
the six fixture graphs.  Entries are keyed by argv, with the fixture name in
place of its path; in a ``verify`` key, ``-t @find`` stands for the trace
printed by the ``find`` run of the same cell.  All runs go with
``TRACE_FORGE_BUDGET`` unset.

After an intended output change, rewrite the digests with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from trace_forge.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"
GRAPHS = ("k3", "p3", "c4", "k4", "k5", "q3")


def _cells() -> list[list[str]]:
    cells = []
    for direction in ("any", "parallel", "antiparallel"):
        cells.append(["--kind", "double", "--direction", direction])
        for d in ("1", "2", "3"):
            cells.append(["--kind", "stable", "--direction", direction, "-d", d])
        cells.append(["--kind", "strong", "--direction", direction])
    return cells


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def digests(scratch: Path) -> dict[str, list]:
    """argv key -> [exit code, sha256 of stdout] for every golden run;
    ``find`` traces are written under ``scratch`` for ``verify``."""
    table: dict[str, list] = {}

    def record(aliases: dict[str, str], *argv: str) -> tuple[int, str]:
        code, out = _run(list(argv))
        key = " ".join(aliases.get(arg, arg) for arg in argv)
        table[key] = [code, hashlib.sha256(out.encode()).hexdigest()]
        return code, out

    for name in GRAPHS:
        path = str(FIXTURES / f"{name}.edges")
        alias = {path: name}
        for i, cell in enumerate(_cells()):
            record(alias, "decide", "-i", path, *cell, "--json")
            code, out = record(alias, "find", "-i", path, *cell, "--json")
            if code == 0:
                trace = scratch / f"{name}-{i}.trace"
                trace.write_text(" ".join(map(str, json.loads(out)["trace"])) + "\n")
                record(
                    {**alias, str(trace): "@find"},
                    "verify", "-i", path, "-t", str(trace), *cell, "--json",
                )
        record(alias, "table", "-i", path, "-d", "1,2,3", "--json")
        record(alias, "table", "-i", path, "-d", "1,2,3", "--oracle", "--json")
        record(alias, "deficiency", "-i", path, "-d", "4", "--json")
    return table


def test_cli_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("TRACE_FORGE_BUDGET", raising=False)
    golden = json.loads(GOLDEN.read_text())
    now = digests(tmp_path)
    changed = sorted(k for k in golden.keys() | now.keys() if golden.get(k) != now.get(k))
    assert not changed, "digests changed for:\n" + "\n".join(changed)


if __name__ == "__main__":
    os.environ.pop("TRACE_FORGE_BUDGET", None)
    with tempfile.TemporaryDirectory() as scratch:
        entries = digests(Path(scratch))
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(entries)} digests to {GOLDEN}")
