"""The benchmark tracer still finds every engine name it wraps.

``perfbench/tracing.py`` wraps setmaps functions by module and name, so a
rename or a move in ``src`` breaks traced benchmark runs.  These tests
run its ``install`` against ``src`` in a fresh interpreter that writes no
bytecode, so the benchmark directory is only read.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRAPHS = ROOT / "graphs"


def traced(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` after ``tracing.install`` has wrapped the engine in ``src``."""
    script = "\n".join(
        [
            "import sys",
            f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]",
            "import tracing",
            "tracer = tracing.Tracer()",
            "tracing.install(tracer)",
            code,
        ]
    )
    return subprocess.run([sys.executable, "-B", "-c", script], capture_output=True, text=True)


def test_install_finds_every_name_it_wraps():
    result = traced("print('installed')")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "installed\n"


def test_traced_jobs_record_the_engine_spans():
    code = "\n".join(
        [
            "import contextlib, io, json",
            "import setmaps.cli",
            f"c5 = {str(GRAPHS / 'c5.txt')!r}",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert setmaps.cli.main(['expand', '--graph', c5, '--basis', 'rising']) == 0",
            "    assert setmaps.cli.main(['verify', '--check', 'expansion', '--graph', c5]) == 0",
            "    assert setmaps.cli.main(['verify', '--check', 'rising-pairs', '--graph', c5]) == 0",
            "fold = tracer.end_job()",
            "print(json.dumps({'spans': sorted(fold['spans']), 'counts': fold['counts']}))",
        ]
    )
    result = traced(code)
    assert result.returncode == 0, result.stderr
    fold = json.loads(result.stdout)
    assert {
        "cli.main",
        "graphs.load",
        "graphs.table",
        "expansions.expand",
        "expansions.reconstruct",
        "expansions.verifiers",
        "umbral.delta",
        "umbral.functional_apply",
    } <= set(fold["spans"])
    # rising-pairs reads its pair counts from the kernel: no engine path draws partitions
    assert "ring.partitions.items" not in fold["counts"]
    assert fold["counts"]["ring.subsets.calls"] >= 1
