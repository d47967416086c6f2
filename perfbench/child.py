"""Benchmark child process: runs one job against the engine in ``src``.

Usage: child.py JOBFILE TRACE SRC

JOBFILE holds one job spec as JSON; TRACE is 0 or 1; SRC is the directory
that holds the ``setmaps`` package.  The child imports ``setmaps`` and
``setmaps.cli`` (timed, as a fresh CLI process would), runs the job, and
prints one JSON line: the import time, the job's exit code and its answer.
A CLI job runs ``setmaps.cli.main(argv)`` with its standard output
captured, exactly as ``python -m setmaps`` would.  With TRACE 1 the child
first wraps the engine's public functions (see ``tracing``) and adds the
job's folded spans to its record.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def _run(spec: dict, setmaps):
    """Run one job and return (exit code, answer)."""
    if spec["kind"] == "cli":
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            rc = setmaps.cli.main(spec["argv"])
        return rc, buffer.getvalue()
    if spec["kind"] == "table":
        graph = setmaps.graphs.load_graph(spec["graph"])
        table = setmaps.graphs.chromatic_setmap(graph)
        return 0, {str(S): [str(c) for c in table[S].coeffs] for S in spec["subsets"]}
    raise ValueError(f"unknown job kind {spec['kind']!r}")


def main() -> int:
    jobfile, trace, src = sys.argv[1], sys.argv[2] == "1", os.path.abspath(sys.argv[3])
    sys.path.insert(0, src)
    start = time.perf_counter()
    import setmaps
    import setmaps.cli

    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(setmaps.__file__))) != src:
        print(f"setmaps imported from {setmaps.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    with open(jobfile, encoding="utf-8") as fh:
        spec = json.load(fh)
    if tracer is not None:
        tracer.job = spec["id"]
    record: dict = {"import_s": import_s}
    try:
        record["rc"], record["answer"] = _run(spec, setmaps)
    except Exception as exc:  # a failed job is recorded, not raised
        record.update(rc=-1, error=f"{type(exc).__name__}: {exc}")
    if tracer is not None:
        record["trace"] = tracer.end_job()
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
