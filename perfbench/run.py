"""The setmaps benchmark: one workload, one seed, every answer checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload {expand,table} --seed N --seconds S --trace {0,1}

The load is a closed loop with one client: this process starts one child
process at a time (``child.py``), one per job, as a user's CLI command
would, and waits for it.  A workload's seed fixes a batch of jobs
(``workloads.py``).  A run repeats the batch ``--seconds`` / ``BATCH_S``
times, at least two, where ``BATCH_S`` is about a batch's time on a slow
2-vCPU host.  Every run of a workload then makes the same number of jobs,
so its percentiles fall on the same jobs; a run that counted batches by
the clock would move its tail percentile from one job to another as the
host's speed drifts.  Each batch holds an odd number of jobs and the
run_seconds of BENCHMARK.json gives seven batches.  A job then has seven
copies, the median and the tail percentile below both fall on the fourth
(middle) copy of some job, and neither takes an extreme copy.

With ``--trace 0`` the run reports the end-to-end metrics:

    setup_s      median time for a fresh interpreter to import setmaps and
                 setmaps.cli (a few imports before each batch, after one
                 warm-up)
    wall_s       median time of a batch, from the first job's start to the
                 last job's end
    job_p50_s    median job latency
    job_tail_s   the highest percentile of job latency with at least ten
                 samples beyond it (percentile and sample count are printed
                 on the info line)
    peak_rss_mb  largest peak resident set of any child, from its own
                 rusage as returned by wait4

With ``--trace 1`` it alternates untraced and traced batches and reports
the per-layer metrics that BENCHMARK.json lists: span totals and counters
per traced batch (the mean over traced batches), the median child import
time as ``cli.start_s``, and ``trace.overhead_s``, the median traced batch
minus the median untraced batch.  ``tracing.MOVES`` says which end-to-end
metric each should move.

Every job's answer is checked exactly, by routes in ``oracles.py`` that do
not call the engine.  The last line of standard output is the result as
JSON: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it records the Python version, ``nproc`` and the run's details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import NamedTuple

import oracles
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PER_BATCH = 3
BATCH_S = 5.0
CHILD_TIMEOUT_S = 150.0


class ChildResult(NamedTuple):
    """What one finished child process left behind."""

    rc: int
    out: bytes
    err: bytes
    start: float
    end: float
    rss_mb: float


def run_child(argv: list[str], cwd: str) -> ChildResult:
    """Run one child to completion, draining its pipes, and reap it with wait4.

    wait4 returns the child's own rusage, so ru_maxrss is that child's peak
    and not the running maximum over all children that RUSAGE_CHILDREN gives.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as sel:
            for stream in chunks:
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                remaining = start + CHILD_TIMEOUT_S - time.perf_counter()
                if remaining <= 0:
                    proc.kill()
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    end = time.perf_counter()
    return ChildResult(proc.returncode, b"".join(chunks[proc.stdout]),
                       b"".join(chunks[proc.stderr]), start, end, usage.ru_maxrss / 1024)


def time_import(root: str, src: str) -> float:
    """Time for a fresh interpreter to import setmaps and setmaps.cli."""
    code = f"import sys; sys.path.insert(0, {src!r}); import setmaps, setmaps.cli"
    child = run_child([sys.executable, "-c", code], root)
    if child.rc != 0:
        raise RuntimeError(f"importing setmaps failed: {child.err.decode()[-2000:]}")
    return child.end - child.start


class Runner:
    """Runs batches of one workload, one child per job, and keeps every job's record."""

    def __init__(self, jobs: list[dict], root: str, src: str, workdir: str):
        self.jobs, self.root, self.src = jobs, root, src
        self.jobfiles = []
        for index, job in enumerate(jobs):
            path = os.path.join(workdir, f"job{index:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"id": index, **job["spec"]}, fh)
            self.jobfiles.append(path)
        self.records: list[tuple[dict, dict, float]] = []  # (job, record, latency)
        self.child_imports: list[float] = []
        self.peak_rss_mb = 0.0

    def _child(self, jobfile: str, trace: bool) -> tuple[ChildResult, dict]:
        argv = [sys.executable, os.path.join(HERE, "child.py"), jobfile, str(int(trace)), self.src]
        child = run_child(argv, self.root)
        self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        try:
            record = json.loads(child.out.decode().strip().splitlines()[-1])
        except (IndexError, ValueError):
            record = None
        if child.rc != 0 or record is None:
            sys.stderr.write(child.err.decode()[-2000:])
            return child, {"rc": -1, "error": "child failed"}
        self.child_imports.append(record["import_s"])
        return child, record

    def batch(self, trace: bool) -> tuple[float, list[dict]]:
        """Run the batch once; return its wall time and the traced span folds."""
        folds = []
        first = None
        for job, path in zip(self.jobs, self.jobfiles):
            child, record = self._child(path, trace)
            first = child.start if first is None else first
            self.records.append((job, record, child.end - child.start))
            if "trace" in record:
                folds.append(record["trace"])
        return child.end - first, folds


def _edges(graph: dict) -> tuple:
    return tuple(tuple(e) for e in graph["edges"])


def check(job: dict, record: dict) -> bool:
    """True iff the job exited 0 and its answer is exactly right."""
    if record.get("rc") != 0:
        return False
    expect, answer = job["expect"], record["answer"]
    kind = expect["check"]
    if kind == "verify":
        result = json.loads(answer)["result"]
        return result["all_pass"] is True and result["passed"] == expect["passed"]
    if kind == "expand":
        result = json.loads(answer)["result"]
        coeffs = {int(T): Fraction(c) for T, c in result["subset_coefficients"].items()}
        lengths = [Fraction(c) for c in result["length_coefficients"]]
        return result["reconstructs"] is True and oracles.expansion_matches(
            _edges(expect["graph"]), expect["basis"], expect["target"], lengths, coeffs,
            expect["samples"])
    if kind == "table":
        edges = _edges(expect["graph"])
        return set(answer) == {str(S) for S in expect["samples"]} and all(
            oracles.chromatic_matches(edges, S, [Fraction(c) for c in answer[str(S)]])
            for S in expect["samples"])
    raise ValueError(f"unknown check {kind!r}")


def safe_check(job: dict, record: dict) -> bool:
    """``check``, with a malformed answer counted as a wrong one."""
    try:
        return check(job, record)
    except (KeyError, TypeError, ValueError) as exc:
        sys.stderr.write(f"malformed answer: {type(exc).__name__}: {exc}\n")
        return False


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, samples)."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count


def layer_metrics(names: list[str], folds: list[dict], traced_batches: int, runner: Runner,
                  overhead: float) -> tuple[dict, dict]:
    """Per-layer metric values per traced batch, and self time per span name."""
    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    for fold in folds:
        for name, (incl, self_s, calls) in fold["spans"].items():
            entry = spans.setdefault(name, [0.0, 0.0, 0])
            entry[0] += incl
            entry[1] += self_s
            entry[2] += calls
        for name, value in fold["counts"].items():
            counts[name] = counts.get(name, 0) + value
    values = {}
    for metric in names:
        base, _, stat = metric.rpartition(".")
        if metric == "cli.start_s":
            value = statistics.median(runner.child_imports)
        elif metric == "trace.overhead_s":
            value = overhead
        elif metric in counts:
            value = counts[metric] / traced_batches
        elif stat in ("s", "self_s", "calls"):
            entry = spans.get(base, [0.0, 0.0, 0])
            value = entry[("s", "self_s", "calls").index(stat)] / traced_batches
        else:
            value = 0  # a counter the batch never reached
        values[metric] = value
    self_times = {name: round(entry[1] / traced_batches, 6) for name, entry in spans.items()}
    return values, dict(sorted(self_times.items(), key=lambda kv: -kv[1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="setmaps benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "setmaps", "__init__.py")):
        print(f"no setmaps sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    moves = {name: tracing.MOVES[name] for name in per_layer}

    workdir = os.path.join(root, ".perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(workloads.build(args.workload, args.seed, workdir), root, src, workdir)
        time_import(root, src)  # the first import compiles bytecode and is not counted
        setup_times = []
        walls = {False: [], True: []}
        folds: list[dict] = []
        for index in range(max(2, round(args.seconds / BATCH_S))):
            setup_times.extend(time_import(root, src) for _ in range(SETUP_PER_BATCH))
            trace = bool(args.trace) and index % 2 == 1
            wall, batch_folds = runner.batch(trace)
            walls[trace].append(wall)
            folds.extend(batch_folds)
        checked = [(job, record, latency, safe_check(job, record))
                   for job, record, latency in runner.records]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    attempted = len(checked)
    failed = sum(1 for *_, ok in checked if not ok)
    latencies = [latency for _, _, latency, _ in checked]
    tail, percentile, samples = _tail(latencies)
    info = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "batch_walls_s": [round(w, 4) for w in walls[False]],
        "traced_batch_walls_s": [round(w, 4) for w in walls[True]],
        "jobs_per_batch": len(runner.jobs),
        "job_tail_percentile": round(percentile, 2),
        "job_tail_samples": samples,
        "failed_jobs": [job["spec"].get("argv", job["spec"]["kind"])
                        for job, _, _, ok in checked if not ok][:5],
    }
    if args.trace:
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        values, self_times = layer_metrics(list(per_layer), folds, len(walls[True]), runner,
                                           overhead)
        info["self_s_per_batch"] = self_times
        info["moves"] = moves
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "job_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "job_tail_s": {"value": tail, "unit": "s"},
            "peak_rss_mb": {"value": runner.peak_rss_mb, "unit": "MiB"},
        }
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
