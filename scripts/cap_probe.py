#!/usr/bin/env python3
"""Run each capped command that CI exercises at its cap, and once past it.

Usage:
    python scripts/cap_probe.py

A cap promises a cold run within 10 s and 512 MiB.  Each row of ``rows()`` is a
command, the seeded input its cap was measured on and a check of its answer.  A
run is a child under a 512 MiB address space that reports its peak RSS (VmHWM,
which exec resets, unlike a parent's rusage).  At n = cap it must exit 0 with a
right answer within the row's RSS bound, at cap + 1 exit 3 and print nothing.
Time is printed, not gated: the caps were measured on one host.  The first line
is a reference time, the median of a fixed in-process loop, so that the times of
runs on different days or hosts can be set side by side.
"""

import json
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from fractions import Fraction
from itertools import zip_longest

SEED = 1
ADDRESS_SPACE_MIB = 512
# args: n, a directory for input files -> the child's arguments; answer: its JSON -> right?
Row = namedtuple("Row", "name cap args answer max_rss_mib", defaults=(ADDRESS_SPACE_MIB,))
# a child runs ``child`` of this file, on the import path of this process
CHILD = "import runpy, sys; runpy.run_path(sys.argv[1])['child'](sys.argv[2:])"


def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """The edges of G(n, p): each pair u < v, in order, kept with probability p."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def rows() -> tuple[Row, ...]:
    from setmaps.abel import ABEL_POLY_CAP, TAIL_BLOCK_CAP
    from setmaps.graphs import CHROMATIC_POLY_CAP, Graph
    from setmaps.oracles import BELL_ENUM_CAP, EDGE_ENUM_CAP, deletion_contraction
    from setmaps.poly import Poly
    from setmaps.ring import BLOCK_SUM_CAP, MAX_GROUND_SIZE, bell_number

    def with_graph(edges, *command):  # the graph of edges(n), on n vertices or the most its edges name
        def args(n, directory):
            drawn, path = edges(n), os.path.join(directory, f"{n}.txt")
            vertices = max([n, *(v + 1 for _, v in drawn)])
            with open(path, "w") as fh:
                fh.write(f"{vertices} {len(drawn)}\n" + "".join(f"{u} {v}\n" for u, v in drawn))
            return [*command, "--graph", path]
        return args

    def on_graph(p, *command):  # G(n, p) seeded random.Random(SEED)
        return with_graph(lambda n: gnp_edges(n, p, random.Random(SEED)), *command)

    rng = random.Random(SEED)  # block sizes in 1..3, drawn after G(BLOCK_SUM_CAP, .3) in one stream
    gnp_edges(BLOCK_SUM_CAP, 0.3, rng)
    sizes = [str(rng.randint(1, 3)) for _ in range(max(BLOCK_SUM_CAP, TAIL_BLOCK_CAP) + 1)]

    def passes(out):
        return out["result"]["all_pass"] is True

    def star(out):  # a tree's x(x - 1)^(n - 1) (Read 1968): (-1)^(n - k) C(n - 1, k - 1) at x^k
        n = out["input"]["vertices"]
        right = (str((-1) ** (n - k) * math.comb(n - 1, k - 1)) for k in range(1, n + 1))
        return out["result"]["coefficients"] == ["0", *right]

    def rising_sum(out):  # sum_k c_k x(x+1)...(x+k-1), against deletion-contraction of the same graph
        n, total, rising = out["input"]["vertices"], [], [1]  # rising: the coefficients of x^(k), low first
        for k, c in enumerate(out["result"]["length_coefficients"]):
            if k:
                rising = [a + (k - 1) * b for a, b in zip([0, *rising], [*rising, 0])]
            total = [t + Fraction(c) * a for t, a in zip_longest(total, rising, fillvalue=0)]
        # the input file went with its directory: G(n, .3) is drawn again from its seed
        chi = deletion_contraction(Graph(n, gnp_edges(n, 0.3, random.Random(SEED))), cap=n)
        return out["result"]["reconstructs"] is True and Poly(total) == chi

    def sparse(out):  # every coefficient, against deletion-contraction of the same graph
        n = out["input"]["vertices"]
        # the input file went with its directory: G(n, .03) is drawn again from its seed
        chi = deletion_contraction(Graph(n, gnp_edges(n, 0.03, random.Random(SEED))), cap=n)
        return out["result"]["coefficients"] == [str(c) for c in chi.coeffs]

    def abel(out):  # x(x + n)^(n - 1) on n unit blocks: C(n - 1, k - 1) n^(n - k) at x^k
        n = len(out["input"]["blocks"])
        right = (str(math.comb(n - 1, k - 1) * n ** (n - k)) for k in range(1, n + 1))
        return out["result"]["coefficients"] == ["0", *right]

    return (
        # expand's reconstructs re-sums its own coordinates: the answer, in this process after the run and
        # untimed, re-sums the printed lengths in rising factorials written here against deletion-contraction
        Row("expand --basis rising", BLOCK_SUM_CAP, on_graph(0.3, "expand", "--basis", "rising"), rising_sum),
        Row("verify --check power", BLOCK_SUM_CAP, on_graph(0.3, "verify", "--check", "power"), passes),
        Row("verify --check closed-form", BLOCK_SUM_CAP,
            lambda n, _: ["verify", "--check", "closed-form", "--blocks", ",".join(sizes[:n])], passes),
        Row("verify --check tail-forests", TAIL_BLOCK_CAP,
            lambda n, _: ["verify", "--check", "tail-forests", "--blocks", ",".join(sizes[:n])], passes),
        # the label-order count pass's worst case, where every vertex past 0 has one lower neighbor and
        # the rest independent; the answer is every coefficient of the tree's closed form, written here
        Row("chromatic on the star, centre 0", CHROMATIC_POLY_CAP,
            with_graph(lambda n: [(0, v) for v in range(1, n)], "chromatic"), star),
        # the largest-last count pass's worst case: of G(17, p) at p = .01-.8 the slowest was p = .03;
        # the answer, in this process after the run and untimed, is deletion-contraction of the graph
        Row("chromatic on G(n, .03)", CHROMATIC_POLY_CAP, on_graph(0.03, "chromatic"), sparse),
        Row("abel on unit blocks", ABEL_POLY_CAP, lambda n, _: ["abel", "--blocks", ",".join("1" * n)], abel),
        Row("verify --check expansion", BLOCK_SUM_CAP, on_graph(0.3, "verify", "--check", "expansion"),
            lambda out: passes(out) and out["result"]["passed"] == 8),
        # the counting checks and the binomial check's composition run on the kernel; of G(17, p) at
        # p in {0, .3, 1}, each was slowest edgeless
        *(Row(f"verify --check {check}, edgeless", BLOCK_SUM_CAP, on_graph(0.0, "verify", "--check", check),
              passes) for check in ("stanley", "rising-pairs", "stable-counts", "binomial")),
        Row("oracle stable-partitions, edgeless", BELL_ENUM_CAP, on_graph(0.0, "oracle", "stable-partitions"),
            lambda out: out["result"]["count"] == bell_number(out["input"]["vertices"])),
        # n edges: every orientation of the star K_{1,n} is acyclic, and one has its only sink at the centre
        Row("oracle unique-sink on the star, sink at the centre", EDGE_ENUM_CAP,
            with_graph(lambda n: [(0, v) for v in range(1, n + 1)], "oracle", "unique-sink", "--sink", "0"),
            lambda out: out["result"]["count"] == 1),
        # n edges: 2^n - 2 orientations of the cycle C_n are acyclic, and |chi'(1)| = 1 of them has its
        # only source at 0 and its only sink at 1
        Row("oracle sink-source on the cycle", EDGE_ENUM_CAP,
            with_graph(lambda n: [(0, n - 1), *((v, v + 1) for v in range(n - 1))], "oracle", "sink-source",
                       "--source", "0", "--sink", "1"),
            lambda out: out["result"]["count"] == 1),
        # 142-146 MiB measured on Python 3.10-3.13, 151 MiB on Python 3.11 since the largest-last order
        Row("chromatic table and reads", MAX_GROUND_SIZE, lambda n, _: ["table", str(n)], passes, 200),
    )


def child(args: list[str]) -> None:
    """A run: the command line on ``args`` or, on ``table n``, the table row; then its peak RSS in KiB."""
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_MIB << 20, ADDRESS_SPACE_MIB << 20))
    from setmaps.cli import main as command_line
    from setmaps.ring import CapExceeded

    try:
        if args[0] != "table":
            sys.exit(command_line(args))
        from setmaps.graphs import Graph, chromatic_setmap
        from setmaps.oracles import deletion_contraction
        # G(n, .5): four seeded reads of at most 12 vertices by deletion-contraction; the full set's top
        n, rng = int(args[1]), random.Random(SEED)
        graph = Graph(n, gnp_edges(n, 0.5, rng))
        table = chromatic_setmap(graph)
        reads = [sum(1 << v for v in rng.sample(range(n), rng.randint(1, min(n, 12)))) for _ in range(4)]
        full = table[graph.vertex_mask]
        ok = all(table[S] == deletion_contraction(graph.restrict(S)) for S in reads) and full.degree == n
        ok = ok and full.coeffs[-1] == 1 and (n == 0 or full.coeffs[n - 1] == -graph.edge_count)
        print(json.dumps({"result": {"all_pass": ok}}))
    except CapExceeded as exc:  # the table's; the command line exits 3 itself
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
    finally:
        with open("/proc/self/status") as fh:
            print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")), file=sys.stderr)


def check(row: Row, n: int) -> bool:
    """Run ``row`` at n, print one line, and say whether the run passed."""
    with tempfile.TemporaryDirectory() as directory:
        start = time.perf_counter()
        run = subprocess.run([sys.executable, "-c", CHILD, __file__, *row.args(n, directory)], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        seconds = time.perf_counter() - start
    *errors, peak = run.stderr.splitlines() or [""]
    rss = int(peak) / 1024 if peak.isdigit() else math.inf
    if n > row.cap:
        ok, verdict = run.returncode == 3 and not run.stdout, f"past cap {row.cap}"
    else:
        right = run.returncode == 0 and row.answer(json.loads(run.stdout))
        ok, verdict = right and rss <= row.max_rss_mib, f"answer {'right' if right else 'wrong'}"
    print(f"{'PASS' if ok else 'FAIL'} {row.name} at n = {n}, {verdict}: exit {run.returncode}, "
          f"{seconds:.2f} s, peak RSS {rss:.0f} MiB of {row.max_rss_mib}")
    if not ok and errors:
        print(f"  {errors[-1]}")
    return ok


def probe(points) -> int:
    """Check every (row, n) of ``points``; 0 when all pass, else 1."""
    return 0 if all([check(row, n) for row, n in points]) else 1


def reference(runs: int = 7) -> float:
    """Print and return the median time of a fixed loop of big-int products and Fraction sums."""
    times = []
    for _ in range(runs):
        start, a = time.perf_counter(), 3**4000
        for _ in range(3000):
            a = a * a & (1 << 9000) - 1 | 1
        sum(Fraction(1, k) for k in range(1, 3000))
        times.append(time.perf_counter() - start)
    median = sorted(times)[runs // 2]
    print(f"reference: {median:.3f} s, the median of {runs} runs of a fixed in-process loop")
    return median


def main() -> int:
    reference()
    return probe([(row, n) for row in rows() for n in (row.cap, row.cap + 1)])


if __name__ == "__main__":
    sys.exit(main())
