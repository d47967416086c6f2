"""Seeded inputs for the benchmark workloads.

``build(workload, seed, workdir)`` writes the graph files a batch needs
into ``workdir`` and returns the batch as a list of jobs.  Each job is a
dict with a ``spec`` (what the child process runs; it holds only file
paths, argv and subset masks, never engine objects) and an
``expect`` (what the parent checks the answer against).  The same seed
always gives the same batch.  Every input stays inside the engine's caps,
so no job is expected to fail.
"""

from __future__ import annotations

import os
import random
from itertools import combinations


def gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """Edges of an Erdos-Renyi G(n, p) draw."""
    return [e for e in combinations(range(n), 2) if rng.random() < p]


def random_subset(rng: random.Random, mask: int, size: int) -> int:
    """A uniformly random ``size``-element submask of ``mask``."""
    bits = [v for v in range(mask.bit_length()) if (mask >> v) & 1]
    return sum(1 << v for v in rng.sample(bits, size))


class _Graphs:
    """Writes graph files into the work directory and remembers their edges."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def add(self, n: int, edges: list[tuple[int, int]]) -> dict:
        path = os.path.join(self.workdir, f"g{self.count:03d}.txt")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{n} {len(edges)}\n")
            fh.writelines(f"{u} {v}\n" for u, v in edges)
        return {"path": path, "n": n, "edges": [list(e) for e in edges]}


def _expand_job(graph: dict, basis: str, rng: random.Random, subset: int | None = None) -> dict:
    argv = ["expand", "--graph", graph["path"], "--basis", basis]
    target = (1 << graph["n"]) - 1 if subset is None else subset
    if subset is not None:
        argv += ["--subset", str(subset)]
    samples = [random_subset(rng, target, min(size, target.bit_count())) for size in (4, 5, 6)]
    return {
        "spec": {"kind": "cli", "argv": argv},
        "expect": {"check": "expand", "graph": graph, "basis": basis, "target": target,
                   "samples": samples},
    }


def _expand(rng: random.Random, graphs: _Graphs) -> list[dict]:
    # Bell(9) = 21147 and Bell(10) = 115975 partitions per by_length pass:
    # the partition sums dominate, and the table is a small share.  The
    # logfamily job also sums over Bell(9) partitions to build its basis.
    # Five jobs, an odd number, so that the median job is a middle copy.
    sparse9 = graphs.add(9, gnp(rng, 9, 0.3))
    dense9 = graphs.add(9, gnp(rng, 9, 0.7))
    mid10 = graphs.add(10, gnp(rng, 10, 0.5))
    mid8 = graphs.add(8, gnp(rng, 8, 0.5))
    return [
        _expand_job(sparse9, "monomial", rng),
        _expand_job(dense9, "logfamily", rng),
        _expand_job(mid10, "falling:1", rng),
        # every standard basis, each checked by the engine's own reconstruction
        {
            "spec": {"kind": "cli", "argv": ["verify", "--check", "expansion",
                                             "--graph", mid8["path"]]},
            "expect": {"check": "verify", "passed": 8},
        },
        # the Abel-type closed form is a Bell(7) partition sum over blocks
        {
            "spec": {"kind": "cli", "argv": ["verify", "--check", "closed-form",
                                             "--blocks", _blocks(rng, 7)]},
            "expect": {"check": "verify", "passed": 1},
        },
    ]


def _table(rng: random.Random, graphs: _Graphs) -> list[dict]:
    # The graph shapes are fixed G(n, p) draws and the seed relabels their
    # vertices and picks the subsets.  Fresh G(n, p) draws would make the
    # batch's cost vary threefold from seed to seed, since the cost of
    # deletion-contraction depends on the graph's shape far more than on n
    # and p; relabelling changes it by about a tenth.
    # Five jobs, an odd number, so that the median job is a middle copy.
    shapes = random.Random("table-shapes")
    jobs = []
    for n, p, basis in ((12, 0.3, None), (12, 0.5, None), (12, 0.7, "rising"), (13, 0.3, None)):
        label = list(range(n))
        rng.shuffle(label)
        edges = sorted(tuple(sorted((label[u], label[v]))) for u, v in gnp(shapes, n, p))
        graph = graphs.add(n, edges)
        full = (1 << n) - 1
        samples = [full] + [random_subset(rng, full, size) for size in (3, 5, 7, 9)]
        jobs.append({
            "spec": {"kind": "table", "graph": graph["path"], "subsets": samples},
            "expect": {"check": "table", "graph": graph, "samples": samples},
        })
        if basis is not None:
            jobs.append(_expand_job(graph, basis, rng, random_subset(rng, full, 6)))
    return jobs


def _blocks(rng: random.Random, count: int) -> str:
    """``count`` block sizes in 1..3 as a CLI vector."""
    return ",".join(str(rng.randint(1, 3)) for _ in range(count))


_BATCHES = {"expand": _expand, "table": _table}
WORKLOADS = tuple(_BATCHES)


def build(workload: str, seed: int, workdir: str) -> list[dict]:
    """The seeded batch of jobs for one workload; graph files go to ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    return _BATCHES[workload](rng, _Graphs(workdir))
