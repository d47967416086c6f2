#!/usr/bin/env python3
"""Run the command line in process over a fixed corpus and print one digest.

Usage:
    PYTHONPATH=src python scripts/cli_corpus.py [--small]

Every run is ``setmaps.cli.main(argv)`` with its standard output and error
captured: each command, every check and oracle (with and without the flags
they read, and with flags they refuse), over the bundled graphs and a few
block vectors, each under several subsets, both formats and ``--cap``
overrides, then parse errors, the refusals of basis specs and the order
of the check and flag refusals.  The last line is the run count and one
sha256 over every run's (argv, exit status, stdout, stderr): two sources
that print the same line behave alike on the whole corpus.  ``setmaps`` is
imported from the import path, so pointing ``PYTHONPATH`` at another
checkout's ``src`` digests that checkout.

The graphs are copies of ``graphs/*.txt``, with two malformed files added,
read by relative path from a temporary directory, so that the paths the
output echoes are the same in every checkout.  ``--help`` is not run: its
text is argparse's rendering of the help strings.  argparse's messages
differ between Python versions, so compare digests made by one version.
``--small`` runs a corner of the corpus, as a smoke test.

``cli_corpus_digests.txt`` records the whole corpus's line on each Python
version it was run on (``platform.python_version()``).  Where the running
version has a line there and the corpus prints another, the script exits
1; a version with no line gets a note on standard error.  A change that
moves the CLI's output records its new line for every version listed.
"""

import argparse
import hashlib
import io
import os
import platform
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# files of the temporary graphs directory beyond the bundled ones: a vertex out of
# range, a header that is not a header; and a name that no file has
MALFORMED = {"range.txt": "2 1\n0 5\n", "header.txt": "two 1\n0 1\n"}
MISSING = "missing.txt"
# one "<python version> <line>" a line
DIGESTS = ROOT / "scripts" / "cli_corpus_digests.txt"
BASES = ("monomial", "falling:1", "falling:-1/2", "rising", "abel:0", "abel:2", "logfamily", "nope")
BLOCK_VECTORS = ("2,1", "1", "2,1,1", "3,1,2,1")
# each run of a graph or block argv goes through every subset, format and cap
SUBSETS = (None, "0", "5", "255", "-1")
BLOCK_SUBSETS = (None, "0", "3", "5", "99")
# no --format is JSON, the default
FORMATS = (None, "table")
CAPS = (None, "0", "2", "9")


def graph_argvs(graph: str) -> list[list[str]]:
    """The graph commands on one graph file, before subset, format and cap."""
    from setmaps.cli import GRAPH_CHECKS

    g = ["--graph", graph]
    argvs = [["chromatic", *g]]
    argvs += [["expand", *g, "--basis", basis] for basis in BASES]
    for check in [*GRAPH_CHECKS, "all"]:
        verify = ["verify", "--check", check, *g]
        argvs += [verify, [*verify, "--x", "3/2"], [*verify, "--k", "3"], [*verify, "--basis", "rising"]]
    argvs += [
        ["verify", "--check", "all", *g, "--x", "0"],
        ["verify", "--check", "power", *g, "--k", "0"],
        ["verify", "--check", "binomial", *g, "--blocks", "2,1"],
        ["verify", "--check", "closed-form", *g],
        ["verify", "--check", "nope", *g],
        # several unread flags at once: the refusal names the first in its order
        ["verify", "--check", "binomial", *g, "--basis", "rising", "--x", "1", "--k", "2"],
        ["verify", "--check", "stanley", *g, "--basis", "rising", "--x", "1"],
        ["oracle", "colorings", *g, "--x", "3"],
        ["oracle", "colorings", *g, "--x", "1/2"],
        ["oracle", "colorings", *g],
        ["oracle", "acyclic", *g],
        ["oracle", "acyclic", *g, "--k", "3", "--sink", "0", "--source", "1"],
        ["oracle", "stable-partitions", *g],
        ["oracle", "unique-sink", *g, "--sink", "0"],
        ["oracle", "unique-sink", *g, "--sink", "2"],
        ["oracle", "unique-sink", *g, "--sink", "7"],
        ["oracle", "unique-sink", *g, "--source", "1", "--sink", "0"],
        ["oracle", "sink-source", *g, "--source", "0", "--sink", "1"],
        ["oracle", "sink-source", *g, "--source", "2", "--sink", "2"],
        ["oracle", "sink-source", *g, "--source", "0"],
        ["oracle", "tail-forests", *g, "--k", "1"],
    ]
    return argvs


def block_argvs(blocks: str) -> list[list[str]]:
    """The block commands on one block vector, before subset, format and cap."""
    b = ["--blocks", blocks]
    argvs = [["abel", *b], ["verify", "--check", "closed-form", *b]]
    argvs += [["verify", "--check", "closed-form", *b, "--k", "1"]]
    argvs += [["verify", "--check", check, *b] for check in ("forest-count", "tail-forests", "all")]
    for k in ("0", "1", "2", "5"):
        argvs += [["verify", "--check", check, *b, "--k", k] for check in ("forest-count", "tail-forests")]
        argvs += [["oracle", "tail-forests", *b, "--k", k]]
    argvs += [
        ["oracle", "tail-forests", *b],
        ["oracle", "tail-forests", *b, "--k", "1", "--x", "2"],
        ["verify", "--check", "tail-forests", *b, "--graph", "graphs/k3.txt"],
    ]
    return argvs


# fixed argvs: a usage error while parsing, or before any input is read
PARSE_ERRORS = [
    [],
    ["nope"],
    ["chromatic"],
    ["expand", "--graph", "graphs/k3.txt"],
    ["verify", "--graph", "graphs/k3.txt"],
    ["verify", "--check", "all"],
    ["verify", "--check", "binomial", "--graph", "graphs/k3.txt", "--source", "0"],
    ["oracle"],
    ["oracle", "nope", "--graph", "graphs/k3.txt"],
    ["abel"],
    ["abel", "--blocks", "0,1"],
    ["abel", "--blocks", "a"],
    ["abel", "--blocks", ""],
    ["abel", "--blocks", "2,1", "--graph", "graphs/k3.txt"],
    ["chromatic", "--graph", "graphs/k3.txt", "--cap", "-1"],
    ["chromatic", "--graph", "graphs/k3.txt", "--cap", "x"],
    ["chromatic", "--graph", "graphs/k3.txt", "--subset", "x"],
    ["chromatic", "--graph", "graphs/k3.txt", "--format", "xml"],
    ["verify", "--check", "derivative", "--graph", "graphs/k3.txt", "--x", "1/0"],
    ["verify", "--check", "power", "--graph", "graphs/k3.txt", "--k", "two"],
    ["oracle", "unique-sink", "--graph", "graphs/k3.txt", "--sink", "x"],
    ["verify", "--check", "forest-count", "--blocks", "2,1", "--k", "x"],
]
# fixed argvs: every refusal of a basis spec, and a spec name in another case
SPEC_ARGVS = [
    ["expand", "--graph", "graphs/k3.txt", "--basis", spec]
    for spec in ("falling:0", "abel:1/0", "Rising", "monomial:1", "falling", "logfamily:2")
]
# fixed argvs: an unknown check, then the first unread flag in the flag table's order,
# declared by the command or not
REFUSAL_ORDER = [
    ["verify", "--check", "binomial", "--graph", "graphs/k3.txt", "--basis", "rising", "--source", "0"],
    ["verify", "--check", "closed-form", "--blocks", "2,1", "--graph", "graphs/k3.txt", "--source", "1"],
    ["verify", "--check", "all", "--graph", "graphs/k3.txt", "--blocks", "2,1", "--source", "1"],
    ["verify", "--check", "nope", "--graph", "graphs/k3.txt", "--source", "0"],
]
# fixed argvs: a negative fraction after a flag, which argparse alone reads as a flag
NEGATIVE_X = [
    ["verify", "--check", "evaluation", "--graph", "graphs/k3.txt", "--x", "-3/4"],
    ["oracle", "colorings", "--graph", "graphs/k3.txt", "--x", "-3/4"],
]
NEGATIVE_VALUES = [
    ["verify", "--check", "power", "--graph", "graphs/k3.txt", "--k", "-2/3"],
    ["oracle", "unique-sink", "--graph", "graphs/k3.txt", "--sink", "-1/2"],
    ["abel", "--blocks", "-1,2"],
]


def corpus(small: bool = False) -> list[list[str]]:
    """Every argv, in run order; ``small`` keeps one graph, one block vector and
    the first two subsets and caps."""
    graphs = sorted(path.name for path in (ROOT / "graphs").glob("*.txt"))
    graphs = ["k2.txt"] if small else [*graphs, *MALFORMED, MISSING]
    keep = 2 if small else None
    runs = []
    for name in graphs:
        for argv in graph_argvs(f"graphs/{name}"):
            runs += variants(argv, SUBSETS[:keep], CAPS[:keep])
    for blocks in BLOCK_VECTORS[: 1 if small else None]:
        for argv in block_argvs(blocks):
            runs += variants(argv, BLOCK_SUBSETS[:keep], CAPS[:keep])
    return runs + PARSE_ERRORS + SPEC_ARGVS + REFUSAL_ORDER + NEGATIVE_X + NEGATIVE_VALUES


def variants(argv: list[str], subsets, caps) -> list[list[str]]:
    """``argv`` under every subset, format and cap."""
    return [
        [*argv, *optional("--subset", subset), *optional("--format", fmt), *optional("--cap", cap)]
        for subset in subsets
        for fmt in FORMATS
        for cap in caps
    ]


def optional(flag: str, value: str | None) -> list[str]:
    return [] if value is None else [flag, value]


def run(argv: list[str]) -> tuple[int, str, str]:
    from setmaps.cli import main as command_line

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = command_line(argv)
    return status, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small", action="store_true", help="a smoke-test corpus (see corpus)")
    args = parser.parse_args(argv)

    runs = corpus(args.small)
    digest = hashlib.sha256()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as directory:
        shutil.copytree(ROOT / "graphs", Path(directory) / "graphs")
        for name, text in MALFORMED.items():
            (Path(directory) / "graphs" / name).write_text(text)
        try:
            # argparse wraps its usage lines to the terminal's width
            os.environ["COLUMNS"] = "80"
            os.chdir(directory)
            for argv in runs:
                digest.update(repr((argv, *run(argv))).encode())
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
    line = f"{len(runs)} runs, sha256 {digest.hexdigest()}"
    print(line)
    if args.small:
        return 0
    version = platform.python_version()
    pinned = recorded().get(version)
    if pinned is None:
        print(f"note: {DIGESTS.name} records no line for Python {version}", file=sys.stderr)
    elif pinned != line:
        print(f"error: {DIGESTS.name} records {pinned!r} for Python {version}", file=sys.stderr)
        return 1
    return 0


def recorded() -> dict[str, str]:
    """The whole corpus's line by Python version, from ``DIGESTS``."""
    return dict(entry.split(" ", 1) for entry in DIGESTS.read_text().splitlines())


if __name__ == "__main__":
    sys.exit(main())
