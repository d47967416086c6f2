"""Command-line front end: exact chromatic expansions and identity suites.

Commands
--------
chromatic   exact chromatic polynomial of an induced subgraph
expand      basis coefficients of the chromatic set map, with re-summation
verify      named identity suites over a graph or a block-size vector
oracle      brute-force counts (colorings, orientations, partitions, tails)
abel        the Abel-type polynomial attached to a subset of blocks

Graphs are plain text: a header line `n m`, then m lines `u v` with
0 <= u < v < n; `#` starts a comment.  Subsets are decimal integers read
as vertex bitmasks (bit v = vertex v).  Bases are monomial, falling:a,
rising, abel:a, or logfamily with a an exact rational such as -1 or 3/4.
Every rational in the output is rendered canonically as p/q (or p when
q = 1); coefficient arrays are low-degree-first.

Exit codes: 0 success / all checks pass, 1 a verification failed,
2 usage or parse error, 3 a size cap was exceeded or memory ran out,
141 standard output was closed before the result was written (128 +
SIGPIPE, the status a shell reports for a pipeline stage ended by a
broken pipe).

Each process compiles and runs only the modules its command uses:
importing this module loads no engine module, and of the standard library
only ``os`` and ``sys``.  ``argparse`` waits for ``build_parser``,
``json`` for ``render`` and ``ring`` for an ``--x`` (``parse_rational``:
an integer loads no ``fractions``), so ``--help`` and usage errors before
an ``--x`` load no engine module either.  Once the arguments parse,
``main`` loads ``ring`` (for ``CapExceeded``), and each command imports
the rest when it runs.  This module holds the parser and the
``chromatic`` and ``expand`` commands; ``verify``, ``oracle`` and
``abel`` live in ``cli_checks``, which ``_DISPATCH`` imports the first
time it runs one of them.  ``chromatic`` loads ``graphs`` and ``poly``;
the graph oracles add ``oracles``; ``expand`` adds ``umbral`` and
``expansions``, and runs no kernel: its subset coefficients and lengths
are a change of basis from the table's counts.  The graph checks load
those, ``checks`` and the block-sum kernel (``kernel``), and ``algebra``
where a check composes or inverts a set map; no check loads ``oracles``.
The block checks, ``oracle tail-forests`` and ``abel`` load ``poly`` and
``abel``, and the partition-sum checks ``kernel``; every block command
restricts the blocks to ``--subset`` first and passes them whole.  On
integral input no command loads ``fractions`` (``ring.quotient``).  A
``--cap`` warning loads no engine module beyond ``ring``: it prices each
stage from the override alone.

Each flag is declared once, by its argparse keywords, in ``_FLAGS``, and
each command has one row in ``_COMMANDS``: its help, its flags in parser
order and the ones it requires.  ``build_parser`` builds every subparser
from these two tables and adds only ``verify --check`` and the ``oracle``
positional.  Checks and oracles are named once, in one ordered table per
kind (``GRAPH_CHECKS``, ``BLOCK_CHECKS``, ``ORACLES``) that maps each name
to the stages a ``--cap`` override raises and the flags it reads among
``--k``, ``--x``, ``--basis``, ``--source`` and ``--sink``; the parser, the
``--check`` help, the cost warning, ``verify`` and ``oracle`` read them.
Beyond those, a name reads ``--graph`` or ``--blocks`` after its kind, and
``--subset``, ``--format`` and ``--cap``; any other flag is a usage error,
and of several the first in ``_NAMED_FLAGS`` is named (``--check all``
takes each flag one of its checks reads); an oracle needs every flag it
reads.  ``--source`` and ``--sink`` are vertex labels of the graph file,
inside ``--subset``.  A negative ``--cap`` is refused while parsing.  A
command prints that warning after its own usage checks and before its
first cap.  A check's cap, or its ``--cap`` override,
governs every stage the check runs.  The ``expand`` command and every
graph check share the block-sum kernel's cap, ``ring.BLOCK_SUM_CAP``;
the command keeps it on the table's vertices, although the library
``expand`` runs no kernel and takes no cap.  Every graph check caps
vertices.  ``chromatic`` prints the chromatic table's value at the full
set of its induced subgraph, and caps that subgraph's vertices at
``graphs.CHROMATIC_POLY_CAP``, and ``abel`` the selected blocks at
``abel.ABEL_POLY_CAP``, each before any work; the ``abel`` warning prices
the power ``cap - 1``, or 0 at ``--cap 0``.  A graph oracle whose cap
admits its count refuses, before the count, a subset mask too long to
print (``sys.get_int_max_str_digits``).
"""

import os
import sys

# engine modules, and the stdlib modules only a command needs, are imported
# inside the functions that use them (module docstring), so the annotations
# that name their classes are strings; a __future__ import would load a module

# each name, in run order -> (the stages a --cap override raises, the flags among
# --k, --x, --basis, --source and --sink that it reads); any other is a usage error
_EXPANSION = ("table", "kernel")
GRAPH_CHECKS = {
    "binomial": (_EXPANSION, ()),
    "expansion": ((*_EXPANSION, "bases"), ("basis",)),
    "rising-pairs": (_EXPANSION, ()),
    "abel-one": (_EXPANSION, ()),
    "stable-counts": (_EXPANSION, ()),
    "derivative": (_EXPANSION, ("x",)),
    "evaluation": (_EXPANSION, ("x",)),
    "power": (("table", "power"), ("x", "k")),
    "stanley": (_EXPANSION, ()),
}
BLOCK_CHECKS = {
    "closed-form": (("kernel",), ()),
    "forest-count": (("kernel",), ("k",)),
    "tail-forests": (("tails",), ("k",)),
}
# an oracle needs every flag it reads
ORACLES = {
    "colorings": (("partitions",), ("x",)),
    "acyclic": (("orientations",), ()),
    "stable-partitions": (("partitions",), ()),
    "unique-sink": (("orientations",), ("sink",)),
    "sink-source": (("orientations",), ("source", "sink")),
    "tail-forests": (("tails",), ("k",)),
}
_CHECK_NAMES = ", ".join([*GRAPH_CHECKS, *BLOCK_CHECKS])


def _poly_result(poly) -> dict:
    coeffs = list(map(str, poly.coeffs or (0,)))
    return {"coefficients": coeffs, "degree": poly.degree, "polynomial": str(poly)}


def _parse_blocks(text: str) -> tuple[int, ...]:
    import argparse

    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"blocks must be comma-separated integers, got {text!r}")
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError("block sizes must be positive integers")
    return sizes


def _parse_rational(text: str):
    import argparse

    from .ring import parse_rational

    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _parse_cap(text: str) -> int:
    import argparse

    try:
        cap = int(text)
    except ValueError:  # argparse's own text for a bad int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if cap < 0:
        raise argparse.ArgumentTypeError(f"cap must be nonnegative, got {cap}")
    return cap


# each flag once, by its argparse keywords: first the flags that a check or oracle
# reads or refuses by name, in the order a refusal names them, then the flags
# that every name reads
_NAMED_FLAGS = {
    "graph": {"help": "path to a graph file"},
    "blocks": {"type": _parse_blocks, "help": "comma-separated block sizes, e.g. 2,1,1"},
    "k": {"type": int, "help": "component count / power exponent"},
    "x": {"type": _parse_rational, "help": "expansion parameter / base point / color count"},
    "basis": {"help": "monomial | falling:a | rising | abel:a | logfamily"},
    "source": {"type": int, "help": "source vertex (sink-source)"},
    "sink": {"type": int, "help": "sink vertex (unique-sink, sink-source)"},
}
_FLAGS = {
    **_NAMED_FLAGS,
    "subset": {"type": int, "help": "subset bitmask (decimal; default: the full set)"},
    "format": {"choices": ("json", "table"), "default": "json"},
    "cap": {"type": _parse_cap, "help": "override the command's governing size cap (prints a cost warning)"},
}
# each command -> (its help, its flags in parser order, the ones it requires)
_COMMANDS = {
    "chromatic": ("chromatic polynomial of an induced subgraph", "graph subset format cap", "graph"),
    "expand": (
        "expansion coefficients in a binomial-type basis", "graph subset format basis cap", "graph basis"
    ),
    "verify": ("run a named identity suite", "graph blocks basis subset x k format cap", ""),
    "oracle": ("brute-force combinatorial counts", "graph blocks subset x k source sink format cap", ""),
    "abel": ("Abel-type polynomial of a subset of blocks", "blocks subset format cap", "blocks"),
}


def build_parser() -> "argparse.ArgumentParser":
    import argparse

    parser = argparse.ArgumentParser(
        prog="setmaps",
        description="Exact chromatic-polynomial expansions in binomial-type bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags, required) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        if command == "verify":  # its usage lists --check first
            p.add_argument("--check", required=True, help=f"one of {_CHECK_NAMES}")
        for flag in flags.split():
            p.add_argument(f"--{flag}", required=flag in required.split(), **_FLAGS[flag])
    sub.choices["oracle"].add_argument("oracle", choices=ORACLES)
    return parser


def _warn_cap(cap: int | None, stages) -> None:
    """Price a cap override by the work of each stage it governs."""
    if cap is None:
        return
    from .ring import bell_number

    def count(form: str, value) -> str:
        # evaluated only for caps small enough to print
        return f"{form} = {value()}" if cap <= 25 else form

    costs = {
        "table": (
            f"the chromatic table sums over at most "
            f"{count(f'(3^{cap}-1)/2', lambda: (3**cap - 1) // 2)} (subset, color class) pairs"
        ),
        # one product per count s_j(S) with j >= 1 and its connection constant
        "basis": (
            f"the change of basis takes about "
            f"{count(f'2^{cap}*{cap}', lambda: 2**cap * cap)} products of counts and constants"
        ),
        "kernel": (
            f"the block-sum kernel takes about "
            f"{count(f'2^{cap}*{cap}', lambda: 2**cap * cap)} int products"
        ),
        "bases": "the expansion check runs that kernel once per basis, eight times without --basis",
        "partitions": (
            f"a partition oracle enumerates "
            f"{count(f'Bell({cap})', lambda: bell_number(cap))} set partitions"
        ),
        "power": (
            f"the power check makes {count(f'2*2^{cap}', lambda: 2 * 2**cap)} table evaluations "
            f"and one composition of at most {cap} powers of 2^{cap} int products each"
        ),
        "orientations": (
            f"orientation enumeration over {cap} edges touches up to "
            f"{count(f'2^{cap}', lambda: 2**cap)} orientations"
        ),
        # n - k tails over n blocks, each aimed at one of n blocks:
        # sum_k C(n, k) n^(n-k) = (n + 1)^n
        "tails": (
            f"tail-forest enumeration over {cap} blocks tries up to "
            f"{count(f'{cap + 1}^{cap}', lambda: (cap + 1) ** cap)} tail sets"
        ),
        # squaring dense polynomials of degree up to N - 1
        "abel": (
            f"the Abel polynomial over {cap} blocks raises x + w to the power {max(cap - 1, 0)} "
            f"in about {count(f'{cap}^2', lambda: cap**2)} int products"
        ),
    }
    priced = "; ".join(text for stage, text in costs.items() if stage in stages)
    print(f"warning: cap override {cap}; {priced}", file=sys.stderr)


def _subset(ns: "argparse.Namespace", graph: "Graph") -> int:
    return graph.vertex_mask if ns.subset is None else ns.subset


def _graph_input(ns: "argparse.Namespace", graph: "Graph") -> dict:
    return {
        "graph": ns.graph,
        "vertices": graph.n,
        "edges": graph.edge_count,
        "subset": _subset(ns, graph),
    }


def cmd_chromatic(ns: "argparse.Namespace") -> tuple[dict, int]:
    from .graphs import chromatic_poly, load_graph

    kwargs = {} if ns.cap is None else {"cap": ns.cap}
    graph = load_graph(ns.graph)
    local = graph.restrict(_subset(ns, graph))
    _warn_cap(ns.cap, ("table",))
    poly = chromatic_poly(local, **kwargs)
    return {
        "command": "chromatic",
        "input": _graph_input(ns, graph),
        "result": _poly_result(poly),
        "checks": [],
    }, 0


def cmd_expand(ns: "argparse.Namespace") -> tuple[dict, int]:
    from .expansions import expand
    from .graphs import chromatic_setmap, load_graph
    from .ring import BLOCK_SUM_CAP, CapExceeded, subsets_of
    from .umbral import family_from_string

    graph = load_graph(ns.graph)
    cap = BLOCK_SUM_CAP if ns.cap is None else ns.cap
    subset = _subset(ns, graph)
    # the table covers only the subset, its vertices relabelled 0..k-1 in order
    local = graph.restrict(subset)
    family = family_from_string(ns.basis)  # usage errors come before caps
    _warn_cap(ns.cap, ("table", "basis"))
    if local.n > cap:
        raise CapExceeded(f"expansion over {local.n} vertices exceeds cap {cap}")
    p = chromatic_setmap(local)
    exp = expand(p, family)
    reconstructs = exp.reconstruct() == p[p.full_mask]
    # local mask t is the t-th submask of the subset in increasing order
    masks = sorted(subsets_of(subset))
    subset_coeffs = {str(T): str(exp.coeffs[t]) for t, T in enumerate(masks) if T}
    payload = {
        "command": "expand",
        "input": {**_graph_input(ns, graph), "basis": str(family)},
        "result": {
            "subset_coefficients": subset_coeffs,
            "length_coefficients": list(map(str, exp.by_length())),
            "reconstructs": reconstructs,
        },
        "checks": [],
    }
    return payload, 0 if reconstructs else 1


def _table_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(_table_value(v) for v in value)
    if isinstance(value, dict):
        return " ".join(f"{k}={_table_value(v)}" for k, v in value.items())
    return str(value)


def render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        import json

        return json.dumps(payload, indent=2)
    lines = [f"command: {payload['command']}"]
    for key, value in payload["input"].items():
        lines.append(f"{key}: {_table_value(value)}")
    for key, value in payload["result"].items():
        lines.append(f"{key}: {_table_value(value)}")
    for check in payload["checks"]:
        lines.append(f"{'PASS' if check['pass'] else 'FAIL'} {check['name']}")
    return "\n".join(lines)


def _check_command(ns: "argparse.Namespace") -> tuple[dict, int]:
    from .cli_checks import COMMANDS

    return COMMANDS[ns.command](ns)


_DISPATCH = {
    "chromatic": cmd_chromatic,
    "expand": cmd_expand,
    # their module is compiled only by the processes that run them
    **dict.fromkeys(("verify", "oracle", "abel"), _check_command),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return 0 if exc.code is None else int(exc.code)
    from .ring import CapExceeded

    try:  # rendering too: an int past sys.get_int_max_str_digits() raises ValueError
        payload, status = _DISPATCH[ns.command](ns)
        text = render(payload, ns.format)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:  # a size no cap priced; its message is mostly empty
        print("error: out of memory", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:  # not above: a BrokenPipeError is an OSError, with a status of its own
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # nobody reads the output; keep the interpreter's exit flush quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return status


if __name__ == "__main__":
    sys.exit(main())
