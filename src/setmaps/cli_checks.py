"""The ``verify``, ``oracle`` and ``abel`` commands of the command line.

``cli`` parses every command and imports this module the first time it
dispatches one of these three, so that ``chromatic`` and ``expand`` never
compile the check suites.  Each command imports the engine modules it runs
when it runs (see ``cli`` for the load map) and reads the check, oracle
and flag tables, the cost warning and the graph helpers from ``cli``.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from .cli import (
    BLOCK_CHECKS,
    GRAPH_CHECKS,
    ORACLES,
    _CHECK_NAMES,
    _NAMED_FLAGS,
    _graph_input,
    _poly_result,
    _subset,
    _warn_cap,
)
from .ring import CapExceeded

# the most digits an int may print, or 0, no limit, before Python 3.10.7
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _refuse_an_unprintable_subset(mask: int, vertices: int) -> None:
    """A usage error for a subset mask that ``render`` could not print: the full
    vertex mask of a graph of more than about 14 284 vertices, under the default
    limit of 4300 digits.  Checked before the work, not after it."""
    limit = _digit_limit()
    # 10^limit has 3.32 limit bits, so a mask of at most 3 limit bits never reaches it
    if limit and mask.bit_length() > 3 * limit and mask >= 10**limit:
        raise ValueError(
            f"the subset mask of {vertices} vertices has more than {limit} digits, over the limit "
            "on printing an int (sys.get_int_max_str_digits; PYTHONINTMAXSTRDIGITS raises it)"
        )

# the annotations that name engine classes are never evaluated (PEP 563)


def _graph_check_list(ns: argparse.Namespace, graph: Graph) -> list[tuple[str, bool]]:
    """Run the selected checks on ``graph``, already restricted to the subset."""
    from . import checks
    from .expansions import expansion_reconstructs
    from .graphs import chromatic_setmap
    from .ring import BLOCK_SUM_CAP
    from .umbral import AbelPolynomials, FallingFactorials, family_from_string, standard_families

    selected = tuple(GRAPH_CHECKS) if ns.check == "all" else (ns.check,)
    # usage errors come before caps: build the bases and read --x/--k first;
    # abel-one: chi_S = sum over sigma of x(x - len)^(len-1) * prod chi'_T(1)
    families = standard_families() if ns.basis is None else (family_from_string(ns.basis),)
    abel_a = AbelPolynomials(0 if ns.x is None else ns.x)
    bases = {
        "expansion": [(f"expansion {f}", f) for f in families],
        "abel-one": [("abel-one", AbelPolynomials(1))],
        "derivative": [(f"derivative a={abel_a.point}", abel_a)],
    }
    if "evaluation" in selected:
        if ns.x == 0:
            raise ValueError("check 'evaluation' needs a nonzero --x, the falling-factorial step")
        falling_a = FallingFactorials(1 if ns.x is None else ns.x)
        bases["evaluation"] = [(f"evaluation a={falling_a.step}", falling_a)]
    x0, y0 = (2 if ns.x is None else ns.x), (2 if ns.k is None else ns.k)
    if "power" in selected and y0 < 1:
        raise ValueError("the exponent must be a positive integer")
    _warn_cap(ns.cap, {stage for check in selected for stage in GRAPH_CHECKS[check][0]})
    cap = BLOCK_SUM_CAP if ns.cap is None else ns.cap  # every graph check's, on vertices
    if graph.n > cap:
        raise CapExceeded(f"{selected[0]} check over {graph.n} vertices exceeds cap {cap}")
    counts = {  # the checks against counts of the graph's own
        "rising-pairs": checks.verify_rising_orientation_pairs,
        "stable-counts": checks.verify_stable_count_expansion,
        "stanley": checks.verify_stanley_evaluation,
    }
    p = chromatic_setmap(graph)  # one table, built after the cap, for every check
    runs = []
    for check in selected:
        if check == "binomial":
            runs.append(("binomial-type", checks.check_binomial_type(p, cap)))
        elif check == "power":
            runs.append((f"power x0={x0} y0={y0}", checks.verify_power_identity(p, x0, y0, cap)))
        elif check in counts:
            runs.append((check, counts[check](graph, p, cap)))
        else:  # the expansion checks share one run
            runs += [(label, expansion_reconstructs(p, f, cap)) for label, f in bases[check]]
    return [(label, bool(ok)) for label, ok in runs]


def _block_check_list(ns: argparse.Namespace, blocks: BlockPartition) -> list[tuple[str, bool]]:
    """Run the selected check on ``blocks``, already restricted to the subset."""
    from .abel import component_counts, verify_closed_form_partition_sum, verify_tail_forests

    kwargs = {} if ns.cap is None else {"cap": ns.cap}
    if ns.check != "closed-form":  # usage errors come before the warning and the caps
        component_counts(blocks.block_count, ns.k)
    _warn_cap(ns.cap, BLOCK_CHECKS[ns.check][0])
    if ns.check == "tail-forests":
        return [(f"tail-forests k={k}", ok) for k, ok in verify_tail_forests(blocks, ns.k, **kwargs).items()]
    # closed-form reads no --k: every coefficient; forest-count one k, or every k and the constant term
    return [(ns.check, verify_closed_form_partition_sum(blocks, ns.k, **kwargs))]


def _refuse_unread(ns: argparse.Namespace, what: str, entries, needed) -> None:
    """A usage error for a flag that none of the table ``entries`` reads, then
    for a missing flag of ``needed``, whose first is the input flag they read."""
    read = {needed[0], *(flag for _, flags in entries for flag in flags)}
    for flag in _NAMED_FLAGS:
        if getattr(ns, flag, None) is not None and flag not in read:
            raise ValueError(f"{what} does not read --{flag}")
    for flag in needed:
        if getattr(ns, flag) is None:
            raise ValueError(f"{what} needs --{flag}")


def _block_subset(ns: argparse.Namespace, blocks: BlockPartition) -> BlockPartition:
    return blocks if ns.subset is None else blocks.restrict(ns.subset)


def _block_input(ns: argparse.Namespace, blocks: BlockPartition) -> dict:
    """The blocks, and the subset when ``--subset`` selects some of them."""
    source: dict = {"blocks": list(blocks.sizes)}
    if ns.subset is not None:
        source["subset"] = ns.subset
    return source


def cmd_verify(ns: argparse.Namespace) -> tuple[dict, int]:
    what = f"check {ns.check!r}"
    if ns.check in GRAPH_CHECKS or (ns.check == "all" and ns.graph is not None):
        from .graphs import load_graph

        entries = GRAPH_CHECKS.values() if ns.check == "all" else (GRAPH_CHECKS[ns.check],)
        _refuse_unread(ns, what, entries, ("graph",))
        graph = load_graph(ns.graph)
        checks = _graph_check_list(ns, graph.restrict(_subset(ns, graph)))
        source: dict = _graph_input(ns, graph)
    elif ns.check in BLOCK_CHECKS:
        from .abel import BlockPartition  # here, so that graph checks do not load abel

        _refuse_unread(ns, what, (BLOCK_CHECKS[ns.check],), ("blocks",))
        blocks = BlockPartition(ns.blocks)
        checks = _block_check_list(ns, _block_subset(ns, blocks))
        source = _block_input(ns, blocks)
    else:
        raise ValueError(
            f"unknown check {ns.check!r}; expected one of {_CHECK_NAMES} (or 'all' with --graph)"
        )
    failed = sum(1 for _, ok in checks if not ok)
    payload = {
        "command": "verify",
        "input": {**source, "check": ns.check},
        "result": {"all_pass": failed == 0, "passed": len(checks) - failed, "failed": failed},
        "checks": [{"name": label, "pass": ok} for label, ok in checks],
    }
    return payload, 0 if failed == 0 else 1


def cmd_oracle(ns: argparse.Namespace) -> tuple[dict, int]:
    kwargs = {} if ns.cap is None else {"cap": ns.cap}
    name = ns.oracle
    stages, flags = ORACLES[name]
    needed = ("blocks" if name == "tail-forests" else "graph", *flags)
    _refuse_unread(ns, f"oracle {name!r}", (ORACLES[name],), needed)
    if name == "tail-forests":
        from .abel import BlockPartition, component_counts, count_tail_forests

        blocks = BlockPartition(ns.blocks)
        selected = _block_subset(ns, blocks)
        component_counts(selected.block_count, ns.k)
        run = partial(count_tail_forests, selected, ns.k, max_digits=_digit_limit(), **kwargs)
        source: dict = {**_block_input(ns, blocks), "k": ns.k}
    else:
        from . import oracles
        from .graphs import load_graph

        counts = {
            "colorings": oracles.count_proper_colorings,
            "acyclic": oracles.count_acyclic_orientations,
            "stable-partitions": oracles.count_stable_partitions,
            "unique-sink": oracles.count_acyclic_unique_sink,
            "sink-source": oracles.count_acyclic_sink_source,
        }
        graph = load_graph(ns.graph)
        subset = _subset(ns, graph)
        restricted = graph.restrict(subset)
        source = _graph_input(ns, graph)
        args = []
        for flag in flags:  # echoed in the graph file's terms, passed in the subgraph's
            value = getattr(ns, flag)
            if flag == "x":  # the color count
                if value.denominator != 1 or value < 0:
                    raise ValueError("color count must be a nonnegative integer")
                value = arg = int(value)
            elif value < 0 or not subset >> value & 1:  # a vertex, in the graph file's labels
                raise ValueError(f"--{flag} {value} is not a vertex of subset {subset}")
            else:  # the subgraph numbers the subset's vertices 0, 1, ... in order
                arg = (subset & ((1 << value) - 1)).bit_count()
            source[flag] = value
            args.append(arg)
        run = partial(counts[name], restricted, *args, **kwargs)
        # the count's own cap refuses first, as it did when the echo failed after the count:
        # the orientation counts cap edges, the partition counts vertices
        size, cap = (
            (restricted.edge_count, oracles.EDGE_ENUM_CAP)
            if stages == ("orientations",)
            else (restricted.n, oracles.BELL_ENUM_CAP)
        )
        if size <= (cap if ns.cap is None else ns.cap):
            _refuse_an_unprintable_subset(subset, graph.n)
    _warn_cap(ns.cap, stages)  # after the usage checks above
    count = run()
    return {
        "command": "oracle",
        "input": {**source, "oracle": name},
        "result": {"count": count},
        "checks": [],
    }, 0


def cmd_abel(ns: argparse.Namespace) -> tuple[dict, int]:
    from .abel import BlockPartition, abel_poly

    kwargs = {} if ns.cap is None else {"cap": ns.cap}
    blocks = BlockPartition(ns.blocks)
    selected = _block_subset(ns, blocks)  # a subset outside the blocks errs before the warning
    _warn_cap(ns.cap, ("abel",))
    poly = abel_poly(selected, max_digits=_digit_limit(), **kwargs)
    subset = blocks.full_mask if ns.subset is None else ns.subset
    return {
        "command": "abel",
        "input": {"blocks": list(blocks.sizes), "subset": subset},
        "result": _poly_result(poly),
        "checks": [],
    }, 0


COMMANDS = {"verify": cmd_verify, "oracle": cmd_oracle, "abel": cmd_abel}
