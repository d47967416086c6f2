"""The ``verify``, ``oracle`` and ``abel`` commands of the command line.

``cli`` parses every command and imports this module the first time it
dispatches one of these three, so that ``chromatic`` and ``expand`` never
compile the check suites.  Each command imports the engine modules it runs
when it runs (see ``cli`` for the load map) and reads the check and oracle
tables, the cost warning and the graph helpers from ``cli``.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import partial

from .cli import (
    BLOCK_CHECKS,
    GRAPH_CHECKS,
    ORACLES,
    _CHECK_NAMES,
    _graph_input,
    _load_graph,
    _poly_result,
    _subset,
    _warn_cap,
)
from .ring import CapExceeded

# the most digits an int may print, or 0, no limit, before Python 3.10.7
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)

# the annotations that name engine classes are never evaluated (PEP 563)


def _graph_check_list(ns: argparse.Namespace, graph: Graph) -> list[tuple[str, bool]]:
    """Run the selected checks on ``graph``, already restricted to the subset."""
    from .checks import (
        BINOMIAL_CHECK_CAP,
        EXPANSION_CHECK_CAP,
        ORIENTATION_TABLE_CAP,
        STABLE_COUNT_CAP,
        check_binomial_type,
        verify_power_identity,
        verify_rising_orientation_pairs,
        verify_stable_count_expansion,
        verify_stanley_evaluation,
    )
    from .expansions import expansion_reconstructs
    from .graphs import chromatic_setmap
    from .ring import BLOCK_SUM_CAP
    from .umbral import AbelPolynomials, FallingFactorials, family_from_string, standard_families

    selected = GRAPH_CHECKS if ns.check == "all" else (ns.check,)
    # usage errors come before caps: build the bases and read --x/--k first;
    # abel-one: chi_S = sum over sigma of x(x - len)^(len-1) * prod chi'_T(1)
    abel_a = AbelPolynomials(Fraction(0) if ns.x is None else ns.x)
    bases = {
        "abel-one": [("abel-one", AbelPolynomials(1))],
        "derivative": [(f"derivative a={abel_a.point}", abel_a)],
    }
    if "expansion" in selected:
        families = standard_families() if ns.basis is None else (family_from_string(ns.basis),)
        bases["expansion"] = [(f"expansion {f}", f) for f in families]
    if "evaluation" in selected:
        falling_a = FallingFactorials(Fraction(1) if ns.x is None else ns.x)
        bases["evaluation"] = [(f"evaluation a={falling_a.step}", falling_a)]
    x0, y0 = (Fraction(2) if ns.x is None else ns.x), (2 if ns.k is None else ns.k)
    if "power" in selected and y0 < 1:
        raise ValueError("the exponent must be a positive integer")
    _warn_cap(ns.cap, {stage for check in selected for stage in GRAPH_CHECKS[check]})
    # one row per graph check: its default cap, over the vertex count, and its
    # labelled runs on the shared table p
    rows = {
        "binomial": (BINOMIAL_CHECK_CAP, lambda p, cap: {"binomial-type": check_binomial_type(p, cap)}),
        "power": (
            BLOCK_SUM_CAP,
            lambda p, cap: {f"power x0={x0} y0={y0}": verify_power_identity(p, x0, y0, cap)},
        ),
    }
    for check, default, verify in (  # the checks against counts of the graph's own
        ("rising-pairs", ORIENTATION_TABLE_CAP, verify_rising_orientation_pairs),
        ("stable-counts", STABLE_COUNT_CAP, verify_stable_count_expansion),
        ("stanley", ORIENTATION_TABLE_CAP, verify_stanley_evaluation),
    ):
        rows[check] = (default, lambda p, cap, check=check, verify=verify: {check: verify(graph, p, cap)})
    for check, pairs in bases.items():  # the expansion checks share one run
        rows[check] = (
            # several bases are several kernel runs, under the expansion check's cap
            EXPANSION_CHECK_CAP if len(pairs) > 1 else BLOCK_SUM_CAP,
            lambda p, cap, pairs=pairs: {label: expansion_reconstructs(p, f, cap) for label, f in pairs},
        )
    runs = []
    for check in selected:
        default, run = rows[check]
        cap = default if ns.cap is None else ns.cap
        if graph.n > cap:
            raise CapExceeded(f"{check} check over {graph.n} vertices exceeds cap {cap}")
        runs.append((run, cap))
    # one table, built after every cap above, for every check
    p = chromatic_setmap(graph)
    return [(label, bool(ok)) for run, cap in runs for label, ok in run(p, cap).items()]


def _block_check_list(ns: argparse.Namespace, blocks: BlockPartition) -> list[tuple[str, bool]]:
    """Run the selected check on ``blocks``, already restricted to the subset."""
    from .abel import verify_closed_form_partition_sum, verify_forest_coefficients, verify_tail_forests

    kwargs = {} if ns.cap is None else {"cap": ns.cap}
    _warn_cap(ns.cap, BLOCK_CHECKS[ns.check])
    if ns.check == "closed-form":
        return [("closed-form", verify_closed_form_partition_sum(blocks, **kwargs))]
    if ns.check == "forest-count":
        return [("forest-count", verify_forest_coefficients(blocks, ns.k, **kwargs))]
    return [(f"tail-forests k={k}", ok) for k, ok in verify_tail_forests(blocks, ns.k, **kwargs).items()]


def _block_subset(ns: argparse.Namespace, blocks: BlockPartition) -> BlockPartition:
    return blocks if ns.subset is None else blocks.restrict(ns.subset)


def _block_input(ns: argparse.Namespace, blocks: BlockPartition) -> dict:
    """The blocks, and the subset when ``--subset`` selects some of them."""
    source: dict = {"blocks": list(blocks.sizes)}
    if ns.subset is not None:
        source["subset"] = ns.subset
    return source


def cmd_verify(ns: argparse.Namespace) -> tuple[dict, int]:
    if ns.check in GRAPH_CHECKS or (ns.check == "all" and ns.graph is not None):
        graph = _load_graph(ns)
        checks = _graph_check_list(ns, graph.restrict(_subset(ns, graph)))
        source: dict = _graph_input(ns, graph)
    elif ns.check in BLOCK_CHECKS:
        from .abel import BlockPartition  # here, so that graph checks do not load abel

        if ns.blocks is None:
            raise ValueError(f"check {ns.check!r} needs --blocks")
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
    if name == "tail-forests":
        from .abel import BlockPartition, count_tail_forests

        if ns.blocks is None:
            raise ValueError("oracle tail-forests needs --blocks")
        if ns.k is None:
            raise ValueError("oracle tail-forests needs --k")
        blocks = BlockPartition(ns.blocks)
        selected = _block_subset(ns, blocks)
        run = partial(count_tail_forests, selected, ns.k, max_digits=_digit_limit(), **kwargs)
        source: dict = {**_block_input(ns, blocks), "k": ns.k}
    else:
        from .oracles import (
            count_acyclic_orientations,
            count_acyclic_sink_source,
            count_acyclic_unique_sink,
            count_proper_colorings,
            count_stable_partitions,
        )

        graph = _load_graph(ns)
        restricted = graph.restrict(_subset(ns, graph))
        source = _graph_input(ns, graph)
        if name == "colorings":
            if ns.x is None:
                raise ValueError("oracle colorings needs --x")
            if ns.x.denominator != 1 or ns.x < 0:
                raise ValueError("color count must be a nonnegative integer")
            run = partial(count_proper_colorings, restricted, int(ns.x), **kwargs)
            source["x"] = int(ns.x)
        elif name == "acyclic":
            run = partial(count_acyclic_orientations, restricted, **kwargs)
        elif name == "stable-partitions":
            run = partial(count_stable_partitions, restricted, **kwargs)
        elif name == "unique-sink":
            if ns.sink is None:
                raise ValueError("oracle unique-sink needs --sink")
            run = partial(count_acyclic_unique_sink, restricted, ns.sink, **kwargs)
            source["sink"] = ns.sink
        else:  # sink-source; the parser admits no other name
            if ns.source is None or ns.sink is None:
                raise ValueError("oracle sink-source needs --source and --sink")
            run = partial(count_acyclic_sink_source, restricted, ns.source, ns.sink, **kwargs)
            source.update(source=ns.source, sink=ns.sink)
    _warn_cap(ns.cap, ORACLES[name])  # after the usage checks above
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
    poly = abel_poly(selected, selected.full_mask, max_digits=_digit_limit(), **kwargs)
    subset = blocks.full_mask if ns.subset is None else ns.subset
    return {
        "command": "abel",
        "input": {"blocks": list(blocks.sizes), "subset": subset},
        "result": _poly_result(poly),
        "checks": [],
    }, 0


COMMANDS = {"verify": cmd_verify, "oracle": cmd_oracle, "abel": cmd_abel}
