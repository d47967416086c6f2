"""Exact set-map algebra and umbral expansions of the chromatic polynomial.

The package is lazy (PEP 562): ``import setmaps`` loads no submodule.  A
public name, or a submodule such as ``setmaps.graphs``, loads its
submodule on first access, so a process pays only for the modules it
uses; ``python -m setmaps`` loads the ones its command needs (see ``cli``).
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    **dict.fromkeys(
        (
            "BlockPartition",
            "abel_general_setmap",
            "abel_poly",
            "abel_setmap",
            "count_tail_forests",
            "verify_closed_form_partition_sum",
            "verify_tail_forests",
        ),
        "abel",
    ),
    **dict.fromkeys(("compose", "decompose", "recover_sequence"), "algebra"),
    **dict.fromkeys(
        (
            "check_binomial_type",
            "verify_power_identity",
            "verify_rising_orientation_pairs",
            "verify_stable_count_expansion",
            "verify_stanley_evaluation",
        ),
        "checks",
    ),
    **dict.fromkeys(("Expansion", "expand", "expansion_reconstructs"), "expansions"),
    "full_block_sums": "kernel",
    **dict.fromkeys(
        (
            "Graph",
            "GraphFormatError",
            "chromatic_poly",
            "chromatic_setmap",
            "load_graph",
            "parse_graph",
        ),
        "graphs",
    ),
    **dict.fromkeys(
        (
            "chromatic_by_interpolation",
            "count_acyclic_orientations",
            "count_acyclic_sink_source",
            "count_acyclic_unique_sink",
            "count_proper_colorings",
            "count_stable_partitions",
            "deletion_contraction",
            "subgraph_expansion",
        ),
        "oracles",
    ),
    **dict.fromkeys(("Poly", "interpolate"), "poly"),
    **dict.fromkeys(
        (
            "MAX_GROUND_SIZE",
            "CapExceeded",
            "SetMap",
            "bell_number",
            "partitions_of",
            "sequence_product",
            "subsets_of",
        ),
        "ring",
    ),
    **dict.fromkeys(
        (
            "AbelPolynomials",
            "BinomialFamily",
            "FallingFactorials",
            "Functional",
            "LogPolynomials",
            "Monomials",
            "RisingFactorials",
            "family_from_string",
            "standard_families",
        ),
        "umbral",
    ),
}
_SUBMODULES = {*_SOURCES.values(), "cli", "cli_checks"}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    if name in _SOURCES or name in _SUBMODULES:
        # importlib itself is loaded only here, on the first lazy access
        import importlib

        module = importlib.import_module(f".{_SOURCES.get(name, name)}", __name__)
        return module if name in _SUBMODULES else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
