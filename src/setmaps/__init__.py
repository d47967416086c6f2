"""Exact set-map algebra and umbral expansions of the chromatic polynomial."""

from .abel import (
    BlockPartition,
    abel_general_setmap,
    abel_poly,
    abel_setmap,
    count_tail_forests,
    verify_closed_form_partition_sum,
    verify_forest_coefficients,
)
from .expansions import (
    Expansion,
    check_binomial_type,
    expand,
    expansion_reconstructs,
    verify_power_identity,
    verify_rising_orientation_pairs,
    verify_stable_count_expansion,
    verify_stanley_evaluation,
)
from .graphs import (
    Graph,
    GraphFormatError,
    chromatic_by_interpolation,
    chromatic_poly,
    chromatic_setmap,
    count_acyclic_orientations,
    count_acyclic_sink_source,
    count_acyclic_unique_sink,
    count_proper_colorings,
    count_stable_partitions,
    load_graph,
    parse_graph,
    subgraph_expansion,
)
from .ring import (
    MAX_GROUND_SIZE,
    PARTITION_CAP,
    CapExceeded,
    SetMap,
    bell_number,
    block_sums,
    compose,
    decompose,
    partitions_of,
    recover_sequence,
    sequence_product,
    subsets_of,
)
from .umbral import (
    AbelPolynomials,
    BinomialFamily,
    FallingFactorials,
    Functional,
    LogPolynomials,
    Monomials,
    Poly,
    RisingFactorials,
    family_from_string,
    interpolate,
    standard_families,
)

__version__ = "0.1.0"
