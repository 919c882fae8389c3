"""Graph algebra for synchronising processes.

The package models processes as edge-labelled acyclic directed multigraphs
and provides the operations to compose and decompose them:

- :mod:`vrsp.graph` — the data model plus structural queries (validation,
  levels, sources, label sets, subgraphs, weak components);
- :mod:`vrsp.quotient` — vertex-set contraction and family contraction;
- :mod:`vrsp.products` — the Cartesian product, the intermediate product
  with synchronising diagonals, and the vertex-removing synchronised
  product;
- :mod:`vrsp.isomorphism` — label-preserving multigraph isomorphism, with a
  brute-force oracle for small instances;
- :mod:`vrsp.decomposition` — verification of Cartesian decomposition
  hypotheses and a search over the label bipartitions that keep each
  square-property label class on one side;
- :mod:`vrsp.serialization` / :mod:`vrsp.cli` — JSON and DOT formats and the
  ``vrsp`` command-line tool;
- :mod:`vrsp.fixtures` — small bundled example graphs.
"""

from .decomposition import (
    Decomposition,
    DecompositionReport,
    find_decompositions,
    label_classes,
    layers_from_label_split,
    prime_factors,
    verify_decomposition,
)
from .errors import (
    CycleCreatedError,
    DegenerateSplitError,
    EmptyFactorError,
    GraphError,
    GraphFormatError,
    InvalidGraphError,
    LabelBudgetError,
    NotConnectedError,
    SizeLimitError,
    UnknownVertexError,
)
from .graph import (
    Arc,
    Diagnostic,
    Graph,
    LabelPair,
    build_graph,
    induced_subgraph,
    is_weakly_connected,
    label_set,
    level,
    levels,
    sources,
    spanning_subgraph_by_labels,
    validate,
    weak_components,
)
from .isomorphism import brute_force_isomorphic, find_isomorphism, is_isomorphism
from .products import arc_class, cartesian, intermediate, pair_vertex, synchronising_labels, vrsp
from .quotient import VertexFamily, contract, contract_family
from .serialization import emit_dot, emit_family, emit_graph, parse_family, parse_graph

__all__ = [
    "Arc",
    "CycleCreatedError",
    "Decomposition",
    "DecompositionReport",
    "DegenerateSplitError",
    "Diagnostic",
    "EmptyFactorError",
    "Graph",
    "GraphError",
    "GraphFormatError",
    "InvalidGraphError",
    "LabelBudgetError",
    "LabelPair",
    "NotConnectedError",
    "SizeLimitError",
    "UnknownVertexError",
    "VertexFamily",
    "arc_class",
    "brute_force_isomorphic",
    "build_graph",
    "cartesian",
    "contract",
    "contract_family",
    "emit_dot",
    "emit_family",
    "emit_graph",
    "find_decompositions",
    "find_isomorphism",
    "induced_subgraph",
    "intermediate",
    "is_isomorphism",
    "is_weakly_connected",
    "label_classes",
    "label_set",
    "layers_from_label_split",
    "level",
    "levels",
    "pair_vertex",
    "parse_family",
    "parse_graph",
    "prime_factors",
    "sources",
    "spanning_subgraph_by_labels",
    "synchronising_labels",
    "validate",
    "verify_decomposition",
    "vrsp",
    "weak_components",
]

__version__ = "0.1.0"
