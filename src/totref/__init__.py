"""totref: exact certification of totally reflexive module witnesses.

Builds Stanley-Reisner rings of graphs and their Artinian reductions, runs
the necessary-condition battery (socle/type dimensions, quadratic
presentations, Weak Lefschetz), searches and certifies exact zero divisors,
verifies windows of totally acyclic complexes together with their duals,
lifts them along regular linear forms, and drives the explicit 2x2 block
recursion over the ten-vertex special ring.  All arithmetic is exact.
"""

from .algebra import (
    AlgebraElement,
    AlgebraError,
    GradedAlgebra,
    QuotientMap,
    ReductionChain,
    algebra_from_relations,
    artinian_reduction,
    chain_from_descriptor,
    quotient_by_linear,
    reduction_chain,
    stanley_reisner,
)
from .analysis import (
    EzdPair,
    KernelSystem,
    RingConditionReport,
    find_ezd,
    ideal_pair_analysis,
    kernel_system,
    socle,
    verify_ezd,
    wlp_check,
    wlp_generic,
    necessary_ring_conditions,
)
from .complexes import (
    ComplexError,
    ExactnessReport,
    FreeComplexWindow,
    Periodicity,
    WindowCertificate,
    ezd_complex,
    fitting_support,
    full_certification,
    indecomposability_certificate,
    linear_matrix,
)
from .factory import (
    FactoryError,
    PairBlock,
    SpecialRing,
    build_special_ring,
    build_window,
    canonical_blocks,
    canonical_window,
    distinct_modules,
    extend_backward,
    extend_forward,
    random_blocks,
    ten_vertex_graph,
)
from .fields import DEFAULT_PRIME, PrimeField, RationalField
from .graphs import (
    ConditionReport,
    Graph,
    GraphError,
    build_order,
    disconnecting_pair,
    is_valid_build_order,
    load_graph,
    necessary_conditions,
    parse_graph,
)
from .lifting import (
    LiftError,
    LiftStep,
    assemble_epsilon,
    certify_regular,
    correction_matrix,
    lift_complex,
    lift_matrix,
    lift_through_sequence,
)
from .linalg import Subspace

__version__ = "0.1.0"
