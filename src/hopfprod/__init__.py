"""Exact structure-constant engine for twisted products of Hopf algebras.

The package builds, verifies, factorizes and classifies products A (x) H of
a bialgebra A with a coalgebra H carrying two actions and a cocycle, over
the rationals or a prime field, with zero-tolerance exact arithmetic.
"""
from .classification import (
    CapExceededError,
    ContextError,
    EquivalenceCertificate,
    EquivalenceResult,
    LazyCocycle,
    NotALazyCocycleError,
    NotGroupLikeError,
    check_equivalence,
    cocycle_convolve,
    cocycle_inverse,
    enumerate_cocycles,
    is_lazy_cocycle,
    quotient_classes,
    trivial_lazy_cocycle,
)
from .factorization import (
    FactorizationInput,
    FactorizationInputError,
    NotAFactorizationError,
    mult_map,
    recover_datum,
    transfer_structure,
)
from .fields import QQ, FieldMismatchError, PrimeField, Rationals
from .groups import (
    GroupExtendingStructure,
    GroupTable,
    builtin_group,
    check_group_structure,
    coset_extending_structure,
    group_algebra,
    grouplike_coalgebra,
    lift_to_hopf,
)
from .linalg import (
    BasedSpace,
    DimensionError,
    LinMap,
    NotInvertibleError,
    compose,
    invert,
    tensor_space,
)
from .reports import CheckItem, Report
from .serialize import MalformedDocumentError, load, parse, serialize
from .special import (
    CrossedDatum,
    MatchedPair,
    build_bicrossed,
    build_crossed,
    check_bicrossed_equivalence,
    check_crossed,
    check_matched_pair,
    crossed_datum,
    deform_matched_pair,
    matched_pair_datum,
    trivial_matched_pair,
)
from .structures import (
    FDAlgebra,
    FDBialgebra,
    FDCoalgebra,
    FDHopf,
    NoAntipodeError,
    UnitalCoalgebra,
    antipode_solve,
    attach_antipode,
    check_bialgebra,
    check_coalgebra,
    convolution,
    convolution_unit,
    is_algebra_map,
    is_coalgebra_map,
    tensor_coalgebra,
)
from .unified import (
    CONDITION_NAMES,
    DatumConditionError,
    ExtendingDatum,
    UnifiedProduct,
    assemble_product,
    build_unified_product,
    check_product_conditions,
    solve_product_antipode,
    validate_datum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
