"""Exact-arithmetic classification of poset representation dimensions.

Decides finite type through the Tits form and critical-dimension dominance,
constructs the unique indecomposable of a finite-type root dimension by
derivation and integration, and verifies the classification claims at desk
scale with brute-force oracles over small prime fields.
"""

from .errors import (
    BudgetExceeded,
    ConstructionFailed,
    ContextMismatch,
    CycleDetected,
    DuplicateLabel,
    FieldMismatch,
    FieldTooRestrictive,
    InvariantViolated,
    NotFiniteType,
    NotMaximal,
    PosetRepError,
    UndecidableAtBudget,
    UnknownElement,
    ValidationError,
)
from .linalg import QQ, ExactMatrix, FieldSpec, GF, complete_to_full_rank
from .poset import (
    Antichain,
    CriticalEmbedding,
    Poset,
    build_poset,
    chain_cover,
    critical_posets,
    critical_subposet_embeddings,
    incomparables,
    induced_subposet,
    is_semidecomposable,
    lower_cone,
    maximal_elements,
    poset_K,
    primitive_poset,
    strict_lower_cone,
    width,
)
from .tits import (
    CriticalDimension,
    DimensionVector,
    critical_dimension_table,
    dominated_critical,
    finite_type_scan,
    group_dimension,
    is_finite_type,
    is_root,
    space_dimension,
    tits_value,
)
from .reps import (
    Decomposition,
    ElMorphism,
    MatrixRep,
    RepMorphism,
    SubspaceRep,
    antichain_unit_element,
    are_isomorphic,
    decompose,
    dimension_of,
    direct_sum,
    el_hom_basis,
    end_algebra,
    end_dimension,
    is_indecomposable,
    is_quite_sincere,
    lift,
    rep_decompose,
    rep_end_dimension,
    rep_hom_basis,
    rho,
    split_trivial_columns,
    special_E,
    special_E_pair,
    special_T,
    special_T0,
)
from .derivation import (
    DerivedPoset,
    ExceptionalSet,
    derive_poset,
    differentiate,
    dstar,
    exceptional_set,
    integrate,
    subordinate_dimensions,
)
from .classify import (
    Census,
    ClassificationReport,
    brute_force_indecomposables,
    construct_indecomposable,
    count_iso_classes,
    el_indecomposable_count,
    rep_iso_census,
    verify_main_theorem,
)

__version__ = "0.1.0"
