"""Finite windows of topological-semigroup embedding arguments.

The package materializes finite semigroups as dense multiplication tables,
drives lazily evaluated self-maps of an initial segment of the naturals, and
replays neighborhood-forcing arguments that obstruct topologies in which a
designated congruence would give an open-class basis.
"""

from .core import (
    RIGHT,
    TWO_SIDED,
    Congruence,
    FinSemigroup,
    InverseStructure,
    NotInverse,
    adjoin_identity,
    adjoin_zero,
    canonical_classes,
    check_associativity,
    classify_vp_quotient,
    congruence_closure,
    congruence_join,
    congruence_meet,
    diagonal,
    enumerate_congruences,
    idempotents,
    inverse_structure,
    is_clifford,
    is_commutative,
    is_semilattice,
    is_vagner_preston,
    maximal_subgroup,
    natural_order,
    parse_semigroup,
    quotient,
    semigroup_doc,
    subsemigroup,
    universal,
)
from .embed import (
    RepresentationMap,
    adjoin_embed,
    cayley_right_regular,
    clifford_decompose,
    clifford_product_embed,
    embcl_map,
    embcl_rep,
    group_restriction,
    preserves_inversion,
    product_embed,
    semil_iso,
    separating_opens,
    shared_image_laws,
    transformation_group,
    verify_embedding,
    wagner_preston,
)
from .errors import (
    DomainError,
    EvaluationError,
    KindError,
    LoadError,
    MalformedTableError,
    SemitopError,
    SizeError,
    TheoremViolationError,
)
from .obstruct import (
    CatalogInstance,
    EscapeTarget,
    NoObstruction,
    ObstructionCertificate,
    catalog,
    certificate_doc,
    certificate_from_doc,
    chain_finite_check,
    escape_certificate,
    forcing_closure,
    get_instance,
    instance_doc,
    right_simple_check,
    verify_certificate,
)
from .semigroups import (
    FinProduct,
    brandt_semigroup,
    chain_semilattice,
    cyclic_group,
    embedding_catalog,
    full_transformation_monoid,
    symmetric_group,
    symmetric_inverse_monoid,
)
from .topo import (
    TopSemigroup,
    TopSpec,
    TruncatedPresentation,
    congruence_basis_check,
    continuity_check,
    ditopological_check,
    inversion_continuity_check,
    presentation_doc,
    presentation_from_doc,
    scattered_height,
    u2_check,
    u_check,
    weakly_ditopological_check,
)
from .transforms import (
    BasicOpen,
    PartialPerm,
    Transformation,
    agree_on_window,
    compose,
    invert,
    lazy_to_doc,
)

__version__ = "0.1.0"
