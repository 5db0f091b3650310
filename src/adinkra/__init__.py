"""Adinkra graphs: construction, verification, reduction, and codecs.

The package builds chromotopologies (hypercubes quotiented by doubly
even binary codes), checks the algebras their dashings and heights
encode, reduces them to minimal determining baobabs, reconstructs them
by explicit constraint propagation, and uses the redundancy as a
forward-error-correcting block code.
"""

from .codes import (
    AffineCode,
    DoublyEvenCode,
    LinearBinaryCode,
    bit_string,
    canonical_representative,
    color_bit,
    gf2_rref,
    gf2_span,
    is_doubly_even,
    parse_bit_string,
    weight,
)
from .errors import (
    AdinkraError,
    AmbiguousCorrectionError,
    ContradictionError,
    GradedSumError,
    InputError,
    InsufficientPinningError,
    ReplayError,
    SizeGuardError,
    UncorrectableError,
    UnderDeterminedError,
)
from .graph import (
    Adinkra,
    Edge,
    Plaquette,
    VerificationReport,
    boson_nodes,
    build_chromotopology,
    build_quotient_skeleton,
    edge_between,
    fermion_nodes,
    from_json,
    is_boson,
    neighbor,
    normalize_heights,
    plaquette_count,
    plaquette_masks,
    plaquettes,
    to_json,
    valise_heights,
    verify_heights,
    verify_odd_dashing,
    weight_heights,
)
from .algebra import (
    DT,
    GammaSet,
    I_UNIT,
    MINUS_ONE,
    Monomial,
    MonomialMatrix,
    ONE,
    ZERO,
    adinkra_to_gamma,
    anticommutator,
    canonical_quaternion_matrices,
    check_block_transpose,
    check_garden,
    check_quaternion,
    mat_add,
    mat_mul,
    mat_neg,
    strip_derivatives,
)
from .baobab import (
    Baobab,
    GateStep,
    GateTrace,
    choose_pinned_arrows,
    count_valid_dashings,
    dashing_dof,
    directed_dof_bounds,
    dxor,
    extract_baobab,
    ndxor,
    quaternion_baobab_completions,
    reconstruct_adinkra,
    reconstruct_dashing,
    reconstruct_directions,
    skeleton_baobab_edges,
    skeleton_tree,
)
from .codec import (
    Correction,
    DecodeResult,
    EdgeBitVector,
    Family,
    QUATERNION_FAMILY,
    Syndrome,
    correct,
    decode,
    encode,
    family_code,
    fill_erasures,
    format_wire,
    inject_errors,
    message_length,
    min_distance,
    parse_family,
    parse_wire,
    syndrome,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
