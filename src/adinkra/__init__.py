"""Adinkra graphs: construction, verification, reduction, and codecs.

The package builds chromotopologies (hypercubes quotiented by doubly
even binary codes), checks the algebras their dashings and heights
encode, reduces them to minimal determining baobabs, reconstructs them
by explicit constraint propagation, and uses the redundancy as a
forward-error-correcting block code.

Importing the package loads no submodule: each exported name imports
its submodule on first access (PEP 562), so a command-line call pays
only for the modules it runs.
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "codes": """AffineCode DoublyEvenCode LinearBinaryCode bit_string
        canonical_representative color_bit gf2_rref is_doubly_even
        parse_bit_string weight""",
    "errors": """AdinkraError AmbiguousCorrectionError ContradictionError
        GradedSumError InputError InsufficientPinningError ReplayError
        SizeGuardError UncorrectableError UnderDeterminedError""",
    "graph": """Adinkra Edge Plaquette VerificationReport boson_nodes
        build_chromotopology build_quotient_skeleton edge_between
        fermion_nodes from_json is_boson neighbor normalize_heights
        plaquette_count plaquettes to_json valise_heights verify_heights
        verify_odd_dashing weight_heights""",
    "algebra": """DT GammaSet I_UNIT MINUS_ONE Monomial MonomialMatrix ONE
        ZERO adinkra_to_gamma anticommutator canonical_quaternion_matrices
        check_block_transpose check_garden check_quaternion mat_add mat_mul
        mat_neg strip_derivatives""",
    "baobab": """Baobab GateStep GateTrace choose_pinned_arrows
        count_valid_dashings dashing_dof directed_dof_bounds dxor
        extract_baobab ndxor reconstruct_adinkra reconstruct_dashing
        reconstruct_directions skeleton_baobab_edges skeleton_tree""",
    "quaternion": "quaternion_baobab_completions",
    "codec": """Correction DecodeResult EdgeBitVector Family
        QUATERNION_FAMILY Syndrome correct decode encode family_code
        fill_erasures format_wire inject_errors message_length
        min_distance parse_family parse_wire syndrome""",
}

# exported name -> the submodule that defines it; each submodule is
# exported too, as its own source
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in (module, *names.split())}

__version__ = "0.1.0"

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
