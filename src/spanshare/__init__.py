"""Quantum secret sharing schemes from normal-form monotone span programs.

Build an access structure, realize it as a span program, read share
entropies off matrix ranks, and cross-check everything against a dense
state-vector simulation.
"""

from .access import (
    AccessStructure,
    StructureClassification,
    classify,
    dual,
    enumerate_structures,
    from_minimal_sets,
    is_authorized,
    maximal_unauthorized,
    purify,
    structure_from_json,
    structure_to_json,
    subsets_in_order,
)
from .entropy import (
    EntropyProfile,
    EntropyReport,
    SchemeRealization,
    SecretSpec,
    all_subset_entropies,
    chain_profile,
    extremal_check,
    realize,
    subset_entropy,
    subset_report,
    verify_monotonicity,
)
from .fields import FieldMatrix, PrimeField, kernel_basis, rank, solve_combination
from .msp import (
    MonotoneSpanProgram,
    NormalFormLayout,
    accepts,
    build_normal_form,
    computes,
    dispensable_rows,
    encoding_image,
    msp_to_text,
    rank_bookkeeping,
    rejection_witness,
    row_independence_case,
    structural_check,
    to_css,
)
from .oracle import (
    PureState,
    compare_with_formula,
    encode_secret,
    oracle_subset_entropy,
    reduced_entropy,
    verify_secrecy_recoverability,
)

__version__ = "0.1.0"
