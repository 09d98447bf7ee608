"""Quantum sl(2|1) instantiation at odd roots of unity."""

from .reps import (
    WeightModuleRep,
    build_Ak,
    check_relations,
    select_convention,
    tensor_rep,
    trivial_rep,
)
from .characters import (
    CharacterExpr,
    WeightLabel,
    XYLaurent,
    character_of_label,
    character_of_rep,
    closed_form_Ak,
    decompose_typical,
    DecompositionError,
    ParameterError,
    fuse_A,
    standard_module_character,
    typical_character,
)
from .datum_gen import emit_datum, rank_bound_analysis

__all__ = [
    "CharacterExpr",
    "DecompositionError",
    "ParameterError",
    "WeightLabel",
    "WeightModuleRep",
    "XYLaurent",
    "build_Ak",
    "character_of_label",
    "character_of_rep",
    "check_relations",
    "closed_form_Ak",
    "decompose_typical",
    "emit_datum",
    "fuse_A",
    "rank_bound_analysis",
    "select_convention",
    "standard_module_character",
    "tensor_rep",
    "trivial_rep",
    "typical_character",
]
