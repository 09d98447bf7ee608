"""relmod: exact verification toolkit for graded ribbon-category data."""

from .scalars import CycScalar, InexactDivision, parse_scalar, quantum_integer
from .matrices import ExactMatrix
from .datum import (
    Degree,
    ModularDatum,
    load_datum,
    modified_S,
    save_datum,
)
from .checks import (
    check_all,
    check_dmug,
    check_nondegeneracy,
    check_premodular_inputs,
    check_rank_constancy,
    check_relative_modularity,
    delta_minus,
    delta_plus,
)
from .verdicts import Verdict

__all__ = [
    "CycScalar",
    "Degree",
    "ExactMatrix",
    "InexactDivision",
    "ModularDatum",
    "Verdict",
    "check_all",
    "check_dmug",
    "check_nondegeneracy",
    "check_premodular_inputs",
    "check_rank_constancy",
    "check_relative_modularity",
    "delta_minus",
    "delta_plus",
    "load_datum",
    "modified_S",
    "parse_scalar",
    "quantum_integer",
    "save_datum",
]
