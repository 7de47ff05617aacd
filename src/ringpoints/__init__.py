"""Exact enumeration of integral point sets over the modular rings Z_n^m."""

__version__ = "0.1.0"

from .cliquegraph import CliqueResult, DistanceGraph, build_full, build_rooted, max_clique
from .errors import (
    DegenerateError,
    InvalidInputError,
    NotApplicableError,
    ResourceLimitError,
    RingpointsError,
    SearchTimeout,
)
from .geometry import (
    collinear_det,
    concyclic_det,
    delta,
    is_cocircular,
    is_collinear,
    is_concyclic,
    is_integral,
    is_integral_delta,
)
from .orderly import max_cardinality, max_cardinality_witness
from .reductions import I_of, conjectured_I2, ilig_set, lemma1_points, lemma2_points, verify_conjecture

__all__ = [
    "CliqueResult",
    "DegenerateError",
    "DistanceGraph",
    "I_of",
    "InvalidInputError",
    "NotApplicableError",
    "ResourceLimitError",
    "RingpointsError",
    "SearchTimeout",
    "build_full",
    "build_rooted",
    "collinear_det",
    "concyclic_det",
    "conjectured_I2",
    "delta",
    "ilig_set",
    "is_cocircular",
    "is_collinear",
    "is_concyclic",
    "is_integral",
    "is_integral_delta",
    "lemma1_points",
    "lemma2_points",
    "max_cardinality",
    "max_cardinality_witness",
    "max_clique",
    "verify_conjecture",
    "__version__",
]
