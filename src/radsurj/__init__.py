"""Exact certification of surjectivity for radical curve parametrizations.

The package decides, with exact rational arithmetic, whether a curve
parametrized by nested radicals of rational functions reaches every
point of its curve; when it cannot certify that, it computes candidate
missing points, bounds on how many there can be, and a numeric
plausibility report for each candidate.
"""

from .arith import MultiPoly, Role, VarTable, WeightVector, weighted_degree
from .errors import (
    DomainError,
    InputError,
    NumericError,
    ParseError,
    RadsurjError,
    ResourceError,
    StructuralError,
)
from .ideal import buchberger, common_zeros, elimination_ideal
from .missing import (
    MissingPointReport,
    candidate_polys,
    implicitize,
    infinity_bound,
    missing_candidates,
)
from .parser import parse, parse_poly, parse_source
from .sampler import confirm_candidates, enumerate_branches, sample_images
from .surjcheck import (
    RadicalParametrization,
    SurjectivityReport,
    check_surjective,
    condition2_locus,
    normalize_param,
)
from .tower import (
    RadicalLevel,
    RadicalTower,
    is_guilty,
    is_suspicious,
    normal_form,
    normalized_remainder,
)

__version__ = "0.1.0"

__all__ = [
    "MultiPoly",
    "Role",
    "VarTable",
    "WeightVector",
    "weighted_degree",
    "RadsurjError",
    "StructuralError",
    "DomainError",
    "InputError",
    "ParseError",
    "ResourceError",
    "NumericError",
    "buchberger",
    "common_zeros",
    "elimination_ideal",
    "MissingPointReport",
    "candidate_polys",
    "implicitize",
    "infinity_bound",
    "missing_candidates",
    "parse",
    "parse_poly",
    "parse_source",
    "confirm_candidates",
    "enumerate_branches",
    "sample_images",
    "RadicalParametrization",
    "SurjectivityReport",
    "check_surjective",
    "condition2_locus",
    "normalize_param",
    "RadicalLevel",
    "RadicalTower",
    "is_guilty",
    "is_suspicious",
    "normal_form",
    "normalized_remainder",
    "__version__",
]
