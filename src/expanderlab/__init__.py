"""Exact-arithmetic toolkit for image-set lower bounds over finite fields.

The image set of a pair (A, B) under two polynomials g, h is
{g(x) + y*h(x) : x in A, y in B}.  This package computes a proved lower
bound on its size, replays the underlying algebraic identity as a
checkable certificate, and runs brute-force experiments probing how sharp
the bound is, in particular when B is a subfield plus one point.

Everything is exact: a field element is its index in one canonical order
of the field (its base-p digits are its coefficients over F_p), no
floats enter any computation, and all sampling flows through one seeded
generator so every run is reproducible bit for bit.
"""

from .bound import (
    INF,
    BoundReport,
    ExpanderInstance,
    check_instance,
    corollary_bound,
    image,
    lucas_nonvanishing,
    parse_characteristic,
    theorem_bound,
)
from .certificate import (
    Certificate,
    RefutationReport,
    binomial_in_field,
    build_certificate,
    elementary_symmetric,
    lambda_coefficients,
    refute_cover,
    solve_alpha,
    solve_beta,
    verify_alpha,
    verify_beta,
)
from .errors import (
    BudgetExceededError,
    EmptySetError,
    FieldMismatchError,
    InadmissibleKError,
    InternalInvariantError,
    InvalidParametersError,
    NotDivisorError,
    NotIrreducibleError,
    NotPrimeError,
    NotProperDivisorError,
    ParseError,
    TargetDegreeTooLargeError,
    ValidationError,
    ZeroPolynomialError,
)
from .explore import (
    ExperimentRecord,
    SearchConfig,
    nearest_subfield_distance,
    records_to_csv,
    records_to_json,
    search_extremal,
    subfield_experiment,
)
from .field import (
    Field,
    FieldElem,
    canonical_sort,
    extension_field,
    parse_field,
    prime_field,
)
from .poly import Poly, parse_poly
from .rng import Xoshiro256StarStar

__version__ = "0.1.0"

__all__ = [
    "INF",
    "BoundReport",
    "BudgetExceededError",
    "Certificate",
    "EmptySetError",
    "ExpanderInstance",
    "ExperimentRecord",
    "Field",
    "FieldElem",
    "FieldMismatchError",
    "InadmissibleKError",
    "InternalInvariantError",
    "InvalidParametersError",
    "NotDivisorError",
    "NotIrreducibleError",
    "NotPrimeError",
    "NotProperDivisorError",
    "ParseError",
    "Poly",
    "RefutationReport",
    "SearchConfig",
    "TargetDegreeTooLargeError",
    "ValidationError",
    "Xoshiro256StarStar",
    "ZeroPolynomialError",
    "binomial_in_field",
    "build_certificate",
    "canonical_sort",
    "check_instance",
    "corollary_bound",
    "elementary_symmetric",
    "extension_field",
    "image",
    "lambda_coefficients",
    "lucas_nonvanishing",
    "nearest_subfield_distance",
    "parse_characteristic",
    "parse_field",
    "parse_poly",
    "prime_field",
    "records_to_csv",
    "records_to_json",
    "refute_cover",
    "search_extremal",
    "solve_alpha",
    "solve_beta",
    "subfield_experiment",
    "theorem_bound",
    "verify_alpha",
    "verify_beta",
    "__version__",
]
