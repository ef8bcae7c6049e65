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

Importing the package imports none of its modules: a public name loads
its home module on first access (PEP 562), so each CLI subcommand
compiles only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by its home module.
_EXPORTS = {
    "bound": "INF BoundReport ExpanderInstance check_instance corollary_bound "
             "image lucas_nonvanishing parse_characteristic theorem_bound",
    "certificate": "Certificate RefutationReport binomial_in_field build_certificate "
                   "elementary_symmetric lambda_coefficients refute_cover "
                   "solve_alpha solve_beta verify_alpha verify_beta",
    "errors": "BudgetExceededError EmptySetError FieldMismatchError "
              "InadmissibleKError InternalInvariantError InvalidParametersError "
              "NotDivisorError NotIrreducibleError NotPrimeError "
              "NotProperDivisorError ParseError TargetDegreeTooLargeError "
              "ValidationError ZeroPolynomialError",
    "explore": "ExperimentRecord Ranked nearest_subfield_distance "
               "records_to_csv records_to_json search_extremal subfield_experiment",
    "field": "Field FieldElem canonical_sort extension_field parse_field prime_field",
    "poly": "Poly parse_poly",
    "rng": "Xoshiro256StarStar",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    """Import a public name's home module on first access, and keep the
    name in this module so later lookups skip this hook."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
