"""srmkit: citation-based research performance measures.

Citation records are nonincreasing step curves; an index is the
greatest level q whose reference performance curve f_q the record
dominates.  The package covers the classical index catalog (c_max,
pubs, h, h2, h_alpha, w, h_r) plus a cohort-calibrated power-law index,
a dual evaluation through journal-weight densities, and a batch CLI.

``import srmkit`` loads no submodule and no numpy: a module is imported
the first time one of its names is read from the package (PEP 562), so
a process compiles and runs only the modules it uses.
"""

from importlib import import_module as _import_module

#: Each public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("MATH_FINANCE_SENIOR_BETA", "CohortProfile", "calibrate_cohort", "fit_author",
         "phi_index"),
        "calibration"),
    **dict.fromkeys(
        ("Cohort", "IndexTable", "classify_merit", "compute_table", "export", "ingest",
         "rank_authors"),
        "cohort"),
    **dict.fromkeys(
        ("ALL_POSITIVE_RANKS", "AUTHOR_SUPPORT_ONLY", "CitationCurve", "LevelRule",
         "PerformanceFamily", "SrmValue", "append_publication", "construct_curve",
         "evaluate_family", "mix", "power_family", "rectangle_family", "shift_citations",
         "staircase_family", "support_bound"),
        "curves"),
    **dict.fromkeys(
        ("DualDensity", "GammaTable", "ReferenceMeasure", "constructed_minimizer",
         "dual_value", "expected_value", "gamma", "h_plus", "robust_dual_srm",
         "weak_duality_margin"),
        "duality"),
    **dict.fromkeys(
        ("IndexSpec", "dominates", "family_for", "level_ceiling", "parse_index",
         "srm_closed_form", "srm_generic"),
        "engine"),
    **dict.fromkeys(
        ("InsufficientDataError", "SrmError", "TableEntryError", "UnknownIndexError",
         "UnsupportedOperationError", "ValidationError"),
        "errors"),
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later reads find it without calling here
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
