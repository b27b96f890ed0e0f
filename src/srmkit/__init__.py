"""srmkit: citation-based research performance measures.

Citation records are nonincreasing step curves; an index is the
greatest level q whose reference performance curve f_q the record
dominates.  The package covers the classical index catalog (c_max,
pubs, h, h2, h_alpha, w, h_r) plus a cohort-calibrated power-law index,
a dual evaluation through journal-weight densities, and a batch CLI.
"""

from .calibration import (
    MATH_FINANCE_SENIOR_BETA,
    CohortProfile,
    calibrate_cohort,
    fit_author,
    phi_index,
)
from .cohort import (
    Cohort,
    IndexTable,
    classify_merit,
    compute_table,
    export,
    ingest,
    rank_authors,
)
from .curves import (
    ALL_POSITIVE_RANKS,
    AUTHOR_SUPPORT_ONLY,
    CitationCurve,
    LevelRule,
    PerformanceFamily,
    SrmValue,
    append_publication,
    construct_curve,
    evaluate_family,
    mix,
    power_family,
    rectangle_family,
    shift_citations,
    staircase_family,
    support_bound,
)
from .duality import (
    DualDensity,
    GammaTable,
    ReferenceMeasure,
    constructed_minimizer,
    dual_value,
    expected_value,
    gamma,
    h_plus,
    robust_dual_srm,
    weak_duality_margin,
)
from .engine import (
    IndexSpec,
    dominates,
    family_for,
    level_ceiling,
    parse_index,
    srm_closed_form,
    srm_generic,
)
from .errors import (
    InsufficientDataError,
    SrmError,
    TableEntryError,
    UnknownIndexError,
    UnsupportedOperationError,
    ValidationError,
)

__version__ = "0.1.0"
