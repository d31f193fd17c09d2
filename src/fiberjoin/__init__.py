"""Exact invariants and canonical-metric classification for Sasaki fiber joins.

A fiber join is the unit sphere bundle in a sum of line bundles over
a product base, described here by the matrix of classifying classes.
The package computes its characteristic numbers and cohomology
exactly, solves the extremal and constant-scalar-curvature profile
equations over the rationals, runs the Sasaki-Einstein obstruction
chain, and aggregates everything into classification verdicts.
"""

from .admissible import (
    AdmissibleData,
    AdmissibleEntry,
    CscResult,
    ExtremalProfile,
    admissible_data,
    extremal_profile,
    genus_threshold,
    solve_csc,
)
from .classify import (
    InvariantReport,
    SurveyReport,
    Verdict,
    classify,
    emit,
    invariant_report,
    parse_spec,
    parse_survey,
    spec_report,
    survey,
    survey_chunks,
)
from .einstein import SEVerdict, fano_index, se_check
from .exactalg import (
    Polynomial,
    count_roots_in_open_interval,
    solve_linear,
    strictly_positive_on,
)
from .model import (
    BaseFactor,
    BaseProduct,
    FiberJoinSpec,
    RegularJoinData,
    is_colinear,
    make_spec,
    regular_join_data,
    validate,
)
from .topology import (
    CohomologyTable,
    HomeoKey,
    c1_contact,
    cohomology_table,
    euler_class,
    homeo_key,
    p1,
    spin_status,
)

__version__ = "0.1.0"
