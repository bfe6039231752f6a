"""Exact monotonicity analysis of second-order linear recurrences.

Everything runs on exact rational and quadratic-field arithmetic: term
generation, closed forms, three monotonicity decision procedures with
certifying branches, brute-force oracle windows that cross-check every
verdict, membership regions in the root and coefficient planes, the
integer-coefficient classification (irreducibility, enumeration,
boundary characterization), and the Riccati ratio map.  The
``recmono`` console script exposes all of it.
"""

from .decisions import (
    Branch,
    Verdict,
    eventually_nondecreasing,
    eventually_ratio_monotone,
    hartman_aurel_sufficient,
    nondecreasing_from,
    positive_monotone_h,
    ratio_monotone_h,
    weighted_monotone,
)
from .numtheory import (
    IntCoeffPair,
    boundary_characterization,
    enumerate_generalized_fibonacci,
    is_irreducible,
)
from .oracle import PropertyId, WindowReport
from .qfield import QuadElem, RootPair, decimal_str, quadratic_roots
from .recurrence import (
    LimitKind,
    RatioLimit,
    RecurrenceSpec,
    iterate,
    make_h_spec,
    ratio_limit,
    term_minus_one,
    terms_between,
)
from .regions import (
    COEFF_PLANE_REGIONS,
    RasterGrid,
    RegionId,
    contains_coeff_plane,
    rasterize,
    write_csv,
    write_pgm,
)
from .report import InternalInconsistency, build_report
from .riccati import RiccatiOrbit, riccati_orbit

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "COEFF_PLANE_REGIONS",
    "IntCoeffPair",
    "InternalInconsistency",
    "LimitKind",
    "PropertyId",
    "QuadElem",
    "RasterGrid",
    "RatioLimit",
    "RecurrenceSpec",
    "RegionId",
    "RiccatiOrbit",
    "RootPair",
    "Verdict",
    "WindowReport",
    "boundary_characterization",
    "build_report",
    "contains_coeff_plane",
    "decimal_str",
    "enumerate_generalized_fibonacci",
    "eventually_nondecreasing",
    "eventually_ratio_monotone",
    "hartman_aurel_sufficient",
    "is_irreducible",
    "iterate",
    "make_h_spec",
    "nondecreasing_from",
    "positive_monotone_h",
    "quadratic_roots",
    "ratio_limit",
    "ratio_monotone_h",
    "rasterize",
    "riccati_orbit",
    "term_minus_one",
    "terms_between",
    "weighted_monotone",
    "write_csv",
    "write_pgm",
]
