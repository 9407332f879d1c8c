"""Toolkit for stratified ground-state varieties of the quintic sigma model.

Pipeline: exact quintic polynomial -> singular rays -> sheet-by-sheet
stratification -> exocurve atlases and compactification -> Mayer-Vietoris
cohomology with the class-collapse refinement -> small resolutions and the
defo/exoflop/flop transition graph.
"""

from .cohomology import (ConifoldData, GradedSpace, KahlerReport, check_kahler_package,
                         cohomology_of_closure, cohomology_report, mayer_vietoris,
                         points, spheres)
from .cyclo import Cyclo, CyclotomicField, cyclotomic_polynomial
from .errors import (BranchPointError, DegreeUndefinedError, ExactnessError, GsvError,
                     GsvInputError, IncompleteResultError, MalformedIncidenceError,
                     NonIsolatedError, PolynomialParseError, QuantumRegionError,
                     ResourceLimitError, WrongModelError)
from .exocurves import (Atlas, Chart, Model, Transition, build_comparison_p151,
                        build_exocurve, compactify, deficit_angle, normalize_sheet,
                        transition)
from .poly import DEFAULT_VARIABLES, Polynomial, parse_polynomial, parse_scalar
from .resolutions import (ResolutionChoice, TransitionGraph, build_transition_graph,
                          enumerate_small_resolutions, flop, naive_resolution_count)
from .singular import (AnsatzRoots, FloatHomotopy, Kind, SingularRay, SingularityClass,
                       TransversalityReport, UserList, ansatz_candidates,
                       classify_singularity, find_singular_rays, normalize_ray,
                       verify_transversal)
from .strata import (StratifiedVariety, Stratum, StratumKind, build_ground_state_variety,
                     strata_report)

__version__ = "0.1.0"
