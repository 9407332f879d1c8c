"""Toolkit for stratified ground-state varieties of the quintic sigma model.

Pipeline: exact quintic polynomial -> singular rays -> sheet-by-sheet
stratification over the exocurve charts -> Mayer-Vietoris
cohomology with the class-collapse refinement -> small resolutions and the
defo/exoflop/flop transition graph.

The public names below are loaded on first use, so a caller pays only for
the modules it touches; each CLI subcommand imports just the stages it runs.
"""

from importlib import import_module as _import_module

_HOME = {name: module for module, names in {
    "cohomology": ("ConifoldData", "GradedSpace", "cohomology_report", "mayer_vietoris"),
    "cyclo": ("Cyclo", "CyclotomicField", "cyclotomic_polynomial"),
    "errors": ("ExactnessError", "GsvError", "GsvInputError", "IncompleteResultError",
               "MalformedIncidenceError", "NonIsolatedError", "PolynomialParseError",
               "QuantumRegionError", "ResourceLimitError"),
    "poly": ("DEFAULT_VARIABLES", "Polynomial", "parse_polynomial", "parse_scalar"),
    "resolutions": ("TransitionGraph", "build_transition_graph"),
    "singular": ("SingularRay", "TransversalityReport", "normalize_ray", "verify_transversal"),
    "strata": ("Chart", "StratifiedVariety", "Stratum", "StratumKind", "build_exocurve",
               "build_ground_state_variety", "normalize_sheet", "strata_report"),
}.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
