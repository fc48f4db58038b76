"""Coefficient functionals of the Ozaki close-to-convex classes F and G,
with numerical verification of their sharp bounds.

The names below, and the modules that define them, are served on first
access (PEP 562), so ``import ozaki`` loads no module of the package.  Only
the sampler, the grid search, the series class layer and the batch paths of
the kernels and the functionals import numpy: building, reporting and
verifying single members needs none.
"""

__version__ = "0.1.0"

# module: the public names that the package serves from it
_EXPORTS = {
    "series": ("TruncatedSeries", "NormalizedFunction", "SeriesError",
               "DivisionByNonUnit", "CompositionAtNonOrigin",
               "ExpOfNonZeroConstant", "LogOfNonUnitConstant",
               "PowOfNonUnitConstant", "NotNormalized"),
    "classes": ("ClassLabel", "SchwarzCoeffs", "CaratheodoryCoeffs",
                "OzakiFunction", "UnknownExtremalName",
                "caratheodory_from_schwarz", "build_member",
                "build_member_from_caratheodory", "extremal_member",
                "coeffs_from_caratheodory_direct",
                "coeffs_from_schwarz_direct", "EXTREMAL_NAMES"),
    "functionals": ("CoeffTriple", "FunctionalReport", "InverseSeriesMismatch",
                    "inverse_coeffs", "log_coeffs", "schwarzian_initial",
                    "full_report", "FUNCTIONAL_VALUES"),
    "objectives": ("ObjectiveId", "DomainSpec", "DomainKind", "Objective",
                   "OBJECTIVES", "BOX", "PARABOLIC"),
    "gridsearch": ("OptResult", "grid_extremize"),
    "ledger": ("BoundCheck", "BoundEntry", "ExtremalCheck", "LEDGER",
               "entries_for", "check_extremals"),
    "sampling": ("SampleConfig", "SampleCheck", "SampleReport",
                 "sample_and_check", "STAT_NAMES", "THREADS_ENV_VAR"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    import importlib
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
