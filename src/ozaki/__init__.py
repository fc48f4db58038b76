"""Coefficient functionals of the Ozaki close-to-convex classes F and G,
with numerical verification of their sharp bounds."""

__version__ = "0.1.0"

from .series import (TruncatedSeries, NormalizedFunction, SeriesError,
                     DivisionByNonUnit, CompositionAtNonOrigin,
                     ExpOfNonZeroConstant, LogOfNonUnitConstant,
                     PowOfNonUnitConstant, NotNormalized)
from .classes import (ClassLabel, SchwarzCoeffs, CaratheodoryCoeffs,
                      LiberaParams, BlaschkeSpec, OzakiFunction,
                      ZeroOutsideDisk, UnknownExtremalName,
                      schwarz_from_blaschke, caratheodory_from_schwarz,
                      libera_expand, build_member,
                      build_member_from_caratheodory, extremal_member,
                      coeffs_from_caratheodory_direct,
                      coeffs_from_schwarz_direct, EXTREMAL_NAMES)
from .functionals import (CoeffTriple, FunctionalReport,
                          InverseSeriesMismatch, inverse_coeffs, log_coeffs,
                          schwarzian_initial, full_report, FUNCTIONAL_VALUES)
from .objectives import (ObjectiveId, DomainSpec, DomainKind, Objective,
                         OBJECTIVES, BOX, PARABOLIC)
from .gridsearch import OptResult, grid_extremize
from .ledger import (BoundCheck, BoundEntry, ExtremalCheck, LEDGER,
                     entries_for, check_extremals)
from .sampling import (SampleConfig, SampleCheck, SampleReport,
                       sample_and_check, STAT_NAMES, THREADS_ENV_VAR)

__all__ = [name for name in dir() if not name.startswith("_")]
