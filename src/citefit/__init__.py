"""citefit: fit, test and compare discretised lognormal and hooked power
law models for citation-like count data.

Pure Python on NumPy and SciPy: there is no compiled extension, so every
install runs the same code path.
"""

__version__ = "0.1.0"

from citefit.exceptions import (
    AllStatisticsFailedError,
    CitefitError,
    DegenerateDataError,
    DomainError,
    EmptySampleError,
    FitFailedError,
    IdenticalModelsError,
    InvalidWeightsError,
    MomentUndefinedError,
    OffsetError,
    ParameterError,
    ParseError,
    TooFewRepsError,
)
from citefit.sample import CitationSample, as_sample
from citefit.distributions import (
    DiscretisedLognormal,
    HookedPowerLaw,
    Mixture,
    Moments,
    continuous_moments,
    make_model,
    simulate_sample,
)
from citefit.fitting import FitResult, FitStatus, fit, log_likelihood
from citefit.gof import (
    GofResult,
    ShapeReport,
    ks_p_value,
    ks_statistic,
    ks_test_fixed,
    mc_p_value,
    shape_classify,
)
from citefit.vuong import Tally, VuongResult, tally_significance, vuong
from citefit.bootstrap import StudySummary, bootstrap_study, resample
from citefit.subjects import SUBJECTS, SubjectParams, get_subject
from citefit.studies import (
    MixtureSpec,
    VuongStudy,
    bootstrap_vuong_study,
    mean_crosscheck,
    mixture_impurity_study,
    mixture_sample,
    plausibility_row,
    scale_ci_study,
    shape_table,
    simulation_study,
)

__all__ = [
    "AllStatisticsFailedError",
    "CitefitError",
    "CitationSample",
    "DegenerateDataError",
    "DiscretisedLognormal",
    "DomainError",
    "EmptySampleError",
    "FitFailedError",
    "FitResult",
    "FitStatus",
    "GofResult",
    "HookedPowerLaw",
    "IdenticalModelsError",
    "InvalidWeightsError",
    "Mixture",
    "MixtureSpec",
    "Moments",
    "MomentUndefinedError",
    "OffsetError",
    "ParameterError",
    "ParseError",
    "ShapeReport",
    "StudySummary",
    "SUBJECTS",
    "SubjectParams",
    "Tally",
    "TooFewRepsError",
    "VuongResult",
    "VuongStudy",
    "as_sample",
    "bootstrap_study",
    "bootstrap_vuong_study",
    "continuous_moments",
    "fit",
    "get_subject",
    "ks_p_value",
    "ks_statistic",
    "ks_test_fixed",
    "log_likelihood",
    "make_model",
    "mc_p_value",
    "mean_crosscheck",
    "mixture_impurity_study",
    "mixture_sample",
    "plausibility_row",
    "resample",
    "scale_ci_study",
    "shape_classify",
    "shape_table",
    "simulate_sample",
    "simulation_study",
    "tally_significance",
    "vuong",
]
