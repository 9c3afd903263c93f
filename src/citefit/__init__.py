"""citefit: fit, test and compare discretised lognormal and hooked power
law models for citation-like count data.

Pure Python on NumPy and SciPy: there is no compiled extension, so every
install runs the same code path.

Importing citefit before NumPy sets ``OPENBLAS_NUM_THREADS=1`` unless it is
set, so no idle BLAS pools start and dot products do not depend on the core
count; set it before importing citefit to override. A program that imports
NumPy first keeps NumPy's default pool.
"""

import os
import sys

if "numpy" not in sys.modules:  # set after NumPy loads, it would only reach subprocesses
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from citefit.exceptions import (
    AllStatisticsFailedError,
    CitefitError,
    DomainError,
    EmptySampleError,
    FitFailedError,
    IdenticalModelsError,
    InvalidWeightsError,
    OffsetError,
    ParameterError,
    ParseError,
    TooFewRepsError,
)
from citefit.sample import CitationSample, as_sample
from citefit.distributions import DiscretisedLognormal, HookedPowerLaw, Mixture
from citefit.fitting import FitResult, FitStatus, fit, fit_many, log_likelihood
from citefit.gof import (
    GofResult,
    ShapeReport,
    ks_p_value,
    ks_statistic,
    ks_test_fixed,
    shape_classify,
)
from citefit.vuong import VuongResult, vuong
from citefit.bootstrap import StudySummary
from citefit.subjects import SUBJECTS, SubjectParams, get_subject
from citefit.studies import (
    VuongStudy,
    bootstrap_study,
    bootstrap_vuong_study,
    mean_table,
    mixture_impurity_study,
    plausibility_row,
    scale_ci_study,
    shape_table,
)

__all__ = [
    "AllStatisticsFailedError",
    "CitefitError",
    "CitationSample",
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
    "OffsetError",
    "ParameterError",
    "ParseError",
    "ShapeReport",
    "StudySummary",
    "SUBJECTS",
    "SubjectParams",
    "TooFewRepsError",
    "VuongResult",
    "VuongStudy",
    "as_sample",
    "bootstrap_study",
    "bootstrap_vuong_study",
    "fit",
    "fit_many",
    "get_subject",
    "ks_p_value",
    "ks_statistic",
    "ks_test_fixed",
    "log_likelihood",
    "mean_table",
    "mixture_impurity_study",
    "plausibility_row",
    "scale_ci_study",
    "shape_classify",
    "shape_table",
    "vuong",
]
