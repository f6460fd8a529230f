"""Tail indices and domains of attraction for distributions on countable alphabets.

The package computes the tail index t_n = n * sum_k p_k (1-p_k)^n with
certified truncation error, classifies distributions by the limit behavior
of t_n, checks the interval-count dominance relation between distributions,
and estimates the index from iid samples with an unbiased estimator checked
against an exact combinatorial oracle.
"""

__version__ = "0.1.0"

from .classify import (
    Domain,
    DomainVerdict,
    Method,
    Thresholds,
    classify_analytic,
    classify_numeric,
    diffusion_transient_probes,
    subsequence_probe,
)
from .dominance import DominanceReport, DominanceVerdict, dominates
from .errors import (
    AlphatailError,
    DepthExceeded,
    FiniteSupport,
    InvalidBase,
    InvalidParams,
    InvalidV,
    NormalizationDivergent,
    SamplerLimit,
    ScheduleTooShort,
    SpecParseError,
    StagesExceeded,
    TooLarge,
)
from .estimate import (
    EstimatorReport,
    FrequencyTable,
    Statistic,
    estimator_report,
    exact_expectation,
    exact_zeta,
    sample,
    t_hat,
    true_missing_mass,
    turing,
    z1v,
)
from .tail_index import (
    EmGap,
    IndexValue,
    OscillationState,
    em_gap,
    evaluate_series,
    geometric_band_ceiling,
    oscillation_state,
    oscillation_t,
    power_tail_limit,
    scaled_pair,
    tn,
    zeta1,
)
from .zoo import (
    Distribution,
    DiffusionRun,
    FamilyKind,
    FamilySpec,
    catalog,
    format_spec,
    make_distribution,
    parse_spec,
)

__all__ = [
    "AlphatailError", "DepthExceeded", "DiffusionRun", "Distribution", "Domain",
    "DomainVerdict", "DominanceReport", "DominanceVerdict", "EmGap",
    "EstimatorReport", "FamilyKind", "FamilySpec", "FiniteSupport",
    "FrequencyTable", "IndexValue", "InvalidBase",
    "InvalidParams", "InvalidV", "Method", "NormalizationDivergent",
    "OscillationState", "SamplerLimit", "ScheduleTooShort",
    "SpecParseError", "StagesExceeded", "Statistic", "Thresholds", "TooLarge",
    "catalog", "classify_analytic", "classify_numeric", "diffusion_transient_probes",
    "dominates", "em_gap", "estimator_report", "evaluate_series", "exact_expectation",
    "exact_zeta", "format_spec", "geometric_band_ceiling", "make_distribution",
    "oscillation_state", "oscillation_t", "parse_spec", "power_tail_limit",
    "sample", "scaled_pair", "subsequence_probe", "t_hat", "tn",
    "true_missing_mass", "turing", "z1v", "zeta1",
]
