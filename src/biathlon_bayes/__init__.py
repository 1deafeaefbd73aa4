"""Bayesian analysis of biathlon shooting performance.

A hierarchical binomial-logit model of five-shot shooting sessions: each
athlete's hit probability moves over a season through random-walk stage and
athlete effects, with sum-to-zero athlete, position, and race-type
adjustments.  The package covers the full pipeline — data ingestion and
validation, exploratory summaries, a from-scratch adaptive
Metropolis-within-Gibbs sampler with convergence diagnostics, posterior
predictive checks, and independent correctness oracles — plus a
``biathlon-bayes`` command-line front end.
"""

__version__ = "0.1.0"


def _pin_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at 2 MiB (and its trim threshold at
    4 MiB), so every draws-sized array is mapped when allocated and
    unmapped when freed.  Left alone, glibc raises the mmap threshold to
    the size of each mapped block it frees (up to 32 MiB); arrays of that
    size then come from the brk heap, where one small live block above
    them keeps their pages resident once freed.  Which arrays land there
    follows the address layout of the process, so identical runs of the
    post-fit report peaked up to 40 MB apart.  The trim threshold is
    twice the mmap one, as glibc sets it, so heap blocks below 2 MiB are
    reused rather than returned and faulted in again.  A no-op where the C
    library has no ``mallopt``."""
    import contextlib
    import ctypes

    with contextlib.suppress(OSError, AttributeError):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-3, 2 << 20)  # M_MMAP_THRESHOLD in glibc's malloc.h
        mallopt(-1, 4 << 20)  # M_TRIM_THRESHOLD


_pin_mmap_threshold()

from .data import (
    Dataset,
    SessionRecord,
    ValidationReport,
    load_sessions,
    parse_sessions,
    serialize_sessions,
    validate_dataset,
)
from .errors import DataError, NumericalError, ParseError
from .explore import (
    SummaryTable,
    accuracy_summary,
    cluster_athletes,
    favorite_race_counts,
    spearman,
    stage_deviation_matrix,
)
from .model import ModelSpec, ParameterState, log_posterior, grad_log_posterior
from .oracles import gradient_check, quadrature_posterior, sbc
from .predict import (
    beta_trajectories,
    cumulative_hits,
    mu_summary,
    position_effects,
    predictive_draws,
    race_effects,
    race_position_ppc,
    simulate_schedule,
    stage_totals_ppc,
)
from .sampler import (
    PosteriorSamples,
    SamplerConfig,
    ess,
    export_draws,
    import_draws,
    run_chains,
    split_rhat,
    summarize,
)
from .synth import SynthConfig, generate_synthetic, season_config

__all__ = [
    "__version__",
    "Dataset",
    "SessionRecord",
    "ValidationReport",
    "load_sessions",
    "parse_sessions",
    "serialize_sessions",
    "validate_dataset",
    "DataError",
    "NumericalError",
    "ParseError",
    "SummaryTable",
    "accuracy_summary",
    "cluster_athletes",
    "favorite_race_counts",
    "spearman",
    "stage_deviation_matrix",
    "ModelSpec",
    "ParameterState",
    "log_posterior",
    "grad_log_posterior",
    "gradient_check",
    "quadrature_posterior",
    "sbc",
    "beta_trajectories",
    "cumulative_hits",
    "mu_summary",
    "position_effects",
    "predictive_draws",
    "race_effects",
    "race_position_ppc",
    "simulate_schedule",
    "stage_totals_ppc",
    "PosteriorSamples",
    "SamplerConfig",
    "ess",
    "export_draws",
    "import_draws",
    "run_chains",
    "split_rhat",
    "summarize",
    "SynthConfig",
    "generate_synthetic",
    "season_config",
]
