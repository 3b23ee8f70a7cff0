"""covfn: estimation of smooth functionals <f(Sigma), B> of covariance
matrices, with bootstrap-chain bias reduction and a simulation harness."""

__version__ = "0.1.0"

from .errors import (
    BadAlpha,
    CovfnError,
    DimMismatch,
    DomainError,
    EigFailure,
    NotPSD,
    NumericOverflow,
    ParseError,
    RaggedRows,
    UsageError,
    ZeroMatrix,
)
from .functions import ScalarFunction, get_function, parse_function_spec
from .symmat import (
    SpectralDecomp,
    SymMat,
    apply_scalar_function,
    as_symmat,
    effective_rank,
    eigh,
    frechet_derivative,
    loewner_first_difference,
    schatten_norm,
    taylor_remainder,
    trace_inner_product,
)
from .sampling import (
    DataMatrix,
    PsdFactor,
    RngStream,
    chain_eigenpairs,
    gaussian_sample,
    psd_factor,
    sample_covariance,
)
from .estimators import (
    EstimateReport,
    bias_reduced_estimate,
    confidence_interval,
    hockey_stick_weights,
    plugin_estimate,
    sigma_f,
)
from .wishart_oracle import quad_wishart_oracle
from .experiments import ExperimentConfig, ResultTable, run_experiment
