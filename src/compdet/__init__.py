"""Detection of Gaussian signals from compressed matched-filter statistics.

Library + CLI for M-ary hypothesis testing where the M matched-filter
outputs are compressed to N statistics through a group Hadamard sensing
matrix.  Provides the frame construction, three detectors (matched filter,
whitened ML, modified RDD), closed-form error exponents with finite-M
probability bounds, and a reproducible Monte Carlo harness that validates
the theory empirically.
"""

from .errors import (
    CompdetError,
    ConfigError,
    DomainError,
    FieldError,
    NotADivisor,
    NumericalFailure,
    SingularCovariance,
    SingularGram,
)
from .frames import Frame, build_group_hadamard, coherence_bound
from .gf2m import FieldCtx
from .harness import ExperimentResult, ExperimentSpec, TrialDraw, draw_trial, run, sweep
from .model import ModelParams
from .rng import RngStream
from .theory import TheoryPoint, exponent_mf, exponent_ml, exponent_mrdd

__all__ = [
    "CompdetError", "ConfigError", "DomainError", "FieldError", "NotADivisor",
    "NumericalFailure", "SingularCovariance", "SingularGram",
    "Frame", "build_group_hadamard", "coherence_bound",
    "FieldCtx", "ExperimentResult", "ExperimentSpec", "run", "sweep",
    "ModelParams", "TrialDraw", "draw_trial", "RngStream",
    "TheoryPoint", "exponent_mf", "exponent_ml", "exponent_mrdd",
]

__version__ = "0.1.0"
