"""Minor-removal inverse limits and next-generation-matrix reproduction
numbers for relapsing vector-borne disease models."""

from .densela import (Matrix, determinant, identity, inf_norm, inverse,
                      matmul, minor, set_entry)
from .eigen import Spectrum, eigenvalues, spectral_abscissa, spectral_radius
from .errors import ConfigError, ConvergenceError, SingularMatrixError
from .minorlimit import (ConvergenceReport, DiagonalRay,
                         assemble_limit_inverse, default_schedule,
                         det_affine_coeffs, exact_minor_inverse,
                         limit_minor_inverse, richardson, row_col_decay,
                         spectral_limit)
from .ngm import (MMatrixWarning, NGMPair, ThresholdReport,
                  dfe_threshold_check, r0, r0_removal_limit,
                  remove_compartment)
from .relapse import (HostParams, R0Result, RemovalStep, VectorParams,
                      build_coupled_ngm, build_uncoupled_ngm,
                      r0_coupled_closed, r0_uncoupled_closed,
                      relapse_limit_experiment)

__version__ = "0.1.0"

__all__ = [
    "Matrix", "minor", "determinant", "inverse", "matmul", "identity",
    "inf_norm", "set_entry",
    "Spectrum", "eigenvalues", "spectral_radius", "spectral_abscissa",
    "SingularMatrixError", "ConvergenceError", "ConfigError",
    "DiagonalRay", "ConvergenceReport", "default_schedule",
    "det_affine_coeffs", "exact_minor_inverse", "limit_minor_inverse",
    "row_col_decay", "richardson", "assemble_limit_inverse",
    "spectral_limit",
    "NGMPair", "ThresholdReport", "MMatrixWarning", "r0",
    "remove_compartment", "dfe_threshold_check", "r0_removal_limit",
    "HostParams", "VectorParams", "R0Result", "RemovalStep",
    "r0_uncoupled_closed", "build_uncoupled_ngm", "build_coupled_ngm",
    "r0_coupled_closed", "relapse_limit_experiment",
    "__version__",
]
