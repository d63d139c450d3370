"""Bound states and Shannon information entropies of a flux-threaded,
screened-Coulomb quantum ring with a conical defect.

The model module carries the closed-form spectrum and its independent
quantization oracle; wavefunction/spectral/entropy build the position and
momentum densities and their differential entropies; cli drives parameter
sweeps and figure-data output.
"""

from .entropy import BBM_BOUND, EntropyReport, bbm_check, entropy_pipeline, \
    shannon_momentum, shannon_position, state_entropies
from .model import BoundStateReport, DimensionlessSet, ModelParams, \
    NoBoundStateError, QuantumNumbers, dimensionless, effective_potential, \
    energy_closed_form, greene_aldrich_ratio, quantization_residual, \
    quantization_root_bisection
from .numerics import DomainError, NonConvergenceError, bisect
from .spectral import MomentumGrid, default_momentum_grid, fourier_transform, \
    parseval_residual
from .specfun import hyp2f1
from .wavefunction import SampledFunction, count_radial_nodes, normalize, \
    probability_density, radial_eigenfunction, transformed_equation_residual

__version__ = "0.1.0"

__all__ = [
    "BBM_BOUND", "BoundStateReport", "DimensionlessSet", "DomainError",
    "EntropyReport", "ModelParams", "MomentumGrid", "NoBoundStateError",
    "NonConvergenceError", "QuantumNumbers", "SampledFunction", "bbm_check",
    "bisect", "count_radial_nodes", "default_momentum_grid", "dimensionless",
    "effective_potential", "energy_closed_form", "entropy_pipeline",
    "fourier_transform", "greene_aldrich_ratio", "hyp2f1",
    "normalize", "parseval_residual", "probability_density",
    "quantization_residual", "quantization_root_bisection",
    "radial_eigenfunction", "shannon_momentum", "shannon_position",
    "state_entropies", "transformed_equation_residual",
]
