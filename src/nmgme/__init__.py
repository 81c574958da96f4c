"""Numerical engine for the exact closed master equation of Gaussian,
trace-preserving, completely positive non-Markovian dynamics.

The package builds the nonlocal kernel series of the memory expansion,
reduces it to time-local coefficients for linear systems, propagates
density matrices and Gaussian moments, and validates everything against
a brute-force system-plus-modes reference.
"""

from .bath import (
    CorrelationKernel,
    make_discrete_modes,
    make_exponential,
    make_qmupl_matrix,
    make_white_noise_approximant,
)
from .coefficients import (
    MECoefficients,
    build_ab_tables,
    coefficients_dephasing,
    coefficients_linear,
    coefficients_nondissipative,
    coefficients_qmupl,
    write_coefficients_csv,
)
from .grids import TimeGrid, make_grid
from .oracle import JointModel, build_joint, compare_with_me, evolve_joint
from .propagate import (
    GaussianMoments,
    Trajectory,
    diagnostics,
    evolve,
    evolve_moments,
    me_rhs,
)
from .series import ABKernels, SeriesConfig, SeriesTables, assemble_AB
from .system import (
    CommutatorKernel,
    PropagatorKernels,
    commutator_kernel,
    fock_operators,
    harmonic_kernels,
    qmupl_kernels,
    quadratic_hamiltonian,
)

__version__ = "0.1.0"

__all__ = [
    "CorrelationKernel",
    "make_exponential",
    "make_discrete_modes",
    "make_qmupl_matrix",
    "make_white_noise_approximant",
    "TimeGrid",
    "make_grid",
    "PropagatorKernels",
    "CommutatorKernel",
    "harmonic_kernels",
    "qmupl_kernels",
    "commutator_kernel",
    "fock_operators",
    "quadratic_hamiltonian",
    "SeriesConfig",
    "SeriesTables",
    "ABKernels",
    "assemble_AB",
    "MECoefficients",
    "build_ab_tables",
    "coefficients_linear",
    "coefficients_nondissipative",
    "coefficients_qmupl",
    "coefficients_dephasing",
    "write_coefficients_csv",
    "GaussianMoments",
    "Trajectory",
    "me_rhs",
    "evolve",
    "evolve_moments",
    "diagnostics",
    "JointModel",
    "build_joint",
    "evolve_joint",
    "compare_with_me",
]
