"""Pseudo-spectral lab for the dispersion generalized BO-ZK equation.

    u_t + D_x^{a+1} u_x + u_xyy + u u_x = 0,    a in [0, 1],

on a centered periodic box: exact linear propagator, ETDRK4/Strang nonlinear
integration, conserved-quantity and weighted-norm diagnostics, a numerical
Stein fractional derivative with membership/asymptotics probes, and a CLI
harness for persistence and unique-continuation experiments.
"""

from .spectral import (
    GridSpec,
    RealField2D,
    SpectralField2D,
    make_grid,
    to_spectral,
    to_physical,
)
from .propagator import (
    DispersionParams,
    PhiJet,
    dispersion_symbol,
    apply_linear_propagator,
    xi_expansion_terms,
    xi_expansion_check,
    gaussian_jet,
)
from .solver import SolverConfig, Trajectory, BlowUpError, nonlinear_term, evolve
from .diagnostics import (
    WeightSpec,
    SobolevSpec,
    truncated_weight,
    weighted_norm,
    sobolev_norm,
    mass,
    hamiltonian,
    zero_mode_slice,
    x_moment,
)
from .fraclab import (
    cutoff_phi,
    stein_derivative,
    make_profile,
    dstein_profile,
    l2_membership_classify,
    lemma_df_probe,
    fit_exponent,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
