"""One-defect Hadamard quantum walk on the integer line.

Simulation, exact first-return series, unit-circle spectral analysis, and
closed-form time-averaged / stationary limit measures, each cross-validating
the others.
"""

from .walk import (
    DomainError,
    Measure,
    WalkParams,
    WalkState,
    evolve,
    measure,
    step,
    time_average,
)
from .series import (
    first_return_series,
    path_oracle_first_return,
    psi_origin_sequence,
    rstar,
    rstar_series,
)
from .spectral import (
    SpectralPoint,
    big_lambda0,
    residue_norms,
    residue_norms_origin,
    singular_points,
    xi_tilde0_series,
)
from .limits import (
    asymptotic_psi_origin,
    cgmv_limit_origin,
    compare_stationary_timeavg,
    mu_inf,
    mu_inf_origin,
    stationary_measure,
    total_point_mass,
)

__all__ = [
    "DomainError",
    "Measure",
    "SpectralPoint",
    "WalkParams",
    "WalkState",
    "asymptotic_psi_origin",
    "big_lambda0",
    "cgmv_limit_origin",
    "compare_stationary_timeavg",
    "evolve",
    "first_return_series",
    "measure",
    "mu_inf",
    "mu_inf_origin",
    "path_oracle_first_return",
    "psi_origin_sequence",
    "residue_norms",
    "residue_norms_origin",
    "rstar",
    "rstar_series",
    "singular_points",
    "stationary_measure",
    "step",
    "time_average",
    "total_point_mass",
    "xi_tilde0_series",
]

__version__ = "0.1.0"
