"""Simulation and inference for a continuously monitored mechanical resonator.

The package covers the desk-scale workflow around a position-measured
Gaussian resonator: conditional trajectory simulation with the matching
homodyne record, forward (prediction) and backward (retrodiction) filtering,
reconstruction of the conditional variance from ensemble statistics of
filtered records, stochastic entropy flux/production and information rates,
and matrix-level cross-checks against the pre-adiabatic composite model.
"""

from .errors import (
    ConfigError,
    DomainError,
    GridError,
    ModelError,
    NumericsError,
    ReconstructionError,
    RegimeError,
    ResourceError,
    RetrodynError,
    ShapeError,
    StabilityError,
    StatisticsError,
    ValidationError,
)
from .model import (
    DerivedRates,
    GaussianState,
    PhysParams,
    angular_to_hz,
    derive_rates,
    hz_to_angular,
    load_config,
    parse_config_text,
    validate_params,
)
from .dynamics import (
    TimeGrid,
    Trajectory,
    check_grid,
    conditional_variance_midpoints,
    read_trajectory_csv,
    riccati_rhs,
    simulate_batch,
    simulate_trajectory,
    solve_conditional_variance,
    trajectory_rng,
    unconditional_state,
    verify_photocurrent_identity,
    write_trajectory_csv,
)
from .estimation import (
    EnsembleVariance,
    FilteredPath,
    backward_filter,
    burn_in_steps,
    difference_variance,
    filter_record,
    filter_trajectory,
    forward_filter,
    reconstruct_conditional_variance,
    write_reconstruction_csv,
)
from .thermo import (
    EnsembleRates,
    EntropySeries,
    differential_gain,
    energy_currents,
    ensemble_average_rates,
    entropy_rate_fd,
    entropy_series,
    information_rate,
    ness_production_rate,
    phonon_noise_rate,
    stochastic_rates,
    theta_rates,
    unconditional_rates,
    wigner_entropy,
    write_rates_csv,
)
from .fullmodel import (
    Channel,
    ChannelRates,
    CovMatrix,
    GaussianModel,
    adiabatic_consistency_check,
    build_adiabatic_model,
    build_optomech_model,
    channel_entropy_rates,
    lyapunov_steady_state,
    symplectic_eigenvalues,
    symplectic_form,
    total_entropy_rates,
)
from .pipeline import (
    EnsembleBundle,
    ExperimentConfig,
    RunResult,
    collect_ensemble,
    config_from_file,
    config_from_mapping,
    default_config,
    default_params,
    emit_figure_data,
    run_experiment,
)

__version__ = "0.1.0"
