"""Reduced qubit dynamics in bosonic reservoirs and non-Markovianity measures."""

from .amplitude import (
    AmplitudeTrajectory,
    Method,
    SolverConfig,
    amplitude_envelope,
    compute_trajectory,
    default_horizon,
    lorentzian_closed_form,
    lorentzian_min_times,
    solve_volterra,
)
from .dynamics import (
    QubitInitialState,
    ScalarTrajectory,
    StatePair,
    bell_phi,
    bell_psi,
    concurrence_bell,
    density_matrix,
    evolve_single,
    evolve_two_qubit,
    excited_state,
    ground_state,
    minus_state,
    optimal_pair,
    plus_state,
    population_excited,
    trace_distance_single,
    trace_distance_two,
)
from .errors import (
    HorizonError,
    NoZerosError,
    NumericalFailureError,
    PhysicalityError,
    UnsupportedModelError,
)
from .linalg import DensityMatrix, hermitian_eigenvalues, kron, trace_distance, wootters_concurrence
from .measure import (
    BruteForceResult,
    ExtremumInterval,
    NonMarkovianityReport,
    TheoremVerification,
    brute_force_max,
    find_extrema,
    population_measures,
    sample_state_pairs,
    verify_theorem,
)
from .reservoir import (
    CorrelationSamples,
    Lorentzian,
    OhmicFamily,
    Regime,
    SpectralModel,
    Tabulated,
    classify_regime,
    correlation,
    kappa,
    load_tabulated,
    spectral_density,
)

__version__ = "0.1.0"
