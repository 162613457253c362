"""Cavity-generated optical cat states and their decoherence budget.

The package models a single-sided cavity whose reflection depends on
the internal state of a Rydberg-blockaded atomic ensemble, the cat
states of light that the state-dependent reflection produces, and the
photon-loss channels that limit their size: cavity inefficiency,
atomic scattering, mirror transmission, and the mismatch between the
collective radiation patterns of the two branches, sampled over
thermal atom clouds by Monte Carlo.
"""

from .catstate import (
    CatState,
    LossBudget,
    LostFields,
    apply_beam_splitter,
    coherent_overlap,
    effective_size,
    generate_cat,
    loss_budget,
    max_photon_number,
    optimal_lambda,
    sweep_loss_vs_coupling,
)
from .cavity import (
    FAR_DETUNED,
    CavityParams,
    DetuningSet,
    OutputAmplitudes,
    QubitBranch,
    effective_cooperativity,
    lambda_factor,
    min_pulse_duration,
    output_amplitudes,
    reflection_coefficient,
)
from .errors import NumericalError, ParameterError
from .fock import (
    beam_splitter_pair,
    cat_density_matrix,
    coherent_state,
    default_cutoff,
    fock_overlap_lemma_check,
    mode_dressed_overlap,
    split_two_mode,
)
from .montecarlo import (
    MonteCarloConfig,
    MonteCarloResult,
    PowerLawStudy,
    power_law_study,
    run_monte_carlo,
)
from .overlap import (
    AtomCloud,
    CollectiveOverlap,
    OverlapMatrix,
    Polarization,
    collective_from_matrix,
    collective_overlap,
    legendre_p2,
    overlap_matrix,
    pair_overlap,
    pair_overlap_projected,
    pair_statistics,
)
from .roundtrip import (
    ConvergenceStudy,
    RoundTripParams,
    convergence_study,
    intracavity_and_outputs,
    medium_transmission,
    susceptibility,
)
from .steady import (
    SteadyState,
    solve_steady_state,
    spontaneous_amplitude,
    steady_residuals,
)
from .thermal import (
    ThermalPairStats,
    predicted_power_law_coefficient,
    second_order_collective_overlap,
    second_order_large_n,
    thermal_average_s12,
    zeta_from_sigmas,
)

__version__ = "0.1.0"

__all__ = [
    "AtomCloud",
    "CatState",
    "CavityParams",
    "CollectiveOverlap",
    "ConvergenceStudy",
    "DetuningSet",
    "FAR_DETUNED",
    "LossBudget",
    "LostFields",
    "MonteCarloConfig",
    "MonteCarloResult",
    "NumericalError",
    "OutputAmplitudes",
    "OverlapMatrix",
    "ParameterError",
    "Polarization",
    "PowerLawStudy",
    "QubitBranch",
    "RoundTripParams",
    "SteadyState",
    "ThermalPairStats",
    "apply_beam_splitter",
    "beam_splitter_pair",
    "cat_density_matrix",
    "coherent_overlap",
    "coherent_state",
    "collective_from_matrix",
    "collective_overlap",
    "convergence_study",
    "default_cutoff",
    "effective_cooperativity",
    "effective_size",
    "fock_overlap_lemma_check",
    "generate_cat",
    "intracavity_and_outputs",
    "lambda_factor",
    "legendre_p2",
    "loss_budget",
    "max_photon_number",
    "medium_transmission",
    "min_pulse_duration",
    "mode_dressed_overlap",
    "optimal_lambda",
    "output_amplitudes",
    "overlap_matrix",
    "pair_overlap",
    "pair_overlap_projected",
    "pair_statistics",
    "power_law_study",
    "predicted_power_law_coefficient",
    "reflection_coefficient",
    "run_monte_carlo",
    "second_order_collective_overlap",
    "second_order_large_n",
    "solve_steady_state",
    "split_two_mode",
    "spontaneous_amplitude",
    "steady_residuals",
    "susceptibility",
    "sweep_loss_vs_coupling",
    "thermal_average_s12",
    "zeta_from_sigmas",
]
