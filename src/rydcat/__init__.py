"""Cavity-generated optical cat states and their decoherence budget.

The package models a single-sided cavity whose reflection depends on
the internal state of a Rydberg-blockaded atomic ensemble, the cat
states of light that the state-dependent reflection produces, and the
photon-loss channels that limit their size: cavity inefficiency,
atomic scattering, mirror transmission, and the mismatch between the
collective radiation patterns of the two branches, sampled over
thermal atom clouds by Monte Carlo.

``import rydcat`` loads no model module and no numpy: each public name
below imports its home module on first use, and so does a submodule
named as an attribute (``rydcat.overlap``).
"""

import importlib

from .errors import NumericalError, ParameterError

__version__ = "0.1.0"

# Home module of each public name; bessel has none but is a submodule.
_EXPORTS = {
    "bessel": (),
    "catstate": (
        "CatState", "LossBudget", "LostFields", "apply_beam_splitter",
        "coherent_overlap", "effective_size", "generate_cat", "loss_budget",
        "max_photon_number", "mode_dressed_overlap", "optimal_lambda",
        "sweep_loss_vs_coupling",
    ),
    "cavity": (
        "FAR_DETUNED", "CavityParams", "DetuningSet", "OutputAmplitudes",
        "QubitBranch", "effective_cooperativity", "lambda_factor",
        "min_pulse_duration", "output_amplitudes", "reflection_coefficient",
    ),
    "errors": ("NumericalError", "ParameterError"),
    "fock": (
        "beam_splitter_pair", "cat_density_matrix", "coherent_state",
        "default_cutoff", "fock_overlap_lemma_check", "split_two_mode",
    ),
    "montecarlo": (
        "MonteCarloConfig", "MonteCarloResult", "PowerLawStudy",
        "power_law_study", "run_monte_carlo",
    ),
    "overlap": (
        "AtomCloud", "CollectiveOverlap", "OverlapMatrix", "Polarization",
        "collective_from_matrix", "collective_overlap", "legendre_p2",
        "overlap_matrix", "pair_overlap", "pair_overlap_projected",
        "pair_statistics",
    ),
    "roundtrip": (
        "ConvergenceStudy", "RoundTripParams", "convergence_study",
        "intracavity_and_outputs", "medium_transmission",
    ),
    "steady": (
        "SteadyState", "solve_steady_state", "spontaneous_amplitude",
        "steady_residuals",
    ),
    "thermal": (
        "ThermalPairStats", "predicted_power_law_coefficient",
        "second_order_collective_overlap", "second_order_large_n",
        "thermal_average_s12", "zeta_from_sigmas",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
