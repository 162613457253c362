"""Steady state of the driven cavity-medium system.

Solves the coupled linear equations for the intracavity field, the
optical polarization and the collective spin coherence under a
monochromatic drive, then reads the output channels off the boundary
relations.  This is the second independent route to the reflection and
loss amplitudes: the closed forms elsewhere should agree with this
solve to machine precision, and the semiclassical round-trip model
should converge to both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams, DetuningSet, FAR_DETUNED, QubitBranch
from .errors import NumericalError


@dataclass(frozen=True)
class SteadyState:
    """Internal fields and output amplitudes of the driven system."""

    e_cav: complex
    p_medium: complex
    s_spinwave: complex
    e_out: complex
    e_mirror: complex
    e_in: complex


def _steady_system(
    params: CavityParams, det: DetuningSet, branch: QubitBranch, e_in: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Bulk equations ``matrix @ (e_cav, p_medium, s_spinwave) = rhs``.

    On the blockaded branch the spin coherence is frozen out (its
    two-photon detuning is effectively infinite): its coupling to the
    polarization vanishes and its row pins it to zero.
    """
    # Collective coupling rate fixed by the cooperativity.
    g = math.sqrt(params.cooperativity * params.kappa * params.gamma)
    delta_2 = det.delta_2(branch)
    if delta_2 is FAR_DETUNED:
        half_omega = 0.0
        spin_row = [0.0, 0.0, 1.0]
    else:
        half_omega = 0.5 * params.omega_c
        spin_row = [0.0, -1j * half_omega, 0.5 * params.gamma_rg - 1j * delta_2]
    matrix = np.array(
        [
            [params.kappa - 1j * det.delta_c, -1j * g, 0.0],
            [-1j * g, params.gamma - 1j * det.delta_s, -1j * half_omega],
            spin_row,
        ],
        dtype=complex,
    )
    rhs = np.array([math.sqrt(2.0 * params.kappa_in) * e_in, 0.0, 0.0], dtype=complex)
    return matrix, rhs


def solve_steady_state(
    params: CavityParams,
    det: DetuningSet,
    branch: QubitBranch,
    e_in: complex,
) -> SteadyState:
    """Solve the driven steady state for one qubit branch.

    On the blockaded branch the spin coherence is frozen out and the
    system reduces to field plus polarization.
    """
    matrix, rhs = _steady_system(params, det, branch, e_in)
    try:
        e_cav, p_medium, s_spinwave = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"steady-state system is singular: {exc}") from exc
    e_out = math.sqrt(2.0 * params.kappa_in) * e_cav - e_in
    e_mirror = math.sqrt(2.0 * params.kappa_hr) * e_cav
    return SteadyState(
        e_cav=complex(e_cav),
        p_medium=complex(p_medium),
        s_spinwave=complex(s_spinwave),
        e_out=complex(e_out),
        e_mirror=complex(e_mirror),
        e_in=complex(e_in),
    )


def steady_residuals(
    params: CavityParams,
    det: DetuningSet,
    branch: QubitBranch,
    ss: SteadyState,
) -> np.ndarray:
    """Residuals of the steady-state equations and the output relation.

    Returns four magnitudes: the three bulk equations (for the
    blockaded branch the third entry is the frozen spin coherence
    itself) and the input-output boundary relation.  All should vanish
    for a valid solution.
    """
    matrix, rhs = _steady_system(params, det, branch, ss.e_in)
    bulk = matrix @ np.array([ss.e_cav, ss.p_medium, ss.s_spinwave]) - rhs
    boundary = ss.e_out - (math.sqrt(2.0 * params.kappa_in) * ss.e_cav - ss.e_in)
    return np.append(np.abs(bulk), abs(boundary))


def spontaneous_amplitude(ss: SteadyState) -> float:
    """Magnitude of the scattered field from the energy deficit.

    The steady-state solve does not track the scattered channel
    explicitly; passivity fixes its magnitude.
    """
    deficit = abs(ss.e_in) ** 2 - abs(ss.e_out) ** 2 - abs(ss.e_mirror) ** 2
    scale = max(abs(ss.e_in) ** 2, 1e-300)
    if deficit < -1e-12 * scale:
        raise NumericalError(
            f"output channels exceed the drive power by {-deficit:.3e}"
        )
    return math.sqrt(max(0.0, deficit))
