"""Steady state of the driven cavity-medium system.

Solves the coupled linear equations for the intracavity field, the
optical polarization and the collective spin coherence under a
monochromatic drive, then reads the output channels off the boundary
relations.  This is the second independent route to the reflection and
loss amplitudes: the closed forms elsewhere should agree with this
solve to machine precision, and the semiclassical round-trip model
should converge to both.

The bulk equations are tridiagonal (field, polarization, spin
coherence, each coupled to its neighbours), and are solved in Python
complex arithmetic by LAPACK's xGTSV method, Gaussian elimination with
partial pivoting.  It eliminates top-down, from the field row, while
``cavity``'s closed form is the bottom-up continued fraction (spin
coherence into polarization into field), so the two share no
intermediate quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams, DetuningSet, QubitBranch
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
) -> tuple[tuple, tuple, tuple, tuple]:
    """Bands and right-hand side of the bulk equations.

    Returns ``(lower, diag, upper, rhs)`` of the tridiagonal system in
    ``(e_cav, p_medium, s_spinwave)``, as Python complex numbers: row i
    reads ``lower[i - 1] x[i - 1] + diag[i] x[i] + upper[i] x[i + 1]
    = rhs[i]``.  The couplings are symmetric, so ``lower`` is ``upper``.
    Where the two-photon detuning is infinite, as on the blockaded
    branch by default, the spin coherence is frozen out: its coupling
    to the polarization vanishes and its row pins it to zero.
    """
    # Collective coupling rate fixed by the cooperativity.
    g = math.sqrt(params.cooperativity * params.kappa * params.gamma)
    delta_2 = det.delta_2(branch)
    if abs(delta_2) == math.inf:
        half_omega = 0.0
        spin = 1.0 + 0.0j
    else:
        half_omega = 0.5 * params.omega_c
        spin = complex(0.5 * params.gamma_rg, -delta_2)
    coupling = (complex(0.0, -g), complex(0.0, -half_omega))
    diag = (
        complex(params.kappa, -det.delta_c),
        complex(params.gamma, -det.delta_s),
        spin,
    )
    rhs = (math.sqrt(2.0 * params.kappa_in) * complex(e_in), 0.0j, 0.0j)
    return coupling, diag, coupling, rhs


def _cabs1(z: complex) -> float:
    return abs(z.real) + abs(z.imag)


def _solve_tridiagonal(lower, diag, upper, rhs) -> tuple[complex, complex, complex]:
    """Solve the 3 x 3 system of ``_steady_system`` as LAPACK's xGTSV does.

    Gaussian elimination with partial pivoting, top row (the field)
    first: each step keeps the row whose pivot is larger in
    ``|re| + |im|``, and an interchange puts the next row's
    super-diagonal entry into the fill-in ``f0`` two places right of the
    first pivot.  Then back-substitution.
    """
    (l0, l1), (d0, d1, d2), (u0, u1), (b0, b1, b2) = lower, diag, upper, rhs
    f0 = 0.0j
    if _cabs1(d0) >= _cabs1(l0):
        if d0 == 0:
            raise NumericalError("steady-state system is singular: zero pivot in row 0")
        m = l0 / d0
        d1 -= m * u0
        b1 -= m * b0
    else:
        m = d0 / l0
        d0, d1, u0 = l0, u0 - m * d1, d1
        f0, u1 = u1, -m * u1
        b0, b1 = b1, b0 - m * b1
    if _cabs1(d1) >= _cabs1(l1):
        if d1 == 0:
            raise NumericalError("steady-state system is singular: zero pivot in row 1")
        m = l1 / d1
        d2 -= m * u1
        b2 -= m * b1
    else:
        m = d1 / l1
        d1, d2, u1 = l1, u1 - m * d2, d2
        b1, b2 = b2, b1 - m * b2
    if d2 == 0:
        raise NumericalError("steady-state system is singular: zero pivot in row 2")
    x2 = b2 / d2
    x1 = (b1 - u1 * x2) / d1
    return (b0 - u0 * x1 - f0 * x2) / d0, x1, x2


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
    e_cav, p_medium, s_spinwave = _solve_tridiagonal(
        *_steady_system(params, det, branch, e_in)
    )
    e_in = complex(e_in)
    return SteadyState(
        e_cav=e_cav,
        p_medium=p_medium,
        s_spinwave=s_spinwave,
        e_out=math.sqrt(2.0 * params.kappa_in) * e_cav - e_in,
        e_mirror=math.sqrt(2.0 * params.kappa_hr) * e_cav,
        e_in=e_in,
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
    (l0, l1), (d0, d1, d2), (u0, u1), (b0, b1, b2) = _steady_system(
        params, det, branch, ss.e_in
    )
    x0, x1, x2 = ss.e_cav, ss.p_medium, ss.s_spinwave
    boundary = ss.e_out - (math.sqrt(2.0 * params.kappa_in) * ss.e_cav - ss.e_in)
    return np.array([
        abs(d0 * x0 + u0 * x1 - b0),
        abs(l0 * x0 + d1 * x1 + u1 * x2 - b1),
        abs(l1 * x1 + d2 * x2 - b2),
        abs(boundary),
    ])


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
