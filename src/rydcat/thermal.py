"""Ensemble averages of pair overlaps over a thermal Gaussian cloud.

Averaging the pairwise radiated-mode overlap over Gaussian-distributed
positions has closed forms in the scaled cloud size zeta (wavenumber
times rms pair separation).  Anisotropic clouds are mapped onto an
equivalent isotropic one through the geometric mean of the three
widths, which is accurate in the dilute regime where zeta is large.
From the pair averages, a perturbative expansion predicts how the
collective branch mismatch shrinks with atom number, giving the
inverse-cube law that the Monte Carlo sampling checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .overlap import Polarization, legendre_p2


@dataclass(frozen=True)
class ThermalPairStats:
    """Closed-form pair-overlap statistics of a thermal cloud.

    ``mean`` is the ensemble average of the complex pair overlap (its
    imaginary part vanishes by inversion symmetry), ``mean_sq`` the
    average squared magnitude.  The ``low_density_*`` fields are the
    leading large-zeta asymptotics of the same quantities.
    """

    zeta: float
    mean: float
    mean_sq: float
    rms: float
    low_density_mean: float
    low_density_rms: float


def zeta_from_sigmas(sigmas, wavelength: float) -> float:
    """Scaled size of a Gaussian cloud.

    Uses the geometric mean of the three rms widths; the factor sqrt(2)
    converts a single-atom width into a pair-separation width.
    """
    if wavelength <= 0.0:
        raise ParameterError(f"wavelength must be > 0, got {wavelength!r}")
    sig = np.asarray(sigmas, dtype=float)
    if sig.shape != (3,) or np.any(sig <= 0.0):
        raise ParameterError("sigmas must be three positive lengths")
    mean_sigma = float(np.cbrt(sig[0] * sig[1] * sig[2]))
    return math.sqrt(2.0) * (2.0 * math.pi / wavelength) * mean_sigma


def _i0(zeta: float) -> float:
    # Gaussian average of the order-0 kernel with the drive phase.
    return -math.expm1(-2.0 * zeta**2) / (2.0 * zeta**2)


def _i2(zeta: float) -> float:
    # Gaussian average of the order-2 kernel with the drive phase.
    if zeta < 1.0:
        # The closed form below cancels its 3 / zeta**4 terms: it loses
        # 1e-12 of relative accuracy by zeta = 0.6 and returns exactly 0
        # by zeta = 0.01.  Its Taylor series in x = 2 zeta**2,
        # sum_{m>=2} (-x)**m m (m-1) / (m+3)!, loses at most a digit for
        # x < 2, and 28 terms reach double precision at x = 2.
        x = 2.0 * zeta**2
        term = x * x / 60.0
        total = 0.0
        for m in range(2, 30):
            total += term
            term *= -x * (m + 1) / ((m - 1) * (m + 4))
        return total
    damp = -math.expm1(-2.0 * zeta**2)
    return -3.0 / zeta**4 + 0.5 * damp * (
        1.0 / zeta**2 + 3.0 / zeta**4 + 3.0 / zeta**6
    )


def _incidence_projection(polarization: Polarization, e_in) -> float:
    e_in = np.asarray(e_in, dtype=float)
    if e_in.shape != (3,):
        raise ParameterError(f"e_in must have shape (3,), got {e_in.shape}")
    norm = np.linalg.norm(e_in)
    if norm == 0.0:
        raise ParameterError("e_in cannot be the zero vector")
    return float(abs(np.sum((e_in / norm) * polarization.jones)))


def thermal_average_s12(
    zeta: float, polarization: Polarization, e_in=(0.0, 0.0, -1.0)
) -> ThermalPairStats:
    """Pair-overlap statistics at scaled cloud size ``zeta``.

    ``e_in`` is the propagation direction of the drive; together with
    the polarization it fixes the two Legendre weights that enter the
    mean and the mean square.
    """
    if zeta <= 0.0:
        raise ParameterError(f"zeta must be > 0, got {zeta!r}")
    p2_incidence = legendre_p2(_incidence_projection(polarization, e_in))
    p2_self = legendre_p2(polarization.self_overlap)
    i0 = _i0(zeta)
    i2 = _i2(zeta)
    mean = i0 - p2_incidence * i2
    mean_sq = i0 + (1.0 + p2_self) / 10.0 * i2
    return ThermalPairStats(
        zeta=zeta,
        mean=mean,
        mean_sq=mean_sq,
        rms=math.sqrt(mean_sq),
        low_density_mean=(1.0 - p2_incidence) / (2.0 * zeta**2),
        low_density_rms=math.sqrt((11.0 + p2_self) / 20.0) / zeta,
    )


def _warn_if_dense(zeta: float) -> None:
    if zeta < 5.0:
        warnings.warn(
            f"dilute-cloud expansion is unreliable at zeta = {zeta:.3g}",
            stacklevel=3,
        )


def second_order_collective_overlap(
    zeta: float,
    n_atoms: int,
    polarization: Polarization,
    e_in=(0.0, 0.0, -1.0),
) -> float:
    """Second-order shift of the mean collective branch overlap.

    Returns the (negative) correction to the ensemble mean of the
    branch overlap at finite atom number; the predicted mean mismatch
    is its negation.  Exact in the pair statistics, perturbative in the
    overlap smallness.
    """
    if n_atoms < 2:
        raise ParameterError(f"n_atoms must be >= 2, got {n_atoms!r}")
    _warn_if_dense(zeta)
    stats = thermal_average_s12(zeta, polarization, e_in)
    n = n_atoms
    return -(n - 2.0) / (4.0 * n * (n - 1.0) ** 3) * stats.mean_sq


def second_order_large_n(
    zeta: float,
    n_atoms: int,
    polarization: Polarization,
    e_in=(0.0, 0.0, -1.0),
) -> float:
    """Large-atom-number limit of the second-order overlap shift."""
    if n_atoms < 2:
        raise ParameterError(f"n_atoms must be >= 2, got {n_atoms!r}")
    _warn_if_dense(zeta)
    stats = thermal_average_s12(zeta, polarization, e_in)
    return -stats.mean_sq / (4.0 * n_atoms**3)


def predicted_power_law_coefficient(
    zeta: float, polarization: Polarization, e_in=(0.0, 0.0, -1.0)
) -> float:
    """Coefficient of the inverse-cube decay of the mean mismatch."""
    stats = thermal_average_s12(zeta, polarization, e_in)
    return stats.mean_sq / 4.0
