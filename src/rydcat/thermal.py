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

from .errors import _integer, _require_positive
from .overlap import (
    Polarization,
    _direction_norm,
    _mean_width,
    incident_wavevector,
    legendre_p2,
)


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
    mean_sigma = _mean_width(sigmas)
    # Along z the last component of the wavevector is 2 pi / wavelength.
    wavenumber = float(incident_wavevector(wavelength, (0.0, 0.0, 1.0))[2])
    return math.sqrt(2.0) * wavenumber * mean_sigma


def _i0(zeta: float) -> float:
    # Gaussian average of the order-0 kernel with the drive phase; its
    # zeta -> 0 limit 1 where 2 zeta**2 underflows (zeta below ~1.5e-162).
    x = 2.0 * zeta**2
    return -math.expm1(-x) / x if x else 1.0


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
    # |u . e| for the unit vector u along e_in, checked like any drive
    # direction, in Python floats: the same operations, in the same
    # order, as the wavevector of a drive of wavenumber 1 summed against
    # the Jones array.
    (x, y, z), norm = _direction_norm(e_in)
    jx, jy, jz = polarization._components
    return abs(x / norm * jx + y / norm * jy + z / norm * jz)


def thermal_average_s12(
    zeta: float, polarization: Polarization, e_in=(0.0, 0.0, -1.0)
) -> ThermalPairStats:
    """Pair-overlap statistics at scaled cloud size ``zeta``.

    ``e_in`` is the propagation direction of the drive; together with
    the polarization it fixes the two Legendre weights that enter the
    mean and the mean square.
    """
    _require_positive("zeta", zeta)
    p2_incidence = legendre_p2(_incidence_projection(polarization, e_in))
    p2_self = legendre_p2(polarization.self_overlap)
    low_density_rms = math.sqrt((11.0 + p2_self) / 20.0) / zeta
    try:
        i0 = _i0(zeta)
        i2 = _i2(zeta)
        weight, x = 1.0 - p2_incidence, 2.0 * zeta**2
        if x:
            low_density_mean = weight / x
        else:
            # zeta -> 0: below ~1.5e-162, 2 zeta**2 underflows to 0
            low_density_mean = math.copysign(math.inf, weight) if weight else 0.0
        mean = i0 - p2_incidence * i2
        mean_sq = i0 + (1.0 + p2_self) / 10.0 * i2
        rms = math.sqrt(mean_sq)
    except OverflowError:
        # Python's float power raises once zeta**6 passes float64, from
        # zeta ~ 2.4e51 on.  There the damping is 1 and every term past
        # the first in powers of 1/zeta**2 is below 1e-100 of it, so each
        # statistic is its low-density form, divided by zeta one factor
        # at a time so that it underflows instead of overflowing.
        low_density_mean = (1.0 - p2_incidence) / 2.0 / zeta / zeta
        mean = low_density_mean
        mean_sq = (11.0 + p2_self) / 20.0 / zeta / zeta
        rms = low_density_rms
    return ThermalPairStats(
        zeta=zeta,
        mean=mean,
        mean_sq=mean_sq,
        rms=rms,
        low_density_mean=low_density_mean,
        low_density_rms=low_density_rms,
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
    n = _integer("n_atoms", n_atoms, minimum=2)
    _warn_if_dense(zeta)
    stats = thermal_average_s12(zeta, polarization, e_in)
    return -(n - 2.0) / (4.0 * n * (n - 1.0) ** 3) * stats.mean_sq


def second_order_large_n(
    zeta: float,
    n_atoms: int,
    polarization: Polarization,
    e_in=(0.0, 0.0, -1.0),
) -> float:
    """Large-atom-number limit of the second-order overlap shift."""
    n = _integer("n_atoms", n_atoms, minimum=2)
    _warn_if_dense(zeta)
    stats = thermal_average_s12(zeta, polarization, e_in)
    return -stats.mean_sq / (4.0 * n**3)


def predicted_power_law_coefficient(
    zeta: float, polarization: Polarization, e_in=(0.0, 0.0, -1.0)
) -> float:
    """Coefficient of the inverse-cube decay of the mean mismatch."""
    stats = thermal_average_s12(zeta, polarization, e_in)
    return stats.mean_sq / 4.0
