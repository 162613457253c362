import hashlib
import math

import numpy as np
import pytest

from rydcat import (
    ParameterError,
    Polarization,
    predicted_power_law_coefficient,
    second_order_collective_overlap,
    second_order_large_n,
    thermal_average_s12,
    zeta_from_sigmas,
)
from rydcat.overlap import legendre_p2
from rydcat.thermal import _i2, _incidence_projection

from oracles import thermal_mean_quadrature, thermal_mean_sq_quadrature

SIGMAS = (3.3, 4.5, 1.7)
WAVELENGTH = 0.78


def test_zeta_from_sigmas_frozen_value():
    # geometric-mean radius of the reference cloud, in scaled units
    assert zeta_from_sigmas(SIGMAS, WAVELENGTH) == pytest.approx(
        33.418892644112907, rel=1e-14
    )


@pytest.mark.parametrize("width", [1e-170, 1e-110, 1e120, 1e300])
def test_zeta_from_extreme_widths(width):
    # The widths' product leaves float64; zeta stays their scaled mean.
    zeta = zeta_from_sigmas((width,) * 3, WAVELENGTH)
    assert zeta == pytest.approx(
        math.sqrt(2.0) * 2.0 * math.pi / WAVELENGTH * width, rel=1e-15, abs=0.0)


def test_zeta_rejects_bad_inputs():
    for sigmas in ((1.0, -1.0, 1.0), (math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0)):
        with pytest.raises(ParameterError):
            zeta_from_sigmas(sigmas, WAVELENGTH)
    for wavelength in (0.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            zeta_from_sigmas(SIGMAS, wavelength)
    for zeta in (0.0, math.nan):
        with pytest.raises(ParameterError):
            thermal_average_s12(zeta, Polarization.circular())


@pytest.mark.parametrize("e_in", [(0.0, 0.0, 0.0), (0.0, 1.0),
                                  (math.nan, 0.0, 1.0), (math.inf, 0.0, 1.0)])
def test_rejects_bad_drive_direction(e_in):
    with pytest.raises(ParameterError, match="direction"):
        thermal_average_s12(33.4, Polarization.circular(), e_in)


def test_rejects_drive_direction_past_float64():
    # An integer component too large for a float64 is no finite number.
    with pytest.raises(ParameterError, match="direction"):
        thermal_average_s12(33.4, Polarization.circular(), (10**400, 0, 0))


@pytest.mark.parametrize("study", [second_order_collective_overlap,
                                   second_order_large_n])
def test_second_order_rejects_nan_atom_number(study):
    with pytest.raises(ParameterError):
        study(33.4, math.nan, Polarization.circular())


@pytest.mark.parametrize("n_atoms", [2.5, 3.0, math.inf])
@pytest.mark.parametrize("study", [second_order_collective_overlap,
                                   second_order_large_n])
def test_second_order_rejects_non_integer_atom_number(study, n_atoms):
    # 2.5 once gave a number and inf gave -0.0.
    with pytest.raises(ParameterError, match="n_atoms"):
        study(33.4, n_atoms, Polarization.circular())


class TestReferenceCloud:
    def stats(self):
        zeta = zeta_from_sigmas(SIGMAS, WAVELENGTH)
        return thermal_average_s12(zeta, Polarization.circular())

    def test_frozen_mean(self):
        assert self.stats().mean == pytest.approx(6.7094737968010645e-4,
                                                  rel=1e-12)

    def test_frozen_rms(self):
        assert self.stats().rms == pytest.approx(2.1680028234777819e-2,
                                                 rel=1e-12)

    def test_low_density_forms_close_by(self):
        # at zeta ~ 33 the exact moments sit within a per-mille of the
        # leading-order dilute forms
        stats = self.stats()
        assert stats.low_density_mean == pytest.approx(6.7154814382125466e-4,
                                                       rel=1e-12)
        assert stats.low_density_rms == pytest.approx(2.1681413714859053e-2,
                                                      rel=1e-12)
        assert stats.mean == pytest.approx(stats.low_density_mean, rel=2e-3)
        assert stats.rms == pytest.approx(stats.low_density_rms, rel=2e-3)

    def test_circular_low_density_mean_closed_form(self):
        # transverse propagation projection vanishes for circular light,
        # leaving 3 / (4 zeta^2)
        stats = self.stats()
        assert stats.low_density_mean == pytest.approx(
            0.75 / stats.zeta**2, rel=1e-14
        )

    def test_power_law_coefficient_frozen_value(self):
        zeta = zeta_from_sigmas(SIGMAS, WAVELENGTH)
        c3 = predicted_power_law_coefficient(zeta, Polarization.circular())
        assert c3 == pytest.approx(1.1750590606519086e-4, rel=1e-12)


class TestAgainstQuadrature:
    # Maxwell-weighted radial integral of the pair kernel, on a cloud
    # small enough that the moments are far from their dilute limits.
    @pytest.mark.parametrize("pol", [Polarization.circular(),
                                     Polarization.linear()])
    def test_mean(self, pol):
        stats = thermal_average_s12(5.0, pol)
        expect = thermal_mean_quadrature(5.0, pol.jones)
        assert stats.mean == pytest.approx(expect.real, abs=1e-6)
        assert abs(expect.imag) < 1e-9

    @pytest.mark.parametrize("pol", [Polarization.circular(),
                                     Polarization.linear()])
    def test_mean_sq(self, pol):
        stats = thermal_average_s12(5.0, pol)
        expect = thermal_mean_sq_quadrature(5.0, pol.jones)
        assert stats.mean_sq == pytest.approx(expect, abs=1e-6)


class TestSecondOrderShift:
    def test_reference_cloud_value(self):
        zeta = zeta_from_sigmas(SIGMAS, WAVELENGTH)
        shift = second_order_collective_overlap(zeta, 260,
                                                Polarization.circular())
        assert shift < 0.0
        # mismatch prediction lands in the parts-per-trillion regime
        assert -shift == pytest.approx(6.71e-12, rel=0.01)

    def test_approaches_large_n_limit(self):
        zeta = zeta_from_sigmas(SIGMAS, WAVELENGTH)
        pol = Polarization.circular()
        exact = second_order_collective_overlap(zeta, 260, pol)
        limit = second_order_large_n(zeta, 260, pol)
        assert limit == pytest.approx(exact, rel=0.02)

    def test_scaling_with_atom_number(self):
        pol = Polarization.circular()
        small = second_order_large_n(33.0, 10, pol)
        big = second_order_large_n(33.0, 20, pol)
        assert small / big == pytest.approx(8.0, rel=1e-12)

    def test_warns_on_dense_cloud(self):
        with pytest.warns(UserWarning, match="dilute"):
            second_order_collective_overlap(2.0, 50, Polarization.circular())

    def test_rejects_single_atom(self):
        with pytest.raises(ParameterError):
            second_order_collective_overlap(33.0, 1, Polarization.circular())


def test_linear_polarization_moments_differ():
    # the self-overlap Legendre weight separates the two cases
    circ = thermal_average_s12(20.0, Polarization.circular())
    lin = thermal_average_s12(20.0, Polarization.linear())
    assert lin.mean_sq > circ.mean_sq
    assert circ.low_density_rms == pytest.approx(math.sqrt(10.5 / 20.0) / 20.0,
                                                 rel=1e-14)
    assert lin.low_density_rms == pytest.approx(math.sqrt(12.0 / 20.0) / 20.0,
                                                rel=1e-14)


def mpmath_i0_i2(zeta, digits=60):
    # the closed forms of the order-0 and order-2 Gaussian averages, at
    # 60 digits by default
    from mpmath import expm1, mp, mpf

    mp.dps = digits
    z = mpf(float(zeta))
    damp = -expm1(-2 * z**2)
    return damp / (2 * z**2), -3 / z**4 + damp / 2 * (1 / z**2 + 3 / z**4 + 3 / z**6)


def mpmath_i2(zetas):
    return np.array([float(mpmath_i0_i2(zeta)[1]) for zeta in zetas])


def test_i2_against_high_precision():
    # dense across the switch from the small-zeta series to the closed form
    zetas = np.concatenate(
        [np.geomspace(1e-4, 50.0, 300), np.linspace(0.5, 1.5, 101)]
    )
    expect = mpmath_i2(zetas)
    got = np.array([_i2(float(zeta)) for zeta in zetas])
    assert np.max(np.abs(got - expect) / np.abs(expect)) <= 1e-12


@pytest.mark.parametrize("zeta", [1e52, 1e76, 1e200])
@pytest.mark.parametrize("pol", [Polarization.circular(),
                                 Polarization.linear((0.0, 1.0, 1.0))],
                         ids=["circular", "linear"])
def test_far_cloud_statistics(zeta, pol):
    # zeta**6 passes float64 here, and Python's float power would raise:
    # each statistic is its low-density form, which the closed forms
    # (at 60 digits) match to far below an ulp.  At 1e200 the means
    # underflow to 0 and the rms does not.
    from mpmath import mpf, sqrt

    stats = thermal_average_s12(zeta, pol)
    p2_in = legendre_p2(abs(pol.jones[2]))
    p2_self = legendre_p2(pol.self_overlap)
    i0, i2 = mpmath_i0_i2(zeta)
    mean_sq = i0 + (1 + p2_self) / 10 * i2
    expect = {
        "mean": i0 - p2_in * i2,
        "mean_sq": mean_sq,
        "rms": sqrt(mean_sq),
        "low_density_mean": (1 - p2_in) / (2 * mpf(zeta) ** 2),
        "low_density_rms": sqrt((11 + p2_self) / 20) / mpf(zeta),
    }
    for name, value in expect.items():
        got = getattr(stats, name)
        assert math.isclose(got, float(value), rel_tol=2e-16), name
    assert stats.rms > 0.0
    assert stats.mean == stats.low_density_mean
    assert stats.rms == stats.low_density_rms


@pytest.mark.parametrize("zeta", [1e-163, 1e-200, 5e-324])
@pytest.mark.parametrize("pol, e_in", [
    (Polarization.circular(), (0.0, 0.0, -1.0)),
    (Polarization.linear((0.0, 1.0, 1.0)), (0.0, 0.0, -1.0)),
    (Polarization.linear(), (1.0, 0.0, 0.0)),
], ids=["circular", "linear", "along-drive"])
def test_vanishing_cloud_statistics(zeta, pol, e_in):
    # zeta**2 underflows to 0 here: each moment is its zeta -> 0 limit
    # (mean = mean_sq = rms = 1, the low-density mean infinite unless its
    # Legendre weight is 0), which the closed forms give at 3400 digits,
    # enough to cancel their 1 / zeta**6 terms at 5e-324.
    from mpmath import mp, mpf, sqrt

    stats = thermal_average_s12(zeta, pol, e_in)
    p2_in = legendre_p2(_incidence_projection(pol, e_in))
    p2_self = legendre_p2(pol.self_overlap)
    digits = mp.dps
    try:
        i0, i2 = mpmath_i0_i2(zeta, digits=3400)
        mean_sq = i0 + (1 + p2_self) / 10 * i2
        expect = {
            "mean": i0 - p2_in * i2,
            "mean_sq": mean_sq,
            "rms": sqrt(mean_sq),
            "low_density_mean": (1 - mpf(p2_in)) / (2 * mpf(zeta) ** 2),
        }
        expect = {name: float(value) for name, value in expect.items()}
    finally:
        mp.dps = digits
    for name, value in expect.items():
        assert math.isclose(getattr(stats, name), value, rel_tol=2e-16), name
    assert (stats.mean, stats.mean_sq, stats.rms) == (1.0, 1.0, 1.0)
    assert predicted_power_law_coefficient(zeta, pol, e_in) == 0.25
    with pytest.warns(UserWarning, match="dilute-cloud expansion"):
        assert second_order_large_n(zeta, 10, pol, e_in) == -0.25 / 1000


def test_statistics_bytes_pinned():
    # sha256 of every statistic on a grid of cloud sizes (both sides of
    # the small-zeta series switch, the reference cloud and the far
    # forms), polarizations and drive directions, captured while the
    # projections and Legendre weights still went through numpy arrays;
    # the float path must give the same bits.
    zetas = (0.01, 0.3, 0.999, 1.0, 5.0, 33.418892644112907, 80.0, 1e52, 1e200)
    pols = (Polarization.circular(), Polarization.linear(),
            Polarization.linear((0.0, 1.0, 1.0)))
    directions = ((0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (0.3, -0.5, 0.8))
    rows = []
    for zeta in zetas:
        for pol in pols:
            for e_in in directions:
                s = thermal_average_s12(zeta, pol, e_in)
                rows.append((s.zeta, s.mean, s.mean_sq, s.rms,
                             s.low_density_mean, s.low_density_rms))
    assert hashlib.sha256(np.array(rows).tobytes()).hexdigest() == (
        "110835d878024ec8dd81b7a8e28f20894a737d9459c3ebed196f3f433f0fc25d"
    )
