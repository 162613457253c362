import math

import numpy as np
import pytest

from rydcat.bessel import j0_j2_stable, j0_stable, j2_stable


def mpmath_reference(order, xs):
    # j_l(x) = sqrt(pi / 2x) J_{l + 1/2}(x), evaluated at high precision
    from mpmath import mp, besselj, mpf, pi, sqrt

    mp.dps = 40
    out = []
    for x in xs:
        mx = mpf(float(x))
        out.append(float(sqrt(pi / (2 * mx)) * besselj(order + 0.5, mx)))
    return np.array(out)


def reference_grid():
    # log-spaced through both evaluation regimes, dense near the switch
    return np.concatenate(
        [np.geomspace(1e-8, 1e3, 160), np.linspace(0.3, 0.7, 41)]
    )


class TestAgainstHighPrecision:
    def test_j0(self):
        xs = reference_grid()
        expect = mpmath_reference(0, xs)
        got = j0_stable(xs)
        assert np.max(np.abs(got - expect) / np.abs(expect)) < 1e-10

    def test_j2(self):
        xs = reference_grid()
        expect = mpmath_reference(2, xs)
        got = j2_stable(xs)
        assert np.max(np.abs(got - expect) / np.abs(expect)) < 1e-10


class TestLimits:
    def test_values_at_zero(self):
        assert j0_stable(0.0) == 1.0
        assert j2_stable(0.0) == 0.0

    def test_tiny_argument_leading_order(self):
        # naive closed forms lose all digits here; the series must not
        x = 1e-9
        assert j0_stable(x) == pytest.approx(1.0 - x**2 / 6.0, rel=1e-15)
        assert j2_stable(x) == pytest.approx(x**2 / 15.0, rel=1e-12)

    def test_even_in_argument(self):
        for x in (1e-3, 0.4, 7.0):
            assert j0_stable(-x) == j0_stable(x)
            assert j2_stable(-x) == j2_stable(x)


class TestNumericsContract:
    def test_scalar_in_scalar_out(self):
        out = j0_stable(1.3)
        assert isinstance(out, float)
        assert isinstance(j2_stable(1.3), float)

    def test_array_in_array_out(self):
        xs = np.array([0.1, 1.0, 10.0])
        assert j0_stable(xs).shape == (3,)
        assert j2_stable(xs).shape == (3,)

    def test_continuous_across_regime_switch(self):
        # series truncation allows a ~3e-11 relative step at the switch
        below, above = 0.5 - 1e-12, 0.5 + 1e-12
        assert j0_stable(below) == pytest.approx(j0_stable(above), rel=1e-9)
        assert j2_stable(below) == pytest.approx(j2_stable(above), rel=1e-9)

    def test_no_warnings_on_mixed_grid(self):
        xs = np.concatenate([[0.0], np.geomspace(1e-12, 100.0, 50)])
        with np.errstate(all="raise"):
            j0_stable(xs)
            j2_stable(xs)


# j0_stable and j2_stable as each computed its own sin (and cos) and
# blended series and closed form with np.where over the whole array.
def separate_j0(x):
    arr = np.atleast_1d(np.abs(np.asarray(x, dtype=float)))
    small = arr < 0.5
    safe = np.where(small, 1.0, arr)
    x2 = arr * arr
    series = 1.0 + x2 * (
        -1.0 / 6.0
        + x2 * (1.0 / 120.0 + x2 * (-1.0 / 5040.0 + x2 * (1.0 / 362880.0)))
    )
    return np.where(small, series, np.sin(safe) / safe)


def separate_j2(x):
    arr = np.atleast_1d(np.abs(np.asarray(x, dtype=float)))
    small = arr < 0.5
    safe = np.where(small, 1.0, arr)
    x2 = arr * arr
    series = x2 * (1.0 / 15.0 + x2 * (-1.0 / 210.0 + x2 * (
        1.0 / 7560.0 + x2 * (-1.0 / 498960.0 + x2 * (1.0 / 51891840.0)))))
    s = np.sin(safe)
    c = np.cos(safe)
    closed = (3.0 / safe**3 - 1.0 / safe) * s - (3.0 / safe**2) * c
    return np.where(small, series, closed)


class TestSharedSinCos:
    GRID = np.concatenate([
        [0.0, -0.0, 0.5, -0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
         0.25, -0.75, 3.0, -3.0],
        np.geomspace(1e-9, 1e3, 4001),
        -np.geomspace(1e-9, 1e3, 301),
        np.random.default_rng(7).uniform(-80.0, 80.0, 4000),
    ])

    def test_arrays_bit_identical_to_separate_formulas(self):
        j0, j2 = j0_j2_stable(self.GRID)
        assert j0.tobytes() == separate_j0(self.GRID).tobytes()
        assert j2.tobytes() == separate_j2(self.GRID).tobytes()
        assert j0_stable(self.GRID).tobytes() == j0.tobytes()
        assert j2_stable(self.GRID).tobytes() == j2.tobytes()

    @pytest.mark.parametrize("x", [0.0, -0.0, 1e-9, 0.3, -0.3, 0.5, -0.7,
                                   7.0, 1e3])
    def test_scalars_bit_identical_to_separate_formulas(self, x):
        j0, j2 = j0_j2_stable(x)
        assert isinstance(j0, float) and isinstance(j2, float)
        assert j0 == float(separate_j0(x)[0]) == j0_stable(x)
        assert j2 == float(separate_j2(x)[0]) == j2_stable(x)
        assert math.copysign(1.0, j2) == math.copysign(1.0, separate_j2(x)[0])

    def test_shape_and_no_warnings(self):
        xs = np.array([[0.0, 0.1], [1.0, 1e-12]])
        with np.errstate(all="raise"):
            j0, j2 = j0_j2_stable(xs)
        assert j0.shape == j2.shape == (2, 2)
