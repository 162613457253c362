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


# The closed forms as j0_j2_stable evaluated them before it took a
# half-angle tangent: one sin and one cos per element, series and closed
# form blended with np.where over the whole array.  The accuracy
# reference of the half-angle forms.
def sin_cos_j0(x):
    arr = np.atleast_1d(np.abs(np.asarray(x, dtype=float)))
    small = arr < 0.5
    safe = np.where(small, 1.0, arr)
    return np.where(small, series_j0(arr), np.sin(safe) / safe)


def sin_cos_j2(x):
    arr = np.atleast_1d(np.abs(np.asarray(x, dtype=float)))
    small = arr < 0.5
    safe = np.where(small, 1.0, arr)
    s = np.sin(safe)
    c = np.cos(safe)
    closed = (3.0 / safe**3 - 1.0 / safe) * s - (3.0 / safe**2) * c
    return np.where(small, series_j2(arr), closed)


def series_j0(arr):
    x2 = arr * arr
    return 1.0 + x2 * (
        -1.0 / 6.0
        + x2 * (1.0 / 120.0 + x2 * (-1.0 / 5040.0 + x2 * (1.0 / 362880.0)))
    )


def series_j2(arr):
    x2 = arr * arr
    return x2 * (1.0 / 15.0 + x2 * (-1.0 / 210.0 + x2 * (
        1.0 / 7560.0 + x2 * (-1.0 / 498960.0 + x2 * (1.0 / 51891840.0)))))


# The half-angle forms of j0_j2_stable written out per order, each with
# its own tangent and np.where over the whole array: with h = x/2,
# t = tan h and w = x (1 + t^2), j0 = 2t / w and
# j2 = ((t - h) 6/x + t (3t - 2x)) / (x w).
def half_angle_parts(x):
    arr = np.atleast_1d(np.abs(np.asarray(x, dtype=float)))
    small = arr < 0.5
    safe = np.where(small, 1.0, arr)
    half = 0.5 * safe
    t = np.tan(half)
    return arr, small, safe, half, t, safe * (1.0 + t * t)


def half_angle_j0(x):
    arr, small, _, _, t, w = half_angle_parts(x)
    return np.where(small, series_j0(arr), (t + t) / w)


def half_angle_j2(x):
    arr, small, safe, half, t, w = half_angle_parts(x)
    closed = ((t - half) * (6.0 / safe) + t * (3.0 * t - 2.0 * safe)) / (safe * w)
    return np.where(small, series_j2(arr), closed)


def mpmath_closed_forms(xs):
    # j0 and j2 from their closed forms at 50 digits, enough to absorb
    # the cancellation of j2's closed form near the Taylor cutoff; the
    # same values as mpmath_reference's besselj, in a tenth of the time.
    from mpmath import cos, mp, mpf, sin

    mp.dps = 50
    j0, j2 = [], []
    for x in xs:
        mx = mpf(float(x))
        s, c = sin(mx), cos(mx)
        j0.append(float(s / mx))
        j2.append(float((3 / mx**3 - 1 / mx) * s - 3 * c / mx**2))
    return np.array(j0), np.array(j2)


def near(points):
    # Each point and its float neighbours.
    return np.concatenate([np.nextafter(points, 0.0), points,
                           np.nextafter(points, np.inf)])


class TestSharedSinCos:
    # Both orders share one sin and cos of x, formed from one tangent of
    # the half angle.
    GRID = np.concatenate([
        [0.0, -0.0, 0.5, -0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
         0.25, -0.75, 3.0, -3.0],
        np.geomspace(1e-9, 1e3, 4001),
        -np.geomspace(1e-9, 1e3, 301),
        np.random.default_rng(7).uniform(-80.0, 80.0, 4000),
    ])
    # The closed-form range, denser where j2's closed form cancels, with
    # the poles of tan(x/2) (odd multiples of pi) and the zeros of sin x
    # (even ones).
    CLOSED = np.concatenate([
        np.linspace(0.5, 400.0, 4001),
        np.random.default_rng(3).uniform(0.5, 3.0, 2000),
        near(np.pi * np.arange(1, 128)),
    ])

    def test_arrays_bit_identical_to_separate_formulas(self):
        j0, j2 = j0_j2_stable(self.GRID)
        assert j0.tobytes() == half_angle_j0(self.GRID).tobytes()
        assert j2.tobytes() == half_angle_j2(self.GRID).tobytes()
        assert j0_stable(self.GRID).tobytes() == j0.tobytes()
        assert j2_stable(self.GRID).tobytes() == j2.tobytes()

    @pytest.mark.parametrize("x", [0.0, -0.0, 1e-9, 0.3, -0.3, 0.5, -0.7,
                                   7.0, 1e3])
    def test_scalars_bit_identical_to_separate_formulas(self, x):
        j0, j2 = j0_j2_stable(x)
        assert isinstance(j0, float) and isinstance(j2, float)
        assert j0 == float(half_angle_j0(x)[0]) == j0_stable(x)
        assert j2 == float(half_angle_j2(x)[0]) == j2_stable(x)
        assert math.copysign(1.0, j2) == math.copysign(1.0, half_angle_j2(x)[0])

    def test_shape_and_no_warnings(self):
        xs = np.array([[0.0, 0.1], [1.0, 1e-12]])
        with np.errstate(all="raise"):
            j0, j2 = j0_j2_stable(xs)
        assert j0.shape == j2.shape == (2, 2)

    def test_within_twice_the_sin_cos_error(self):
        # Against 50-digit values, the half-angle forms' largest absolute
        # error stays within twice that of the sin/cos forms on the same
        # points (measured: 2.2e-16 against 1.1e-16 for j0, 1.0e-15
        # against 3.2e-15 for j2, both largest below x = 1.1).
        xs = self.CLOSED
        exact = mpmath_closed_forms(xs)
        new = j0_j2_stable(xs)
        old = sin_cos_j0(xs), sin_cos_j2(xs)
        for got, ref, want in zip(new, old, exact):
            assert np.max(np.abs(got - want)) <= 2.0 * np.max(np.abs(ref - want))
        # Beyond x = 3 both orders stay within 1.2e-16 of the exact values.
        far = xs > 3.0
        for got, want in zip(new, exact):
            assert np.max(np.abs(got[far] - want[far])) <= 1.2e-16

    def test_numpy_tan_within_one_ulp(self):
        # The kernel's accuracy rests on numpy's float64 tan, a SIMD loop
        # on some hosts and libm on others; a numpy whose tan drifts past
        # an ulp fails here rather than in the Monte Carlo.  Points span
        # [0, 1e4], with neighbours of the poles of tan.
        from mpmath import mp, mpf, tan

        mp.dps = 50
        poles = (np.arange(0, 3183, 20) + 0.5) * np.pi
        xs = np.concatenate([
            np.linspace(0.0, 1e4, 1001),
            np.random.default_rng(11).uniform(0.0, 1e4, 500),
            near(poles),
        ])
        for x, got in zip(xs, np.tan(xs)):
            exact = tan(mpf(float(x)))
            assert abs(mpf(float(got)) - exact) <= np.spacing(abs(float(exact))), x
