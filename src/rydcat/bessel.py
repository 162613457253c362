"""Spherical Bessel functions needed by the dipole radiation kernel.

Only orders 0 and 2 appear.  The closed trigonometric forms cancel
catastrophically near the origin (the order-2 one loses all digits
below |x| ~ 1e-4), so both switch to truncated Taylor series under a
fixed cutoff.  The series lengths are chosen so the switchover error
stays below 1e-10 in relative terms on either side of the cutoff.
"""

from __future__ import annotations

import numpy as np

_TAYLOR_CUTOFF = 0.5


def j0_j2_stable(x):
    """Spherical Bessel functions of orders 0 and 2, stable at small arguments.

    Both orders come from one tangent of the half angle per element,
    and the Taylor series are evaluated only below the cutoff.  Accepts
    scalars or arrays; returns a pair of the same shape.
    """
    arr = np.abs(np.asarray(x, dtype=float))
    scalar = arr.ndim == 0
    # ``arr`` is a fresh array, so it is overwritten in place, and so are
    # the temporaries of the closed forms: few tile-sized arrays are
    # alive at once.
    safe = np.atleast_1d(arr)
    small = safe < _TAYLOR_CUTOFF
    x_small = safe[small]
    safe[small] = 1.0
    # With h = x/2 and t = tan h, sin x = 2t / (1 + t^2) and
    # cos x = (1 - t^2) / (1 + t^2).  With w = x (1 + t^2),
    #   j0 = sin x / x = 2t / w,
    #   j2 = ((3 - x^2) sin x - 3x cos x) / x^3
    #      = ((t - h) 6/x + t (3t - 2x)) / (x w).
    # The last form leaves j2's cancellation near the cutoff to t - h,
    # which is exact, and to two terms of similar size, so it is more
    # accurate than the sin/cos form.  On AVX-512 hosts numpy's float64
    # tan is a SIMD loop, several times cheaper than libm's sin and cos;
    # it and libm's tan are both within an ulp.
    h = np.multiply(safe, 0.5)
    t = np.tan(h)
    w = t * t
    w += 1.0
    w *= safe
    j0 = t + t
    j0 /= w
    np.subtract(t, h, out=h)
    h *= np.divide(6.0, safe)
    j2 = t * 3.0
    j2 -= safe + safe
    j2 *= t
    j2 += h
    w *= safe
    j2 /= w
    if x_small.size:
        x2 = x_small * x_small
        j0[small] = 1.0 + x2 * (
            -1.0 / 6.0
            + x2 * (1.0 / 120.0 + x2 * (-1.0 / 5040.0 + x2 * (1.0 / 362880.0)))
        )
        j2[small] = x2 * (
            1.0 / 15.0
            + x2
            * (
                -1.0 / 210.0
                + x2
                * (
                    1.0 / 7560.0
                    + x2 * (-1.0 / 498960.0 + x2 * (1.0 / 51891840.0))
                )
            )
        )
    if scalar:
        return float(j0[0]), float(j2[0])
    return j0, j2


def j0_stable(x):
    """Spherical Bessel function of order 0, stable at small arguments.

    Accepts scalars or arrays; returns the same shape.
    """
    return j0_j2_stable(x)[0]


def j2_stable(x):
    """Spherical Bessel function of order 2, stable at small arguments.

    Accepts scalars or arrays; returns the same shape.
    """
    return j0_j2_stable(x)[1]
