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

    Both orders share one ``sin`` and one ``cos`` per element, and the
    Taylor series are evaluated only below the cutoff.  Accepts scalars
    or arrays; returns a pair of the same shape.
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
    s = np.sin(safe)
    c = np.cos(safe)
    j0 = s / safe
    # j2 = (3 / safe**3 - 1 / safe) * s - (3 / safe**2) * c
    j2 = safe**3
    np.divide(3.0, j2, out=j2)
    j2 -= 1.0 / safe
    j2 *= s
    c *= np.divide(3.0, safe**2, out=s)
    j2 -= c
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
