"""Independent reference computations used by the tests.

Everything here deliberately avoids the closed forms under test:
solid-angle quadrature instead of the Bessel kernel, explicit mode
functions on an angular grid instead of the matrix reduction, nested
Gaussian-weighted quadrature instead of the thermal closed forms, and
number-basis beam splitting instead of coherent-state algebra.  The
exceptions evaluate the package's own algorithms another way:
``branch_mismatch_longdouble`` runs the branch reduction at higher
precision, so that it measures float64 rounding alone;
``split_two_mode_hermitian`` exponentiates each photon-number sector of
the beam splitter through the complex Hermitian generator, and
``overlap_lemma_brute_force`` builds the lemma's down-branch number
states pair by pair, as the package did before both were vectorized;
``steady_state_mpmath`` solves the steady-state bulk equations as a
dense system at 40 digits.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import spherical_jn

from rydcat.errors import ParameterError
from rydcat.fock import beam_splitter_pair, coherent_state

_N_PHI = 8
_PHIS = 2.0 * np.pi * np.arange(_N_PHI) / _N_PHI


def sep_frame(direction: np.ndarray) -> np.ndarray:
    """Orthonormal triad (rows) with the last axis along ``direction``."""
    e = np.asarray(direction, dtype=float)
    e = e / np.linalg.norm(e)
    helper = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(helper, e)) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    u1 = np.cross(helper, e)
    u1 /= np.linalg.norm(u1)
    u2 = np.cross(e, u1)
    return np.vstack([u1, u2, e])


def _phi_average_pattern(u: float, jones_prime: np.ndarray) -> float:
    # Average of 1 - |n . e|^2 over the azimuth at fixed polar cosine.
    # The integrand is a trigonometric polynomial of degree 2, so the
    # 8-point uniform grid integrates it exactly.
    s = np.sqrt(max(0.0, 1.0 - u * u))
    total = 0.0
    for phi in _PHIS:
        n = np.array([s * np.cos(phi), s * np.sin(phi), u])
        total += 1.0 - abs(np.dot(n, jones_prime)) ** 2
    return total / _N_PHI


def kernel_quadrature(kx: float, jones: np.ndarray, direction) -> complex:
    """Solid-angle integral of the dipole-pattern overlap kernel.

    (3 / 8 pi) * integral over directions of (1 - |n . e|^2) times the
    plane-wave factor at scaled separation ``kx`` along ``direction``.
    """
    frame = sep_frame(direction)
    jones_prime = frame @ np.asarray(jones, dtype=complex)

    def real_part(u):
        return 0.75 * _phi_average_pattern(u, jones_prime) * np.cos(kx * u)

    def imag_part(u):
        return 0.75 * _phi_average_pattern(u, jones_prime) * np.sin(kx * u)

    re, _ = quad(real_part, -1.0, 1.0, limit=400, epsabs=1e-12, epsrel=1e-12)
    im, _ = quad(imag_part, -1.0, 1.0, limit=400, epsabs=1e-12, epsrel=1e-12)
    return re + 1j * im


def pair_overlap_quadrature(x_i, x_j, k_in, jones) -> complex:
    """Full pair overlap by quadrature, drive phase included."""
    x_i = np.asarray(x_i, dtype=float)
    x_j = np.asarray(x_j, dtype=float)
    k_in = np.asarray(k_in, dtype=float)
    sep = x_i - x_j
    dist = np.linalg.norm(sep)
    k = np.linalg.norm(k_in)
    kernel = kernel_quadrature(k * dist, jones, sep)
    return np.exp(-1j * np.dot(k_in, sep)) * kernel


def pair_overlap_mpmath(x_i, x_j, k_in, jones, digits: int = 40):
    """Pair overlap at ``digits`` significant digits, as an mpmath complex.

    The float inputs are taken as exact.  The Bessel functions come from
    mpmath's ``besselj`` and the drive phase from the pair's own
    separation, so neither the closed forms nor the rank-1 phase enter.
    """
    from mpmath import besselj, exp, mp, mpc, mpf, pi, sqrt

    with mp.workdps(digits):
        sep = [mpf(float(a)) - mpf(float(b)) for a, b in zip(x_i, x_j)]
        dist = sqrt(sum(s * s for s in sep))
        if dist == 0:
            return mpc(1)
        k = [mpf(float(c)) for c in k_in]
        proj = abs(sum(s * mpc(complex(e)) for s, e in zip(sep, jones))) / dist
        x = sqrt(sum(c * c for c in k)) * dist
        j0 = sqrt(pi / (2 * x)) * besselj(mpf(1) / 2, x)
        j2 = sqrt(pi / (2 * x)) * besselj(mpf(5) / 2, x)
        kernel = j0 + (mpf(3) / 2 * proj**2 - mpf(1) / 2) * j2
        beta = sum(c * s for c, s in zip(k, sep))
        return exp(mpc(0, -1) * beta) * kernel


def _maxwell_weight(r: float, spread: float) -> float:
    return (
        np.sqrt(2.0 / np.pi) * r**2 * np.exp(-(r**2) / (2.0 * spread**2)) / spread**3
    )


def thermal_mean_quadrature(zeta: float, jones, e_in=(0.0, 0.0, -1.0)) -> complex:
    """Gaussian-cloud average of the pair overlap by nested quadrature.

    Works in units where the wavenumber is 1, so the pair separation is
    Maxwell-distributed with spread ``zeta``.  The polar axis follows
    the drive direction; the azimuth is handled by the exact grid.
    """
    frame = sep_frame(np.asarray(e_in, dtype=float))
    jones_prime = frame @ np.asarray(jones, dtype=complex)

    def _mean_proj_sq(u):
        s = np.sqrt(max(0.0, 1.0 - u * u))
        total = 0.0
        for phi in _PHIS:
            n = np.array([s * np.cos(phi), s * np.sin(phi), u])
            total += abs(np.dot(n, jones_prime)) ** 2
        return total / _N_PHI

    def inner(r, trig):
        j0r = spherical_jn(0, r)
        j2r = spherical_jn(2, r)

        def integrand(u):
            # The Legendre weight is affine in the squared projection,
            # so averaging the projection first is exact.
            v = j0r + 0.5 * (3.0 * _mean_proj_sq(u) - 1.0) * j2r
            return v * trig(r * u)

        value, _ = quad(integrand, -1.0, 1.0, limit=400, epsabs=1e-11, epsrel=1e-11)
        return 0.5 * value

    upper = 8.0 * zeta
    re, _ = quad(
        lambda r: _maxwell_weight(r, zeta) * inner(r, np.cos),
        0.0,
        upper,
        limit=400,
        epsabs=1e-10,
        epsrel=1e-10,
    )
    im, _ = quad(
        lambda r: _maxwell_weight(r, zeta) * inner(r, np.sin),
        0.0,
        upper,
        limit=400,
        epsabs=1e-10,
        epsrel=1e-10,
    )
    # The drive phase is exp(-i k . x); with the polar axis along the
    # drive it contributes cos(r u) - i sin(r u).
    return re - 1j * im


def thermal_mean_sq_quadrature(zeta: float, jones, e_in=(0.0, 0.0, -1.0)) -> float:
    """Gaussian-cloud average of the squared kernel magnitude."""
    frame = sep_frame(np.asarray(e_in, dtype=float))
    jones_prime = frame @ np.asarray(jones, dtype=complex)

    def inner(r):
        j0r = spherical_jn(0, r)
        j2r = spherical_jn(2, r)

        def integrand(u):
            s = np.sqrt(max(0.0, 1.0 - u * u))
            total = 0.0
            for phi in _PHIS:
                n = np.array([s * np.cos(phi), s * np.sin(phi), u])
                proj_sq = abs(np.dot(n, jones_prime)) ** 2
                v = j0r + 0.5 * (3.0 * proj_sq - 1.0) * j2r
                total += v * v
            return total / _N_PHI

        value, _ = quad(integrand, -1.0, 1.0, limit=200, epsabs=1e-11, epsrel=1e-11)
        return 0.5 * value

    result, _ = quad(
        lambda r: _maxwell_weight(r, zeta) * inner(r),
        0.0,
        8.0 * zeta,
        limit=400,
        epsabs=1e-10,
        epsrel=1e-10,
    )
    return result


def grid_collective_overlap(
    positions, k_in, jones, n_polar: int = 60, n_azimuth: int = 40
) -> complex:
    """Branch overlap from explicit mode functions on an angular grid.

    Builds the vector-valued radiation pattern of every atom on a
    Gauss-Legendre polar grid crossed with a uniform azimuthal grid,
    forms the two collective modes directly as grid functions, and
    takes their inner product by quadrature.
    """
    positions = np.asarray(positions, dtype=float)
    k_in = np.asarray(k_in, dtype=float)
    jones = np.asarray(jones, dtype=complex)
    k = np.linalg.norm(k_in)
    n_atoms = positions.shape[0]

    u_nodes, u_weights = np.polynomial.legendre.leggauss(n_polar)
    phis = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    dirs = []
    weights = []
    for u, w in zip(u_nodes, u_weights):
        s = np.sqrt(max(0.0, 1.0 - u * u))
        for phi in phis:
            dirs.append([s * np.cos(phi), s * np.sin(phi), u])
            weights.append(w * 2.0 * np.pi / n_azimuth)
    dirs = np.array(dirs)
    weights = np.array(weights) * 3.0 / (8.0 * np.pi)

    # Transverse dipole pattern, one 3-vector per direction.
    proj = dirs @ jones
    transverse = jones[None, :] - dirs * proj[:, None]

    def inner(a, b):
        return complex(np.sum(weights[:, None] * np.conj(a) * b))

    modes = []
    for i in range(n_atoms):
        phase = np.exp(1j * (positions[i] @ k_in) - 1j * k * (dirs @ positions[i]))
        modes.append(transverse * phase[:, None])

    g_dn = np.sum(modes, axis=0)
    n_dn = inner(g_dn, g_dn).real
    g_up = np.zeros_like(g_dn)
    for i in range(n_atoms):
        punctured = g_dn - modes[i]
        g_up = g_up + punctured / np.sqrt(inner(punctured, punctured).real)
    n_up = inner(g_up, g_up).real
    return inner(g_up, g_dn) / np.sqrt(n_up * n_dn)


def branch_mismatch_longdouble(s, block: int = 256):
    """Branch mismatch b of a dense overlap matrix, in np.clongdouble.

    The cancellation-free reduction of ``overlap._branch_overlap`` with
    every step after the float64 matrix in extended precision: row
    sums, the blockaded-mode weights, the quadratic form (``block`` rows
    at a time) and b = (1 - |c|) + 2 |c| sin^2(arg(c) / 2).  Returns a
    ``np.longdouble``.
    """
    s = np.asarray(s)
    n = s.shape[0]
    row = s.sum(axis=1, dtype=np.clongdouble)
    r = row.real
    n_dn = r.sum()
    root = np.sqrt(n_dn - 2 * r + 1)
    r_mean = r.mean()
    root_mean = np.sqrt(n_dn - 2 * r_mean + 1)
    dev = 2 * (r - r_mean) / (root * root_mean * (root + root_mean))
    dev -= dev.mean()
    eps = dev / ((n - 1) * (1 / root).mean())
    a = (eps * row).sum()
    e = sum(
        eps[i:i + block] @ (s[i:i + block].real.astype(np.longdouble) @ eps)
        for i in range(0, n, block)
    )
    loss = (e - (a.real**2 + a.imag**2) / n_dn) / (n_dn - 2 * a.real + e)
    mod = np.sqrt(1 - loss)
    half = np.sin(np.angle(n_dn - a) / 2)
    return loss / (1 + mod) + 2 * mod * half * half


def beam_splitter_factor_fock(
    alpha_up: complex, alpha_dn: complex, loss: float, cutoff: int
) -> complex:
    """Visibility factor of a lossy beam splitter, in the number basis.

    Splits each branch amplitude against vacuum, then divides the full
    two-mode overlap by the transmitted-mode overlap computed from the
    recurrence vectors.  Returns the factor that multiplies the cat
    coherence (conjugated to the ket phase convention).
    """
    transmission = 1.0 - loss
    psi_up = beam_splitter_pair(alpha_up, transmission, cutoff)
    psi_dn = beam_splitter_pair(alpha_dn, transmission, cutoff)
    t_amp = np.sqrt(transmission)
    num = np.vdot(psi_dn, psi_up)
    den = np.vdot(
        coherent_state(t_amp * alpha_dn, cutoff),
        coherent_state(t_amp * alpha_up, cutoff),
    )
    return complex(np.conj(num / den))


def split_two_mode_hermitian(state: np.ndarray, transmission: float) -> np.ndarray:
    """``fock.split_two_mode`` by the complex Hermitian generator of each sector.

    One sector at a time, in Python loops: the eigenbasis of the
    Hermitian 1j * gen instead of that of the real tridiagonal matrix.
    """
    if not 0.0 <= transmission <= 1.0:
        raise ParameterError(
            f"transmission must be in [0, 1], got {transmission!r}"
        )
    if state.ndim != 2 or state.shape[0] != state.shape[1]:
        raise ParameterError("state must be a square two-mode array")
    dim = state.shape[0]
    angle = math.acos(math.sqrt(transmission))
    out = np.zeros_like(state, dtype=complex)
    for total in range(2 * dim - 1):
        # Basis of the sector: |total - k, k> for admissible k.
        k_lo = max(0, total - dim + 1)
        k_hi = min(total, dim - 1)
        size = k_hi - k_lo + 1
        if size == 1:
            k = k_lo
            out[total - k, k] += state[total - k, k]
            continue
        gen = np.zeros((size, size))
        for idx in range(size - 1):
            k = k_lo + idx
            # a b-dagger moves a photon into the reflected mode.
            step = math.sqrt((k + 1) * (total - k))
            gen[idx + 1, idx] = step
            gen[idx, idx + 1] = -step
        # angle * gen is anti-Hermitian: exponentiate it in the
        # eigenbasis of the Hermitian 1j * gen.
        phases, vecs = np.linalg.eigh(1j * gen)
        amps = np.array([state[total - k, k] for k in range(k_lo, k_hi + 1)])
        mixed = vecs @ (np.exp(-1j * angle * phases) * (vecs.conj().T @ amps))
        for idx in range(size):
            k = k_lo + idx
            out[total - k, k] = mixed[idx]
    return out


def overlap_lemma_brute_force(
    c_up_dn: complex, alpha_up: complex, alpha_dn: complex, cutoff: int
) -> complex:
    """``fock_overlap_lemma_check(...).brute_force`` with a pair-by-pair grid.

    The down-branch number states are filled one (n, k) entry at a time
    with ``math.exp`` and complex powers.
    """
    dim = cutoff + 1
    c_perp = math.sqrt(max(0.0, 1.0 - abs(c_up_dn) ** 2))
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim)))))
    down_states = np.zeros((dim, dim, dim), dtype=complex)
    for n in range(dim):
        for k in range(n + 1):
            log_binom = log_fact[n] - log_fact[k] - log_fact[n - k]
            coeff = math.exp(0.5 * log_binom) * (c_up_dn ** (n - k)) * (c_perp**k)
            down_states[n, n - k, k] = coeff
    dn_grid = np.tensordot(coherent_state(alpha_dn, cutoff), down_states, axes=(0, 0))
    up_grid = np.zeros_like(dn_grid)
    up_grid[:, 0] = coherent_state(alpha_up, cutoff)
    return complex(np.vdot(up_grid, dn_grid))


def steady_state_mpmath(params, det, branch, e_in, digits: int = 40):
    """``(e_cav, p_medium, s_spinwave)`` at ``digits`` digits, as mpmath complexes.

    The float64 matrix entries and drive, formed as ``steady`` forms
    them, are taken as exact, and the dense 3 x 3 system is solved by
    mpmath's pivoted LU decomposition: the result differs from the
    float64 solve by that solve's rounding alone.
    """
    from mpmath import lu_solve, matrix, mp, mpc

    g = math.sqrt(params.cooperativity * params.kappa * params.gamma)
    delta_2 = det.delta_2(branch)
    if abs(delta_2) == math.inf:
        half_omega, spin = 0.0, 1.0
    else:
        half_omega = 0.5 * params.omega_c
        spin = complex(0.5 * params.gamma_rg, -delta_2)
    rows = [
        [complex(params.kappa, -det.delta_c), -1j * g, 0.0],
        [-1j * g, complex(params.gamma, -det.delta_s), -1j * half_omega],
        [0.0, -1j * half_omega, spin],
    ]
    drive = math.sqrt(2.0 * params.kappa_in) * complex(e_in)
    with mp.workdps(digits):
        a = matrix([[mpc(entry) for entry in row] for row in rows])
        x = lu_solve(a, matrix([mpc(drive), mpc(0), mpc(0)]))
        return [x[i] for i in range(3)]
