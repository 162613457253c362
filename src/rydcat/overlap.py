"""Radiated-mode overlaps of dipoles in a cold-atom cloud.

A photon scattered collectively by the cloud leaves in a superposition
of dipole-radiation patterns anchored at the atom positions.  The
overlap of two such patterns depends on the pair separation through
spherical Bessel kernels and on the incident polarization through a
Legendre factor; a plane-wave phase from the drive multiplies it.  From
the pairwise overlap matrix this module reduces the full-cloud overlap
between the two qubit branches, whose shortfall from unity is the
mode-mismatch decoherence fed into the cat loss budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bessel import j0_j2_stable
from .errors import NumericalError, ParameterError


def legendre_p2(x):
    """Second Legendre polynomial."""
    x = np.asarray(x, dtype=float)
    out = 1.5 * x * x - 0.5
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class Polarization:
    """Unit Jones vector of the incident field."""

    jones: np.ndarray

    def __post_init__(self):
        jones = np.asarray(self.jones, dtype=complex)
        if jones.shape != (3,):
            raise ParameterError(f"jones must have shape (3,), got {jones.shape}")
        norm_sq = float(np.vdot(jones, jones).real)
        if abs(norm_sq - 1.0) > 1e-12:
            raise ParameterError(
                f"jones vector must be normalized, |e|^2 = {norm_sq!r}"
            )
        object.__setattr__(self, "jones", jones)

    @property
    def self_overlap(self) -> float:
        """Magnitude of the unconjugated self product e . e.

        1 for linear polarization, 0 for circular; controls the
        mean-square pair overlap of a thermal cloud.
        """
        return float(abs(np.sum(self.jones * self.jones)))

    @classmethod
    def circular(cls) -> "Polarization":
        return cls(np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0))

    @classmethod
    def linear(cls, axis=(1.0, 0.0, 0.0)) -> "Polarization":
        axis = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(axis)
        if norm == 0.0:
            raise ParameterError("linear polarization axis cannot be zero")
        return cls((axis / norm).astype(complex))


@dataclass(frozen=True, eq=False)
class AtomCloud:
    """Fixed atom positions and the incident wavevector.

    ``sigmas`` is optional provenance of a Gaussian draw; it does not
    affect any computation.
    """

    positions: np.ndarray
    k_in: np.ndarray
    sigmas: tuple[float, float, float] | None = None

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=float)
        k_in = np.asarray(self.k_in, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ParameterError(
                f"positions must have shape (N, 3), got {positions.shape}"
            )
        if positions.shape[0] < 2:
            raise ParameterError("need at least two atoms")
        if k_in.shape != (3,):
            raise ParameterError(f"k_in must have shape (3,), got {k_in.shape}")
        if np.linalg.norm(k_in) == 0.0:
            raise ParameterError("k_in cannot be the zero vector")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "k_in", k_in)

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    @property
    def wavenumber(self) -> float:
        return float(np.linalg.norm(self.k_in))

    @classmethod
    def sample(
        cls,
        n_atoms: int,
        sigmas,
        wavelength: float,
        rng: np.random.Generator,
        direction=(0.0, 0.0, -1.0),
    ) -> "AtomCloud":
        """Draw a Gaussian cloud illuminated along ``direction``."""
        if wavelength <= 0.0:
            raise ParameterError(f"wavelength must be > 0, got {wavelength!r}")
        sig = np.asarray(sigmas, dtype=float)
        if sig.shape != (3,) or np.any(sig <= 0.0):
            raise ParameterError("sigmas must be three positive lengths")
        k_in = incident_wavevector(wavelength, direction)
        # Standard normals scaled per axis: the same draws, bit for bit,
        # as rng.normal(0.0, sig, size), and the form the Monte Carlo
        # uses on its stacked clouds.
        positions = rng.standard_normal((n_atoms, 3)) * sig
        return cls(
            positions=positions,
            k_in=k_in,
            sigmas=tuple(float(s) for s in sig),
        )


def incident_wavevector(wavelength: float, direction) -> np.ndarray:
    """Wavevector of a drive of ``wavelength`` travelling along ``direction``."""
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        raise ParameterError("direction cannot be the zero vector")
    k = 2.0 * np.pi / wavelength
    return k * direction / norm


def pair_overlap_projected(kx, projection):
    """Real overlap kernel at scaled separation ``kx``.

    ``projection`` is the magnitude of the dot product between the unit
    separation vector and the Jones vector.  Vectorized in ``kx``.
    """
    j0, j2 = j0_j2_stable(kx)
    return j0 + legendre_p2(projection) * j2


def pair_overlap(x_i, x_j, k_in, polarization: Polarization) -> complex:
    """Overlap of the radiation patterns of two driven dipoles.

    Includes the drive phase factor between the two sites.  Coincident
    atoms overlap perfectly.
    """
    x_i = np.asarray(x_i, dtype=float)
    x_j = np.asarray(x_j, dtype=float)
    k_in = np.asarray(k_in, dtype=float)
    sep = x_i - x_j
    dist = float(np.linalg.norm(sep))
    if dist == 0.0:
        return 1.0 + 0.0j
    proj = abs(np.sum(sep * polarization.jones)) / dist
    kernel = pair_overlap_projected(float(np.linalg.norm(k_in)) * dist, proj)
    beta = float(np.dot(k_in, sep))
    return complex(np.exp(-1j * beta) * kernel)


@dataclass(frozen=True, eq=False)
class OverlapMatrix:
    """Hermitian pairwise overlap matrix with unit diagonal."""

    s: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=complex)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ParameterError(f"s must be square, got shape {s.shape}")
        object.__setattr__(self, "s", s)

    @property
    def n_atoms(self) -> int:
        return self.s.shape[0]

    def validate(self, atol: float = 1e-12) -> None:
        """Check hermiticity and the unit diagonal."""
        if np.max(np.abs(self.s - self.s.conj().T)) > atol:
            raise ParameterError("overlap matrix is not Hermitian")
        if np.max(np.abs(np.diagonal(self.s) - 1.0)) > atol:
            raise ParameterError("overlap matrix diagonal is not 1")


def pair_overlaps(
    positions: np.ndarray, k_in: np.ndarray, jones: np.ndarray
) -> np.ndarray:
    """Overlaps of the atom pairs i < j of each cloud in a stack.

    ``positions`` has shape (R, N, 3); the result has shape (R, P) with
    P = N(N - 1)/2, pairs in ``np.triu_indices(N, 1)`` order.  The other
    triangle of each matrix is the complex conjugate, so it is never
    evaluated.  Every pair goes through the same elementwise arithmetic
    whatever the stack, so a cloud's overlaps do not depend on R.

    The drive phase is rank 1, exp(-i k.(x_i - x_j)) = e_i conj(e_j)
    with e = exp(-i k.x), so its cosine and sine are taken once per atom;
    each pair costs one square root, one sine and one cosine.
    """
    iu, ju = _upper_pairs(positions.shape[1])
    diffs = np.take(positions, iu, axis=1) - np.take(positions, ju, axis=1)
    # np.linalg.norm's sum of squares in its order, bit for bit, without
    # its copy or a reduction over a length-3 axis (10x slower).
    sq = diffs * diffs
    dist = np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])
    safe = np.where(dist == 0.0, 1.0, dist)
    # Magnitude of the separation direction projected on the Jones
    # vector.  Coincident pairs get an arbitrary value; the order-2
    # kernel vanishes there, so it never enters.
    proj = np.abs(_project(diffs, jones)) / safe
    j0, j2 = j0_j2_stable(float(np.linalg.norm(k_in)) * dist)
    kernel = j0 + legendre_p2(proj) * j2
    phase = _drive_phase(positions, k_in)
    return np.take(phase, iu, axis=1) * np.take(phase.conj(), ju, axis=1) * kernel


# Veltkamp's splitter 2**27 + 1: the halves of two split float64s
# multiply exactly.
_SPLIT = 134217729.0


def _two_product(a, b):
    # a * b = p + err exactly (Dekker), with no fused multiply-add.
    p = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _two_sum(a, b):
    # a + b = s + err exactly (Knuth).
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _drive_phase(positions: np.ndarray, k_in: np.ndarray) -> np.ndarray:
    """exp(-i k.x) of each atom of an (..., 3) array, good to an ulp.

    k.x is carried as hi + lo, exact to ~1e-31 relative, and the phase
    of hi is turned by lo to first order (|lo| <= ulp(hi), so the
    second order is below 1e-24).  A rounded k.x would carry ulp(k.x)
    into every pair: 3e-15 on a close pair at the edge of the reference
    cloud, 5e-14 on one 100 um from the origin.
    """
    x = np.moveaxis(positions, -1, 0)
    hi, lo = _two_product(x[0], k_in[0])
    for axis in (1, 2):
        p, err = _two_product(x[axis], k_in[axis])
        hi, err_sum = _two_sum(hi, p)
        lo = lo + (err_sum + err)
    cos, sin = np.cos(hi), np.sin(hi)
    phase = np.empty(hi.shape, dtype=complex)
    phase.real = cos - sin * lo
    phase.imag = -(sin + cos * lo)
    return phase


@lru_cache(maxsize=32)
def _upper_pairs(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    # np.triu_indices(n_atoms, 1), built once per atom number and shared
    # read-only; 32 atom numbers cover a default power-law scan.
    pairs = np.triu_indices(n_atoms, k=1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _project(diffs: np.ndarray, vector: np.ndarray) -> np.ndarray:
    # Contract the last axis through BLAS's matrix-vector product.  numpy
    # sends a single row to BLAS's dot product instead, which rounds
    # differently, so a lone pair is evaluated twice and rounds like the
    # pairs of any larger stack.
    if diffs.shape[0] * diffs.shape[1] == 1:
        twice = np.concatenate([diffs, diffs])
        return np.tensordot(twice, vector, axes=(-1, 0))[:1]
    return np.tensordot(diffs, vector, axes=(-1, 0))


def hermitian_stack(pairs: np.ndarray, n_atoms: int) -> np.ndarray:
    """The (R, N, N) overlap matrices of stacked pair overlaps.

    Unit diagonal, ``pairs`` above it and their conjugates below.
    """
    iu, ju = _upper_pairs(n_atoms)
    s = np.empty((pairs.shape[0], n_atoms, n_atoms), dtype=complex)
    s[:, iu, ju] = pairs
    s[:, ju, iu] = pairs.conj()
    diag = np.arange(n_atoms)
    s[:, diag, diag] = 1.0
    return s


def overlap_matrix(cloud: AtomCloud, polarization: Polarization) -> OverlapMatrix:
    """All pairwise overlaps of the cloud, at fixed positions."""
    pairs = pair_overlaps(cloud.positions[None], cloud.k_in, polarization.jones)
    return OverlapMatrix(s=hermitian_stack(pairs, cloud.n_atoms)[0])


def _check_overlap_magnitude(c: complex) -> None:
    if abs(c) > 1.0 + 1e-9:
        raise ParameterError(
            f"collective overlap magnitude cannot exceed 1, got {c!r}"
        )


@dataclass(frozen=True, eq=False)
class CollectiveOverlap:
    """Branch overlap of the collective radiated modes.

    ``c_up_dn`` is the complex overlap, ``b_up_dn`` the mode mismatch
    fed to the loss budget, ``per_atom`` the normalizations of the
    blockade-punctured modes.
    """

    c_up_dn: complex
    b_up_dn: float
    per_atom: np.ndarray | None = None

    def __post_init__(self):
        _check_overlap_magnitude(self.c_up_dn)


def collective_stack(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce a stack of pairwise matrices to the branch overlaps.

    ``s`` has shape (R, N, N); returns the overlaps ``c_up_dn`` (R,), the
    mismatches ``b_up_dn = 1 - Re c`` (R,) and the punctured-mode
    normalizations ``per_atom`` (R, N).  The transparent branch radiates
    the fully symmetric collective mode.  In the blockaded branch the
    excited atom drops out, and the blockade mixes the punctured modes
    with equal weight; the reduction sums them without ever forming the
    N x N x N intermediate.

    Each member is reduced exactly as a lone matrix would be: the
    scalar steps repeat, elementwise, what Python floats did per run
    (``t0**2`` is libm ``pow``, and a complex over a real divides both
    parts), so stacking never moves a bit.
    """
    r, n, _ = s.shape
    row = s.sum(axis=2)
    n_dn = s.reshape(r, n * n).sum(axis=1).real
    if np.any(n_dn <= 0.0):
        raise NumericalError("nonpositive normalization of the symmetric mode")
    per_atom = n_dn[:, None] - 2.0 * row.real + 1.0
    if np.any(per_atom <= 0.0):
        raise NumericalError("nonpositive normalization of a punctured mode")
    inv = 1.0 / np.sqrt(per_atom)
    t0 = inv.sum(axis=1)
    t1 = (inv * row).sum(axis=1)
    t2 = (inv[:, None, :] @ s @ inv[:, :, None])[:, 0, 0].real
    n_up = n_dn * np.float_power(t0, 2.0) - 2.0 * t0 * t1.real + t2
    if np.any(n_up <= 0.0):
        raise NumericalError("nonpositive normalization of the blockaded mode")
    norm = np.sqrt(n_dn * n_up)
    c = np.empty(r, dtype=complex)
    c.real = (n_dn * t0 - t1.real) / norm
    c.imag = (0.0 - t1.imag) / norm
    over = np.abs(c) > 1.0 + 1e-9
    if np.any(over):
        _check_overlap_magnitude(complex(c[np.argmax(over)]))
    return c, 1.0 - c.real, per_atom


def collective_from_matrix(matrix: OverlapMatrix) -> CollectiveOverlap:
    """Reduce the pairwise matrix to the branch overlap.

    The one-matrix case of ``collective_stack``.
    """
    if matrix.n_atoms < 2:
        raise ParameterError("need at least two atoms")
    c, b, per_atom = collective_stack(matrix.s[None])
    return CollectiveOverlap(
        c_up_dn=complex(c[0]), b_up_dn=float(b[0]), per_atom=per_atom[0]
    )


def collective_overlap(
    cloud: AtomCloud, polarization: Polarization
) -> CollectiveOverlap:
    """Branch overlap of a cloud, straight from the positions."""
    return collective_from_matrix(overlap_matrix(cloud, polarization))


def pair_moments(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and mean squared magnitude of each row of an (R, P) stack."""
    count = pairs.shape[1]
    return pairs.sum(axis=1) / count, (np.abs(pairs) ** 2).sum(axis=1) / count


def pair_statistics(matrix: OverlapMatrix) -> tuple[complex, float]:
    """Mean pair overlap and mean squared magnitude over distinct pairs."""
    n = matrix.n_atoms
    if n < 2:
        raise ParameterError("need at least two atoms")
    iu, ju = _upper_pairs(n)
    mean, mean_sq = pair_moments(matrix.s[iu, ju][None])
    return complex(mean[0]), float(mean_sq[0])
