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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bessel import j0_j2_stable
from .errors import NumericalError, ParameterError, _integer


def legendre_p2(x):
    """Second Legendre polynomial."""
    if type(x) is float:
        return 1.5 * x * x - 0.5
    x = np.asarray(x, dtype=float)
    out = 1.5 * x * x - 0.5
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class Polarization:
    """Unit Jones vector of the incident field.

    Besides the array ``jones``, a read-only copy of the vector given, it
    keeps the three components as Python complex numbers and the self
    overlap, for the scalar closed forms.
    """

    jones: np.ndarray

    def __post_init__(self):
        jones = np.array(self.jones, dtype=complex)
        if jones.shape != (3,):
            raise ParameterError(f"jones must have shape (3,), got {jones.shape}")
        norm_sq = float(np.vdot(jones, jones).real)
        if not abs(norm_sq - 1.0) <= 1e-12:
            raise ParameterError(
                f"jones vector must be normalized, |e|^2 = {norm_sq!r}"
            )
        jones.flags.writeable = False
        object.__setattr__(self, "jones", jones)
        object.__setattr__(self, "_components", tuple(jones.tolist()))
        object.__setattr__(
            self, "_self_overlap", float(abs(np.sum(jones * jones)))
        )

    @property
    def self_overlap(self) -> float:
        """Magnitude of the unconjugated self product e . e.

        1 for linear polarization, 0 for circular; controls the
        mean-square pair overlap of a thermal cloud.
        """
        return self._self_overlap

    @classmethod
    def circular(cls) -> "Polarization":
        return cls(np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0))

    @classmethod
    def linear(cls, axis=(1.0, 0.0, 0.0)) -> "Polarization":
        """Linear polarization along ``axis``, any finite nonzero vector.

        Where ``axis . axis`` leaves the normal float64 range, the axis
        is first divided by its largest component, so a tiny or huge
        axis is normalized without underflow or overflow.
        """
        axis = np.asarray(axis, dtype=float)
        with np.errstate(over="ignore"):
            norm_sq = float(np.vdot(axis, axis))
        if not _TINY <= norm_sq < math.inf:
            top = float(np.max(np.abs(axis), initial=0.0))
            if not top < math.inf:
                raise ParameterError(
                    f"linear polarization axis must be finite, got {axis.tolist()!r}"
                )
            if top > 0.0:
                axis = axis / top
                norm_sq = float(np.vdot(axis, axis))
        if norm_sq == 0.0:
            raise ParameterError("linear polarization axis cannot be zero")
        return cls((axis / math.sqrt(norm_sq)).astype(complex))


@dataclass(frozen=True, eq=False)
class AtomCloud:
    """Fixed atom positions and the incident wavevector."""

    positions: np.ndarray
    k_in: np.ndarray

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=float)
        k_in = np.asarray(self.k_in, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ParameterError(
                f"positions must have shape (N, 3), got {positions.shape}"
            )
        if positions.shape[0] < 2:
            raise ParameterError("need at least two atoms")
        if not (np.all(np.isfinite(positions)) and np.all(np.isfinite(k_in))):
            raise ParameterError("positions and k_in must be finite")
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
        n_atoms = _integer("n_atoms", n_atoms, minimum=2)
        sig = _cloud_widths(sigmas)
        k_in = incident_wavevector(wavelength, direction)
        # Standard normals scaled per axis: the same draws, bit for bit,
        # as rng.normal(0.0, sig, size), and the form the Monte Carlo
        # uses on its stacked clouds.
        return cls(positions=rng.standard_normal((n_atoms, 3)) * sig, k_in=k_in)


def incident_wavevector(wavelength: float, direction) -> np.ndarray:
    """Wavevector of a drive of ``wavelength`` travelling along ``direction``.

    The one check of a drive: ``wavelength`` must be finite and > 0, and
    ``direction`` three finite numbers, not all zero.
    """
    if not 0.0 < wavelength < np.inf:
        raise ParameterError(
            f"wavelength must be finite and > 0, got {wavelength!r}"
        )
    components, norm = _direction_norm(direction)
    k = 2.0 * np.pi / wavelength
    return np.array([k * c / norm for c in components])


def _direction_norm(direction) -> tuple[tuple[float, float, float], float]:
    """A drive direction as three Python floats, and its length.

    The one check of a direction: three finite numbers, not all zero.
    The length is sqrt(x*x + y*y + z*z) in Python floats, so a vector
    too long for float64 gets an infinite length, and fails, without a
    floating-point warning.
    """
    try:
        if not isinstance(direction, (tuple, list)):
            direction = np.asarray(direction, dtype=float).tolist()
        x, y, z = map(float, direction)
        norm = math.sqrt(x * x + y * y + z * z)
    except (TypeError, ValueError, OverflowError):
        norm = math.nan
    # A NaN or infinite component, an all-zero vector, one too long for
    # float64 and anything but three numbers all fail this one test.
    if not 0.0 < norm < math.inf:
        raise ParameterError(
            "direction must be three finite numbers, not all zero, "
            f"got {direction!r}"
        )
    return (x, y, z), norm


def _cloud_widths(sigmas) -> np.ndarray:
    """The three rms widths of a Gaussian cloud, each finite and > 0."""
    sig = np.asarray(sigmas, dtype=float)
    if sig.shape != (3,) or not np.all((sig > 0.0) & (sig < np.inf)):
        raise ParameterError(
            f"sigmas must be three finite positive lengths, got {sig.tolist()!r}"
        )
    return sig


def _mean_width(sigmas) -> float:
    """Geometric mean cbrt(s0 * s1 * s2) of the three checked widths.

    Where the product leaves the normal float64 range, the widths'
    binary exponents are taken out first, so the mean neither
    underflows to 0 nor overflows.
    """
    s0, s1, s2 = _cloud_widths(sigmas).tolist()
    product = s0 * s1 * s2
    if _TINY <= product < math.inf:
        return float(np.cbrt(product))
    (m0, e0), (m1, e1), (m2, e2) = map(math.frexp, (s0, s1, s2))
    third, rest = divmod(e0 + e1 + e2, 3)
    return math.ldexp(float(np.cbrt(math.ldexp(m0 * m1 * m2, rest))), third)


def pair_overlap_projected(kx, projection):
    """Real overlap kernel at scaled separation ``kx``.

    ``projection`` is the magnitude of the dot product between the unit
    separation vector and the Jones vector: in [0, 1], with the 1e-9 of
    rounding above 1 that a collective overlap is allowed.  Vectorized
    in ``kx``.
    """
    p = np.asarray(projection)
    if not np.all((p >= 0.0) & (p <= 1.0 + 1e-9)):
        raise ParameterError(f"projection must be in [0, 1], got {projection!r}")
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
        if not np.max(np.abs(self.s - self.s.conj().T)) <= atol:
            raise ParameterError("overlap matrix is not Hermitian")
        if not np.max(np.abs(np.diagonal(self.s) - 1.0)) <= atol:
            raise ParameterError("overlap matrix diagonal is not 1")


# Atom pairs evaluated together in one tile.  A tile's per-pair
# temporaries then stay at most 64 KB, under glibc's default 128 KiB
# mmap threshold, so they come from the heap instead of each mapping and
# faulting in fresh pages; numpy's per-call overhead is still shared by a
# few thousand pairs.
_TILE_PAIRS = 4096
_TINY = np.finfo(float).tiny


def tile_clouds(n_atoms: int) -> int:
    """Clouds of ``n_atoms`` evaluated together in one tile.

    Whole clouds share a tile when a cloud has at most ``_TILE_PAIRS``
    pairs; a larger cloud is split over several tiles of its own.
    """
    return max(1, _TILE_PAIRS // (n_atoms * (n_atoms - 1) // 2))


# Atom pairs of the clouds stacked into one ``collective_pairs`` call.
_GROUP_PAIRS = 2**16


def group_clouds(n_atoms: int) -> int:
    """Clouds of ``n_atoms`` to stack into one ``collective_pairs`` call.

    As many whole tiles of clouds (``tile_clouds``) as fit in
    ``_GROUP_PAIRS`` pairs, and at least one tile: one drive phase and
    one branch reduction serve them all, and the call's store of
    rectangles grows with the pair count alone.  A cloud's results
    never depend on the clouds it is stacked with.
    """
    per_tile = tile_clouds(n_atoms)
    pairs = per_tile * (n_atoms * (n_atoms - 1) // 2)
    return per_tile * max(1, _GROUP_PAIRS // pairs)


def _pair_kernel(coords, i, j, wavenumber, jones):
    # Real overlap kernels of the atom pairs (i[m], j[m]) of atoms with
    # coordinates ``coords`` (3, M): one square root and one tangent per
    # pair.  The drive phase is rank 1, exp(-i k.(x_i - x_j)) =
    # e_i conj(e_j) with e = exp(-i k.x), so it stays with the atoms and
    # never enters a pair.  The arithmetic is in place where it can be,
    # so that few tile-sized temporaries are alive at once.
    diffs = np.take(coords, i, axis=1)
    diffs -= np.take(coords, j, axis=1)
    proj_re = _weighted_sum(diffs, jones.real)
    proj_im = _weighted_sum(diffs, jones.imag)
    # The squared length as an explicit sum, which rounds a lone pair
    # the way it rounds the same pair among many.  The other rows are
    # squared in place, so the sum needs one temporary, not one per row.
    sq = diffs[0] * diffs[0]
    diffs[1:] *= diffs[1:]
    sq += diffs[1]
    sq += diffs[2]
    # P2 of the separation direction projected on the Jones vector, from
    # its real and imaginary parts.  A coincident pair gets -1/2; the
    # order-2 kernel vanishes there, so it never enters.
    p2 = proj_re * proj_re
    p2 += proj_im * proj_im
    p2 *= 1.5
    p2 /= np.maximum(sq, _TINY)
    p2 -= 0.5
    kx = np.sqrt(sq, out=sq)
    kx *= wavenumber
    kernel, j2 = j0_j2_stable(kx)
    j2 *= p2
    kernel += j2
    return kernel


def _weighted_sum(parts, weights):
    # sum_k parts[k] * weights[k], skipping zero weights: their terms
    # could only flip the sign of a zero sum, which is squared.
    total = None
    for part, weight in zip(parts, weights):
        if weight:
            term = part * weight
            if total is None:
                total = term
            else:
                total += term
    return 0.0 if total is None else total


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
    cloud, 5e-14 on one 100 um from the origin.  Axes the drive does not
    move along are skipped, as in ``_weighted_sum``: their terms are
    zeros that could only flip the sign of an exactly-zero k.x.
    """
    first, *rest = [axis for axis in range(3) if k_in[axis]] or [0]
    # Each axis copied to a contiguous array once, for the dozen passes
    # of the error-free product.
    hi, lo = _two_product(np.ascontiguousarray(positions[..., first]), k_in[first])
    for axis in rest:
        p, err = _two_product(np.ascontiguousarray(positions[..., axis]), k_in[axis])
        hi, err_sum = _two_sum(hi, p)
        lo = lo + (err_sum + err)
    cos, sin = np.cos(hi), np.sin(hi)
    phase = np.empty(hi.shape, dtype=complex)
    phase.real = cos - sin * lo
    phase.imag = -(sin + cos * lo)
    return phase


@lru_cache(maxsize=64)
def _pair_block(
    n_atoms: int, row_start: int, row_stop: int, clouds: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The pairs i < j of rows [row_start, row_stop) in triu order, for
    # ``clouds`` stacked clouds whose atoms are numbered cloud by cloud:
    # atom indices i and j, and each pair's cell in the flattened
    # rectangle (clouds, row_stop - row_start, n_atoms - row_start) of
    # the block, whose cell (c, i - row_start, j - row_start) holds
    # pair (i, j) of cloud c; cells on and below the diagonal hold no
    # pair.  Built per row block and shared read-only, so a large cloud
    # never holds all its N(N - 1)/2 index pairs.  The atom indices are
    # int32, which gathers as fast as intp and holds the cache to 16 B
    # per pair; the cells stay intp, which scatters 2-3x faster.
    rows = np.arange(row_start, row_stop)
    counts = n_atoms - 1 - rows
    ends = np.cumsum(counts)
    starts = ends - counts
    i = np.repeat(rows, counts)
    j = np.arange(ends[-1]) + np.repeat(rows + 1 - starts, counts)
    width = n_atoms - row_start
    cells = (i - row_start) * width + (j - row_start)
    shift = np.arange(clouds)[:, None]
    block = (
        (i + n_atoms * shift).ravel().astype(np.int32),
        (j + n_atoms * shift).ravel().astype(np.int32),
        (cells + (row_stop - row_start) * width * shift).ravel(),
    )
    for index in block:
        index.setflags(write=False)
    return block


@lru_cache(maxsize=32)
def _row_blocks(n_atoms: int) -> tuple[tuple[int, int], ...]:
    # Consecutive rows of one cloud's triu order, at most _TILE_PAIRS
    # pairs per block (one row if a row alone has more); the whole cloud
    # in one block when it fits.  Depends on the atom number alone.
    blocks, start, size = [], 0, 0
    for row in range(n_atoms - 1):
        count = n_atoms - 1 - row
        if size and size + count > _TILE_PAIRS:
            blocks.append((start, row))
            start, size = row, 0
        size += count
    blocks.append((start, n_atoms - 1))
    return tuple(blocks)


def _tile_kernels(positions: np.ndarray, k_in: np.ndarray, jones: np.ndarray):
    # Pair tiles of the stacked clouds ``positions`` (R, N, 3): for each
    # chunk of at most ``tile_clouds(N)`` consecutive clouds, one tile per
    # row block, as (clouds, start, stop, i, j, cells, kernel).  ``clouds``
    # slices the chunk out of the stack; i, j and cells are those of
    # ``_pair_block`` and number the chunk's atoms from 0; ``kernel`` holds
    # the pairs' real kernels, whose bits depend on their atoms alone.
    # Index blocks are cached for a full chunk and cut here, so a last,
    # partial chunk adds no entry.
    r, n, _ = positions.shape
    coords = np.ascontiguousarray(positions.reshape(r * n, 3).T)
    wavenumber = float(np.linalg.norm(k_in))
    stacked = tile_clouds(n)
    for first in range(0, r, stacked):
        last = min(first + stacked, r)
        atoms = coords[:, first * n:last * n]
        for start, stop in _row_blocks(n):
            i, j, cells = _pair_block(n, start, stop, stacked)
            size = (last - first) * (i.size // stacked)
            i, j, cells = i[:size], j[:size], cells[:size]
            kernel = _pair_kernel(atoms, i, j, wavenumber, jones)
            yield slice(first, last), start, stop, i, j, cells, kernel


def overlap_matrix(cloud: AtomCloud, polarization: Polarization) -> OverlapMatrix:
    """All pairwise overlaps of the cloud, at fixed positions.

    Filled one pair tile at a time: the pairs i < j are evaluated, their
    conjugates fill the other triangle, and the diagonal is 1.
    """
    n = cloud.n_atoms
    s = np.empty((n, n), dtype=complex)
    phase = _drive_phase(cloud.positions, cloud.k_in)
    tiles = _tile_kernels(cloud.positions[None], cloud.k_in, polarization.jones)
    for *_, i, j, _, kernel in tiles:
        pairs = np.take(phase, i)
        phase_j = np.take(phase, j)
        pairs *= np.conjugate(phase_j, out=phase_j)
        pairs *= kernel
        s[i, j] = pairs
        s[j, i] = np.conjugate(pairs, out=pairs)
    np.fill_diagonal(s, 1.0)
    return OverlapMatrix(s=s)


def _check_overlap_magnitude(c: complex) -> None:
    if not abs(c) <= 1.0 + 1e-9:
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


def _branch_overlap(row, quadratic):
    """Branch overlaps of R clouds from their matrices' row sums.

    ``row`` (R, N) holds each matrix's complex row sums and
    ``quadratic(eps)`` returns eps^T Re(S) eps for each member of a real
    (R, N) ``eps``.  Returns a record of the overlaps ``c_up_dn`` (R,),
    the mismatches ``b`` (R,) and the punctured-mode normalizations
    ``per_atom`` (R, N).

    The transparent branch radiates the fully symmetric collective mode,
    of norm n_dn = 1^T S 1.  In the blockaded branch the excited atom
    drops out and the blockade mixes the punctured modes with equal
    weight: atom j gets the coefficient (N - 1) m - delta_j, with m the
    mean of the inverse punctured norms and delta their deviation from
    it, so the mode is proportional to 1 - eps, eps = delta / ((N - 1) m).
    With a = eps^T S 1 and e = eps^T S eps,

        1 - |c|^2 = (e - |a|^2 / n_dn) / (n_dn - 2 Re a + e),
        arg c = arg(n_dn - a),

    and b = 1 - Re c = (1 - |c|) + 2 |c| sin^2(arg(c) / 2).  b is never
    formed as 1 - Re c with c ~ 1 - O(N^-3), whose rounding to an ulp of
    1 swamps b at large N, and delta is formed from row-sum differences
    rather than as a difference of inverse norms.  Each member is
    reduced exactly as a lone matrix would be.
    """
    n = row.shape[1]
    r_re = row.real
    n_dn = r_re.sum(axis=1)
    if not np.all(n_dn > 0.0):
        raise NumericalError(
            "nonpositive or NaN normalization of the symmetric mode"
        )
    per_atom = n_dn[:, None] - 2.0 * r_re + 1.0
    if not np.all(per_atom > 0.0):
        raise NumericalError(
            "nonpositive or NaN normalization of a punctured mode"
        )
    root = np.sqrt(per_atom)
    r_mean = r_re.mean(axis=1, keepdims=True)
    root_mean = np.sqrt(n_dn[:, None] - 2.0 * r_mean + 1.0)
    # 1/root - 1/root_mean, without the cancellation.
    dev = 2.0 * (r_re - r_mean) / (root * root_mean * (root + root_mean))
    dev -= dev.mean(axis=1, keepdims=True)
    eps = dev / ((n - 1) * (1.0 / root).mean(axis=1, keepdims=True))
    a = (eps * row).sum(axis=1)
    e = quadratic(eps)
    den = n_dn - 2.0 * a.real + e
    if not np.all(den > 0.0):
        raise NumericalError(
            "nonpositive or NaN normalization of the blockaded mode"
        )
    loss = (e - (a.real * a.real + a.imag * a.imag) / n_dn) / den
    mod = np.sqrt(1.0 - loss)
    phi = np.angle(n_dn - a)
    half = np.sin(0.5 * phi)
    b = loss / (1.0 + mod) + 2.0 * mod * half * half
    c = np.empty(b.shape, dtype=complex)
    c.real = 1.0 - b
    c.imag = mod * np.sin(phi)
    # NaN fails these checks, as it fails the guards above.
    over = ~(mod <= 1.0 + 1e-9)
    if np.any(over):
        _check_overlap_magnitude(complex(c[np.argmax(over)]))
    return {"b": b, "c_up_dn": c, "per_atom": per_atom}


def store_cells(n_atoms: int, clouds: int) -> int:
    """Cells of the rectangle store ``collective_pairs`` needs for a stack."""
    return clouds * sum((b - a) * (n_atoms - a) for a, b in _row_blocks(n_atoms))


def collective_pairs(
    positions: np.ndarray,
    k_in: np.ndarray,
    jones: np.ndarray,
    store: np.ndarray | None = None,
):
    """Branch overlaps and pair moments of stacked clouds, from their pairs.

    ``positions`` has shape (R, N, 3).  Returns a record of ``b``,
    ``c_up_dn``, the mean pair overlap ``s12`` and the mean squared pair
    magnitude ``s12_sq``, each (R,), and the punctured-mode
    normalizations ``per_atom`` (R, N).

    A pair's overlap is s_ij = e_i K_ij conj(e_j), with K the real kernel
    and e = exp(-i k.x) the drive phase, so the phase stays with the
    atoms.  The pairs i < j are evaluated tile by tile, each tile a block
    of rows [a, b) of the triu order of every cloud of a chunk of at most
    ``tile_clouds(N)`` clouds, and their kernels are scattered into a
    zeroed rectangle (clouds, b - a, N - a) whose cells on and below the
    diagonal stay 0.  Every reduction is a stacked matrix product of
    those rectangles with [Re, Im] pairs of per-atom vectors:

        u_i = sum_{j>i} K_ij conj(e_j)    (block @ conj(e)[a:]),
        l_j = sum_{i<j} K_ij conj(e_i)    (block^T @ conj(e)[a:b]),

    so the row sums are 1 + e (u + l), the pair sum is sum e u, the
    squared magnitudes sum to sum K^2, and the quadratic form of
    ``_branch_overlap`` is sum eps^2 + 2 sum v . (block @ v[a:]) with
    v = eps [Re e, Im e].  The rectangles are kept for that last pass:
    8 B per cell, ≈ 8 B per pair of a large cloud and up to 16 B when a
    whole cloud is one block; no N x N matrix is formed.  The whole
    stack is finished in one ``_branch_overlap`` call.  A cloud's results
    depend on its row blocks, fixed by N, never on the other clouds of
    the stack.  A cloud too wide for float64 fills its rectangles with
    inf and NaN quietly; ``_branch_overlap``'s guards report it.

    ``store``, a float64 array of at least ``store_cells(N, R)`` cells,
    is zeroed and used for the rectangles instead of a new allocation.
    """
    r, n, _ = positions.shape
    # One zeroed store holds every rectangle of the stack.
    if store is None:
        store = np.zeros(store_cells(n, r))
    else:
        store = store[:store_cells(n, r)]
        store.fill(0.0)
    upper = np.zeros((r, n, 2))
    lower = np.zeros((r, n, 2))
    total_sq = np.zeros(r)
    blocks = []
    with np.errstate(over="ignore", invalid="ignore"):
        phase = _drive_phase(positions, k_in)
        conj_pairs = np.conjugate(phase).view(float).reshape(r, n, 2)
        tiles = _tile_kernels(positions, k_in, jones)
        for clouds, start, stop, _, _, cells, kernel in tiles:
            count = clouds.stop - clouds.start
            size = count * (stop - start) * (n - start)
            flat, store = store[:size], store[size:]
            flat[cells] = kernel
            block = flat.reshape(count, stop - start, n - start)
            e = conj_pairs[clouds, start:]
            upper[clouds, start:stop] = block @ e
            lower[clouds, start:] += block.swapaxes(1, 2) @ e[:, :stop - start]
            per_cloud = kernel.reshape(count, -1)
            total_sq[clouds] += np.einsum("ij,ij->i", per_cloud, per_cloud)
            blocks.append((clouds, start, stop, block))
        row = phase * (upper + lower).view(complex)[..., 0]
        row += 1.0
        pair_sum = (phase * upper.view(complex)[..., 0]).sum(axis=1)
    phase_pairs = phase.view(float).reshape(r, n, 2)

    def quadratic(eps):
        # eps_i eps_j Re s_ij = K_ij (v_i . v_j), summed row by row of
        # each block.
        v = phase_pairs * eps[..., None]
        rows = np.zeros((r, n, 2))
        for clouds, start, stop, block in blocks:
            rows[clouds, start:stop] = block @ v[clouds, start:]
        rows *= v
        return (eps * eps).sum(axis=1) + 2.0 * rows.reshape(r, -1).sum(axis=1)

    count = n * (n - 1) // 2
    return {**_branch_overlap(row, quadratic),
            "s12": pair_sum / count, "s12_sq": total_sq / count}


def collective_from_matrix(matrix: OverlapMatrix) -> CollectiveOverlap:
    """Reduce a given pairwise matrix to the branch overlap, densely.

    The dense reference of ``collective_pairs``: both finish in
    ``_branch_overlap``, this one from the matrix's row sums and
    quadratic form.
    """
    if matrix.n_atoms < 2:
        raise ParameterError("need at least two atoms")
    s = matrix.s[None]

    def quadratic(eps):
        return (eps[:, None, :] @ s.real @ eps[:, :, None])[:, 0, 0]

    record = _branch_overlap(s.sum(axis=2), quadratic)
    return CollectiveOverlap(c_up_dn=complex(record["c_up_dn"][0]),
                             b_up_dn=float(record["b"][0]), per_atom=record["per_atom"][0])


def collective_overlap(
    cloud: AtomCloud, polarization: Polarization
) -> CollectiveOverlap:
    """Branch overlap of a cloud, straight from the positions.

    The one-cloud case of ``collective_pairs``; no N x N matrix is formed.
    """
    record = collective_pairs(cloud.positions[None], cloud.k_in, polarization.jones)
    return CollectiveOverlap(c_up_dn=complex(record["c_up_dn"][0]),
                             b_up_dn=float(record["b"][0]), per_atom=record["per_atom"][0])


def pair_statistics(matrix: OverlapMatrix) -> tuple[complex, float]:
    """Mean pair overlap and mean squared magnitude over distinct pairs."""
    n = matrix.n_atoms
    if n < 2:
        raise ParameterError("need at least two atoms")
    pairs = matrix.s[np.triu_indices(n, 1)]
    return complex(pairs.mean()), float(np.mean(np.abs(pairs) ** 2))
