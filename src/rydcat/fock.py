"""Truncated Fock-space references for the coherent-state machinery.

Everything here is brute force on number-state grids: coherent vectors
by recurrence, beam splitters by exponentiating the two-mode mixing
generator on each occupied photon-number sector, density matrices of
qubit-light states by outer products.
These routines exist to cross-check the closed-form overlap and
visibility algebra elsewhere in the package, and to expose the same
physics in a basis where no Gaussian shortcuts are available.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .catstate import CatState, mode_dressed_overlap
from .errors import ParameterError, _integer, _photon_number, _require_finite


# Largest number-state grid a routine here builds: 2**22 complex cells,
# 64 MiB.  A two-mode grid reaches it at |alpha| of about 40; a qubit
# density matrix holds four such grids.
_MAX_GRID_CELLS = 2**22


def _grid_dim(cutoff: int, alphas, axes: int = 2) -> int:
    """``cutoff + 1``, checked before a grid of ``axes`` such axes is built.

    A grid past ``_MAX_GRID_CELLS`` is refused, naming the amplitudes
    and the grid size; a side too long to print shows its leading digits.
    """
    dim = _integer("cutoff", cutoff, minimum=0) + 1
    if dim**axes > _MAX_GRID_CELLS:
        side = str(dim)
        if len(side) >= 10:
            side = f"{side[0]}.{side[1:3]}e+{len(side) - 1}"
        raise ParameterError(
            f"amplitude {' and '.join(map(repr, alphas))} asks for a "
            f"{' x '.join([side] * axes)} Fock grid, past the "
            f"{_MAX_GRID_CELLS} cells allowed"
        )
    return dim


def default_cutoff(*alphas: complex) -> int:
    """Photon-number cutoff large enough for the given amplitudes.

    Sized so the tail of the largest coherent state is far below any
    tolerance used in the tests (norm deficit well under 1e-10).
    """
    for alpha in alphas:
        _photon_number("alpha", alpha)
        _require_finite("alpha", alpha)
    biggest = max((abs(a) for a in alphas), default=0.0)
    return math.ceil(biggest**2 + 10.0 * biggest + 20.0)


def coherent_state(alpha: complex, cutoff: int) -> np.ndarray:
    """Number-basis vector of a coherent state, truncated at ``cutoff``.

    The returned vector has ``cutoff + 1`` entries and is not
    renormalized: its norm deficit measures the truncation error.
    """
    alpha_sq = _photon_number("alpha", alpha)
    _require_finite("alpha", alpha)
    cutoff = _integer("cutoff", cutoff, minimum=0)
    vec = np.empty(cutoff + 1, dtype=complex)
    vec[0] = math.exp(-0.5 * alpha_sq)
    for n in range(cutoff):
        vec[n + 1] = vec[n] * alpha / math.sqrt(n + 1)
    return vec


def split_two_mode(state: np.ndarray, transmission: float) -> np.ndarray:
    """Apply a beam splitter to a two-mode state in the number basis.

    ``state[j, k]`` is the amplitude of j photons in the transmitted
    mode and k in the reflected one; ``transmission`` is the intensity
    transmission.  The mixing conserves total photon number, so the
    exponential is taken sector by sector on the (n+1)-dimensional
    blocks instead of on the full grid; a sector whose amplitudes are
    all zero is copied instead.
    """
    if not 0.0 <= transmission <= 1.0:
        raise ParameterError(
            f"transmission must be in [0, 1], got {transmission!r}"
        )
    if state.ndim != 2 or state.shape[0] != state.shape[1]:
        raise ParameterError("state must be a square two-mode array")
    dim = state.shape[0]
    angle = math.acos(math.sqrt(transmission))
    flat = state.ravel()
    out = np.empty(dim * dim, dtype=complex)
    for total in range(2 * dim - 1):
        # Basis of the sector: |total - k, k> for admissible k.
        k = np.arange(max(0, total - dim + 1), min(total, dim - 1) + 1)
        cells = (total - k) * dim + k
        amps = flat[cells]
        # A unitary maps zero to zero: an empty sector (every sector
        # past the cutoff, for a vacuum second mode) is copied as is.
        if k.size == 1 or not amps.any():
            out[cells] = amps
            continue
        # a b-dagger moves a photon into the reflected mode with
        # amplitude step, so angle * gen is real and antisymmetric with
        # steps below the diagonal.  With D = diag(1j**idx), the
        # Hermitian 1j * gen is D T D^-1 for the real symmetric
        # tridiagonal T of the steps: exponentiate in T's eigenbasis.
        steps = np.sqrt((k[:-1] + 1.0) * (total - k[:-1]))
        phases, vecs = np.linalg.eigh(np.diag(steps, 1) + np.diag(steps, -1))
        turn = _QUARTER_TURNS[np.arange(k.size) % 4]
        amps = amps * turn.conj()
        mixed = np.exp(-1j * angle * phases) * _real_matmul(vecs.T, amps)
        out[cells] = _real_matmul(vecs, mixed) * turn
    return out.reshape(dim, dim)


# 1j**idx for idx mod 4, exact.
_QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _real_matmul(real: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    # A real matrix times a complex vector (contiguous), whose real and
    # imaginary parts are the two columns of a real one.
    parts = vectors.view(float).reshape(*vectors.shape, 2)
    return (real @ parts).view(complex)[..., 0]


def beam_splitter_pair(
    alpha: complex, transmission: float, cutoff: int | None = None
) -> np.ndarray:
    """Send a coherent state and vacuum through a beam splitter.

    Returns the two-mode number-basis array.  Serves as the brute-force
    reference for the factorization into two coherent states.
    """
    if cutoff is None:
        cutoff = default_cutoff(alpha)
    dim = _grid_dim(cutoff, (alpha,))
    state = np.zeros((dim, dim), dtype=complex)
    state[:, 0] = coherent_state(alpha, cutoff)
    return split_two_mode(state, transmission)


def cat_density_matrix(cat: CatState, cutoff: int | None = None) -> np.ndarray:
    """Density matrix of the qubit-light state on qubit x Fock space.

    The qubit basis is (up, down); light is truncated at ``cutoff``.
    The phase convention matches the ket superposition with exp(i theta)
    on the down branch, so the (up, down) coherence block carries
    visibility * sqrt(f (1-f)) * exp(-i theta).
    """
    if cutoff is None:
        cutoff = default_cutoff(cat.alpha_up, cat.alpha_dn)
    dim = _grid_dim(cutoff, (cat.alpha_up, cat.alpha_dn))
    up = coherent_state(cat.alpha_up, cutoff)
    dn = coherent_state(cat.alpha_dn, cutoff)
    rho = np.zeros((2 * dim, 2 * dim), dtype=complex)
    f = cat.f
    coh = cat.visibility * math.sqrt(f * (1.0 - f)) * np.exp(-1j * cat.theta)
    rho[:dim, :dim] = f * np.outer(up, up.conj())
    rho[dim:, dim:] = (1.0 - f) * np.outer(dn, dn.conj())
    rho[:dim, dim:] = coh * np.outer(up, dn.conj())
    rho[dim:, :dim] = rho[:dim, dim:].conj().T
    return rho


@dataclass(frozen=True)
class OverlapLemmaResult:
    """Brute-force vs closed-form scattered-light overlap."""

    brute_force: complex
    closed_form: complex
    fock_matrix_deviation: float


def fock_overlap_lemma_check(
    c_up_dn: complex,
    alpha_up: complex,
    alpha_dn: complex,
    cutoff: int | None = None,
) -> OverlapLemmaResult:
    """Check the overlap of coherent states of nonorthogonal modes.

    When the two branches radiate into modes with single-photon overlap
    ``c_up_dn``, the overlap of the radiated coherent states equals the
    usual two-coherent-state overlap with the cross term weighted by
    ``c_up_dn``.  This builds the down-branch mode states explicitly in
    a two-mode basis (the up-branch mode and its orthogonal complement)
    and compares the brute-force inner product against the closed form.

    Also reports the largest deviation of the number-state Gram matrix
    ``<m_up | n_dn>`` from ``delta_mn * c_up_dn**n``.
    """
    if not abs(c_up_dn) <= 1.0 + 1e-12:
        raise ParameterError("mode overlap magnitude cannot exceed 1")
    if cutoff is None:
        cutoff = default_cutoff(alpha_up, alpha_dn)
    # down_states below holds one two-mode grid per number state.
    dim = _grid_dim(cutoff, (alpha_up, alpha_dn), axes=3)
    c_perp = math.sqrt(max(0.0, 1.0 - abs(c_up_dn) ** 2))
    # Number states of the down-branch mode, expanded on the two-mode
    # grid (up-mode count, complement count).  The n-photon state
    # distributes binomially between the two orthogonal directions:
    # down_states[n, n - k, k] = sqrt(C(n, k)) c_up_dn**(n - k) c_perp**k.
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim)))))
    n, k = np.nonzero(np.tri(dim, dtype=bool))
    log_binom = log_fact[n] - log_fact[k] - log_fact[n - k]
    powers = np.ones((dim, 2), dtype=complex)
    powers[1:] = (c_up_dn, c_perp)
    powers = np.cumprod(powers, axis=0)
    down_states = np.zeros((dim, dim, dim), dtype=complex)
    down_states[n, n - k, k] = (
        np.exp(0.5 * log_binom) * powers[n - k, 0] * powers[k, 1]
    )
    # Gram matrix between up-mode number states and down-mode ones:
    # <m_up|n_dn> = down_states[n, m, 0].
    gram = down_states[:, :, 0].T
    expected = np.diag(np.array([c_up_dn**m for m in range(dim)]))
    fock_dev = float(np.max(np.abs(gram - expected)))

    up_vec = coherent_state(alpha_up, cutoff)
    dn_coeffs = coherent_state(alpha_dn, cutoff)
    if (deficit := 1.0 - float(np.vdot(up_vec, up_vec).real)) > 1e-8:
        warnings.warn(
            f"coherent-state truncation deficit {deficit:.2e}; raise the cutoff",
            stacklevel=2,
        )
    # Down-branch coherent state on the two-mode grid.
    dn_grid = (dn_coeffs @ down_states.reshape(dim, dim * dim)).reshape(dim, dim)
    up_grid = np.zeros_like(dn_grid)
    up_grid[:, 0] = up_vec
    brute = complex(np.vdot(up_grid, dn_grid))
    closed = mode_dressed_overlap(alpha_up, alpha_dn, c_up_dn)
    return OverlapLemmaResult(
        brute_force=brute, closed_form=closed, fock_matrix_deviation=fock_dev
    )
