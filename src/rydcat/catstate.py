"""Cat states of reflected light and the losses that decohere them.

A cat state here is a qubit-correlated pair of coherent amplitudes
``(alpha_up, alpha_dn)`` together with the weight ``f`` of the blockaded
branch, the coherence phase ``theta``, and the visibility ``V`` of the
qubit-light coherence.  Light lost to the environment (atomic scattering,
mirror transmission, mode mismatch, downstream beam splitters) carries
which-branch information; tracing it out multiplies the visibility by the
magnitude of the overlap of the lost environment states and shifts the
phase by its argument.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .cavity import CavityParams, QubitBranch, lambda_factor, output_amplitudes
from .errors import ParameterError, _require_finite


def coherent_overlap(a: complex, b: complex) -> complex:
    """Inner product <a|b> of two coherent states."""
    return cmath.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + a.conjugate() * b)


def mode_dressed_overlap(
    alpha_up: complex, alpha_dn: complex, c_up_dn: complex
) -> complex:
    """Closed-form overlap of coherent states of nonorthogonal modes."""
    return cmath.exp(
        -0.5 * abs(alpha_up) ** 2
        - 0.5 * abs(alpha_dn) ** 2
        + complex(alpha_up).conjugate() * c_up_dn * alpha_dn
    )


@dataclass(frozen=True)
class CatState:
    """Qubit-correlated superposition of two coherent states.

    ``theta`` and both amplitudes must be finite; ``theta`` is wrapped
    into [-pi, pi] on construction.
    """

    f: float
    theta: float
    visibility: float
    alpha_up: complex
    alpha_dn: complex

    def __post_init__(self):
        if not 0.0 <= self.f <= 1.0:
            raise ParameterError(f"f must be in [0, 1], got {self.f!r}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ParameterError(
                f"visibility must be in [0, 1], got {self.visibility!r}"
            )
        for name in ("theta", "alpha_up", "alpha_dn"):
            _require_finite(name, getattr(self, name))
        object.__setattr__(self, "theta", math.remainder(self.theta, math.tau))


@dataclass(frozen=True)
class LostFields:
    """Per-branch amplitudes of the two loss channels during generation."""

    a_up: complex
    a_dn: complex
    m_up: complex
    m_dn: complex


@dataclass(frozen=True)
class LossBudget:
    """Decoherence bookkeeping for cat generation.

    ``l_cav`` measures the reduction of the effective cat size by the
    cavity, ``l_a``/``l_m``/``l_mode`` the visibility decay rates (per
    incoming mean photon number) from atomic scattering, mirror loss, and
    radiated-mode mismatch, ``l_ell`` their sum, and ``l_gen`` the
    visibility decay per generated cat size, the figure of merit.
    ``a_mode`` is the prefactor that converts a mode-mismatch amount into
    ``l_mode``.
    """

    l_cav: float
    l_a: float
    l_m: float
    l_mode: float
    l_ell: float
    l_gen: float
    a_mode: float

    def __post_init__(self):
        for name in ("l_cav", "l_a", "l_m", "l_mode", "l_ell", "l_gen", "a_mode"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ParameterError(f"{name} must be in [0, 1], got {value!r}")
        if abs(self.l_ell - (self.l_a + self.l_m + self.l_mode)) > 1e-12:
            raise ParameterError("l_ell must equal l_a + l_m + l_mode")


def effective_size(cat: CatState) -> float:
    """Half-separation of the two coherent amplitudes.

    A common displacement of both amplitudes is removable by local
    operations, so only the separation counts as cat size.
    """
    return 0.5 * abs(cat.alpha_up - cat.alpha_dn)


def apply_beam_splitter(cat: CatState, loss: float) -> CatState:
    """Propagate a cat through a beam splitter with intensity loss.

    The transmitted amplitudes shrink by sqrt(1 - loss); the reflected
    (lost) coherent states overlap imperfectly between the branches,
    which multiplies the visibility and shifts the phase.
    """
    if not 0.0 <= loss <= 1.0:
        raise ParameterError(f"loss must be in [0, 1], got {loss!r}")
    t_amp = math.sqrt(1.0 - loss)
    r_amp = math.sqrt(loss)
    gone = coherent_overlap(r_amp * cat.alpha_up, r_amp * cat.alpha_dn)
    return CatState(
        f=cat.f,
        theta=cat.theta + cmath.phase(gone),
        # |gone| <= 1 up to rounding; clamp so the constructor's range
        # check never trips on a few ulp of overshoot
        visibility=min(1.0, cat.visibility * abs(gone)),
        alpha_up=t_amp * cat.alpha_up,
        alpha_dn=t_amp * cat.alpha_dn,
    )


def generate_cat(
    params: CavityParams,
    f: float,
    v0: float,
    theta0: float,
    alpha_in: complex,
    radiated_mode_overlap: complex = 1.0,
) -> tuple[CatState, LostFields]:
    """Reflect a coherent pulse off the cavity and form the cat.

    The qubit is prepared with blockaded-branch weight ``f``, initial
    coherence visibility ``v0`` and phase ``theta0``.  Reflection maps
    the input amplitude onto branch-dependent amplitudes; the scattered
    and mirror-lost fields decohere the pair.

    ``radiated_mode_overlap`` optionally dresses the scattered-light
    overlap with the collective radiated-mode overlap of the two branches
    (magnitude below one reduces visibility, a phase rotates ``theta``).
    The default of exactly 1 means identical radiated modes.
    """
    if not 0.0 <= v0 <= 1.0:
        raise ParameterError(f"v0 must be in [0, 1], got {v0!r}")
    if not abs(radiated_mode_overlap) <= 1.0 + 1e-12:
        raise ParameterError("radiated_mode_overlap magnitude cannot exceed 1")
    up = output_amplitudes(params, QubitBranch.UP, alpha_in)
    dn = output_amplitudes(params, QubitBranch.DOWN, alpha_in)
    # Scattered light: <a_up|a_dn> with the cross term dressed by the
    # radiated-mode overlap.  Mirror loss channels share one mode.
    gone_a = mode_dressed_overlap(up.a, dn.a, radiated_mode_overlap)
    gone_m = coherent_overlap(up.m, dn.m)
    gone = gone_a * gone_m
    cat = CatState(
        f=f,
        theta=theta0 + cmath.phase(gone),
        visibility=min(1.0, v0 * abs(gone)),
        alpha_up=up.r,
        alpha_dn=dn.r,
    )
    return cat, LostFields(a_up=up.a, a_dn=dn.a, m_up=up.m, m_dn=dn.m)


# Closed forms for the loss budget, in terms of the escape efficiency e,
# the cooperativity c, and the transparent-branch coupling strength lam.
# They take floats or arrays of lam alike; only arrays import numpy, so
# a scalar budget loads none.

def _sq(x):
    # libm pow(x, 2), as Python's float ** 2 rounds, also for arrays,
    # whose ** 2 is x * x and differs in the last bit for ~0.1 % of x.
    if isinstance(x, (int, float)):
        return x**2
    import numpy as np

    return np.float_power(x, 2.0)


def _eta(e: float, c: float) -> float:
    return e * c / (c + 1.0)


def _l_cav(e: float, c: float, lam: float) -> float:
    return 1.0 - _sq(_eta(e, c) * (_sq(lam) - 1.0) / (_sq(lam) + c))


def _l_a(e: float, c: float, lam: float) -> float:
    return _eta(e, c) / (c + 1.0) * _sq((lam - c) * (lam - 1.0) / (_sq(lam) + c))


def _l_m(e: float, c: float, lam: float) -> float:
    return (1.0 - e) / e * _sq(_eta(e, c) * (_sq(lam) - 1.0) / (_sq(lam) + c))


def _a_mode(e: float, c: float, lam: float) -> float:
    return 2.0 * e * c * lam / ((1.0 + c) * (_sq(lam) + c))


def _kept(e: float, c: float, lam: float) -> float:
    # 1 - l_gen, without the cancellation of forming it from l_gen ~ 1.
    return _eta(e, c) * _sq(lam + 1.0) / (_sq(lam) + c)


def _l_gen_odds(params: CavityParams, l_gen: float) -> float:
    """``l_gen / (1 - l_gen)``; above 1/2, from the closed form of ``1 - l_gen``."""
    if l_gen <= 0.5:
        return l_gen / (1.0 - l_gen)
    kept = _kept(params.eta_esc, params.cooperativity,
                 lambda_factor(params, QubitBranch.DOWN))
    odds = (1.0 - kept) / kept if kept else math.inf
    if odds == math.inf:
        raise ParameterError("l_gen / (1 - l_gen) overflows: eta_esc * cooperativity too small")
    return odds


def _budget(e: float, c: float, lam, b_mode: float = 0.0) -> dict:
    """The seven ``LossBudget`` fields at a float or an array of ``lam``."""
    l_cav = _l_cav(e, c, lam)
    l_a = _l_a(e, c, lam)
    l_m = _l_m(e, c, lam)
    a_mode = _a_mode(e, c, lam)
    l_mode = a_mode * b_mode
    l_ell = l_a + l_m + l_mode
    survival = 1.0 - l_cav + l_ell
    # Removable 0/0 at lam = 1 with no mode mismatch; use the limit,
    # which rounds an ulp below 0 at eta_esc = 1 and c within an ulp of 1.
    if not isinstance(lam, (int, float)):
        import numpy as np

        l_gen = np.where(survival == 0.0, np.maximum(1.0 - _kept(e, c, lam), 0.0),
                         l_ell / survival)
    elif survival == 0.0:
        l_gen = max(1.0 - _kept(e, c, lam), 0.0)
    else:
        l_gen = l_ell / survival
    return {"l_cav": l_cav, "l_a": l_a, "l_m": l_m, "l_mode": l_mode,
            "l_ell": l_ell, "l_gen": l_gen, "a_mode": a_mode}


def _budget_lambda_inf(params: CavityParams) -> dict:
    """``eta`` and the limits of ``l_gen``, ``l_cav`` and ``l_ell`` as lam -> inf."""
    eta = _eta(params.eta_esc, _cooperativity(params))
    return {"eta": eta, "l_gen": 1.0 - eta, "l_cav": 1.0 - eta**2,
            "l_ell": eta * (1.0 - eta)}


def _cooperativity(params: CavityParams) -> float:
    """The cooperativity, which every loss figure needs to be > 0."""
    if params.cooperativity == 0.0:
        raise ParameterError("loss budget needs cooperativity > 0")
    return params.cooperativity


def loss_budget(params: CavityParams, b_mode: float = 0.0) -> LossBudget:
    """Full decoherence budget of cat generation.

    Parameters
    ----------
    params:
        Cavity parameters; the transparent-branch coupling strength is
        derived from them.
    b_mode:
        Radiated-mode mismatch, one minus the real part of the collective
        mode overlap of the two branches.  Lies in [0, 2]; 0 means the
        branches radiate into the same mode.
    """
    if not 0.0 <= b_mode <= 2.0:
        raise ParameterError(f"b_mode must be in [0, 2], got {b_mode!r}")
    c = _cooperativity(params)
    lam = lambda_factor(params, QubitBranch.DOWN)
    return LossBudget(**_budget(params.eta_esc, c, lam, b_mode))


def optimal_lambda(params: CavityParams) -> float:
    """Coupling strength that minimizes the generation loss.

    The interior minimum sits where the coupling strength equals the
    cooperativity.  For cooperativity below 1 that point is outside the
    reachable range (the coupling strength is at least 1) and the loss
    grows monotonically from the boundary, so the boundary wins.
    """
    return max(1.0, _cooperativity(params))


def max_photon_number(params: CavityParams, visibility_ratio: float) -> float:
    """Largest cat size (mean photon number) before visibility drops too far.

    Evaluated at the optimal coupling strength, where the generation
    loss reduces to 1 - eta_esc for cooperativity of at least 1.
    ``visibility_ratio`` is the acceptable output/input visibility
    ratio, e.g. 1/e.
    """
    if not 0.0 < visibility_ratio < 1.0:
        raise ParameterError(
            f"visibility_ratio must be in (0, 1), got {visibility_ratio!r}"
        )
    lam = optimal_lambda(params)
    # At the interior optimum lambda = C the closed form of 1 - l_gen is
    # eta_esc exactly; _kept would round it, to an ulp below 1 at
    # eta_esc = 1, and return a finite number for an unbounded one.
    if lam == params.cooperativity:
        kept = params.eta_esc
    else:
        kept = _kept(params.eta_esc, params.cooperativity, lam)
    if kept >= 1.0:
        raise ParameterError(
            "generation loss vanishes at eta_esc = 1: photon number unbounded"
        )
    return -math.log(visibility_ratio) * kept / (2.0 * (1.0 - kept))


def sweep_loss_vs_coupling(
    eta_esc: float, cooperativity: float, lambda_grid
) -> dict[str, np.ndarray]:
    """Loss budget and scattered amplitudes across coupling strengths.

    Returns columns keyed for direct CSV export: the grid itself, the
    three loss coefficients, and the scattered-light amplitudes of both
    branches per unit input.
    """
    import numpy as np

    grid = np.asarray(lambda_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ParameterError("lambda_grid must be a nonempty 1-D array")
    if not np.all(grid >= 1.0):
        raise ParameterError("lambda_grid values must be >= 1")
    params = CavityParams(eta_esc, cooperativity)
    e, c = params.eta_esc, _cooperativity(params)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # The coupling strength loss_budget reads back from the Rabi
        # frequency that CavityParams.from_coupling_strength picks, at
        # gamma = gamma_rg = 1.
        omega_c = np.sqrt(2.0 * (_sq(grid) - 1.0))
        lam = np.sqrt(1.0 + _sq(omega_c) / 2.0)
        budget = _budget(e, c, lam)
        # output_amplitudes' scattered amplitude per unit input.
        a_dn = 2.0 * math.sqrt(e * c) / (lam * (1.0 + c / _sq(lam)))
    in_range = np.logical_and.reduce(
        [(0.0 <= v) & (v <= 1.0) for v in budget.values()]
    )
    if not in_range.all():
        # The first failing point raises as loss_budget would there.
        i = int(np.argmin(in_range))
        LossBudget(**{name: float(v[i]) for name, v in budget.items()})
    a_up = output_amplitudes(params, QubitBranch.UP, 1.0).a.real
    return {
        "lambda_dn": grid,
        "l_a": budget["l_a"],
        "l_m": budget["l_m"],
        "l_gen": budget["l_gen"],
        "a_up_over_in": np.full_like(grid, a_up),
        "a_dn_over_in": a_dn,
    }
