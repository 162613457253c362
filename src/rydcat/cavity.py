"""Single-sided cavity with a ladder-EIT medium and a conditional blockade.

The model: signal light drives one partially transmissive input/output
coupler of an optical resonator containing an atomic ensemble.  A coupling
laser dresses the signal transition into a ladder EIT configuration whose
upper state stores at most one collective Rydberg excitation.  A stored
excitation blockades the ensemble, which shifts the two-photon state far
out of resonance; the medium then behaves like a bare two-level absorber.
Without the excitation, EIT is active and the intracavity absorption is
reduced by the square of a dimensionless coupling strength.

Incoming light in a coherent state stays coherent in the linear (low
power) regime, so the full response is captured by three complex
amplitudes: reflected light ``r``, light scattered by the atoms ``a``,
and light transmitted through the high-reflector mirrors ``m``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    NumericalError,
    ParameterError,
    _photon_number,
    _require_finite,
    _require_nonnegative,
    _require_positive,
)


# An infinite two-photon detuning: the coupling-laser term drops out
# exactly rather than being divided into oblivion.
FAR_DETUNED = math.inf


class QubitBranch(Enum):
    """Which qubit state the light interacts with."""

    UP = "up"    # stored excitation present: blockaded, two-level response
    DOWN = "dn"  # no excitation: EIT active


@dataclass(frozen=True)
class CavityParams:
    """Static parameters of the cavity + ensemble system.

    Parameters
    ----------
    eta_esc:
        Escape efficiency, the probability that an intracavity photon
        leaves through the input/output coupler rather than a loss port.
    cooperativity:
        Collective atom-cavity cooperativity.
    kappa:
        Cavity field decay rate (angular frequency units).
    gamma:
        Atomic dipole decay rate of the signal transition.
    omega_c:
        Coupling laser Rabi frequency, stored as a nonnegative magnitude.
        A phase on the coupling laser cancels everywhere in this model.
    gamma_rg:
        Decay rate of the two-photon (Rydberg) coherence.
    """

    eta_esc: float
    cooperativity: float
    kappa: float = 1.0
    gamma: float = 1.0
    omega_c: float = 0.0
    gamma_rg: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.eta_esc <= 1.0:
            raise ParameterError(f"eta_esc must be in (0, 1], got {self.eta_esc!r}")
        _require_nonnegative("cooperativity", self.cooperativity)
        _require_positive("kappa", self.kappa)
        _require_positive("gamma", self.gamma)
        _require_nonnegative("omega_c", self.omega_c)
        _require_positive("gamma_rg", self.gamma_rg)
        for name in ("cooperativity", "kappa", "gamma", "omega_c", "gamma_rg"):
            _require_finite(name, getattr(self, name))

    @property
    def kappa_in(self) -> float:
        """Decay rate through the input/output coupler."""
        return self.eta_esc * self.kappa

    @property
    def kappa_hr(self) -> float:
        """Decay rate through all other (high-reflector) ports."""
        return (1.0 - self.eta_esc) * self.kappa

    @classmethod
    def from_coupling_strength(
        cls,
        eta_esc: float,
        cooperativity: float,
        lambda_dn: float,
        kappa: float = 1.0,
        gamma: float = 1.0,
        gamma_rg: float = 1.0,
    ) -> "CavityParams":
        """Build parameters that realize a given EIT coupling strength.

        ``lambda_dn`` is the dimensionless coupling strength of the
        transparent branch; the Rabi frequency is chosen to match it.
        """
        if not lambda_dn >= 1.0:
            raise ParameterError(f"lambda_dn must be >= 1, got {lambda_dn!r}")
        try:
            omega_c = math.sqrt(2.0 * gamma * gamma_rg * (lambda_dn**2 - 1.0))
        except OverflowError:
            raise ParameterError(
                f"lambda_dn is too large: lambda_dn^2 overflows float64, got {lambda_dn!r}"
            ) from None
        return cls(eta_esc, cooperativity, kappa, gamma, omega_c, gamma_rg)


@dataclass(frozen=True)
class DetuningSet:
    """Signal, cavity, and two-photon detunings.

    The signal and cavity detunings are finite.  A two-photon detuning
    may be infinite (``FAR_DETUNED``, ``math.inf``, of either sign),
    which drops the coupling-laser term exactly, but not NaN.
    ``delta_2_up`` defaults to ``FAR_DETUNED``: with a stored excitation
    the blockade shift pushes the two-photon resonance out of reach.
    """

    delta_c: float = 0.0
    delta_s: float = 0.0
    delta_2_up: float = FAR_DETUNED
    delta_2_dn: float = 0.0

    def __post_init__(self):
        _require_finite("delta_c", self.delta_c)
        _require_finite("delta_s", self.delta_s)
        for name in ("delta_2_up", "delta_2_dn"):
            value = getattr(self, name)
            if value != value:
                raise ParameterError(f"{name} must not be NaN, got {value!r}")

    def delta_2(self, branch: QubitBranch) -> float:
        return self.delta_2_up if branch is QubitBranch.UP else self.delta_2_dn

    @classmethod
    def resonant(cls) -> "DetuningSet":
        return cls()


@dataclass(frozen=True)
class OutputAmplitudes:
    """The three coherent amplitudes leaving the system, plus the input.

    Construction enforces energy conservation: the three output channels
    are the only places the input light can go.  An input whose
    |alpha_in|^2 overflows float64 is refused by name.
    """

    r: complex
    a: complex
    m: complex
    alpha_in: complex

    def __post_init__(self):
        scale = max(_photon_number("alpha_in", self.alpha_in), 1e-300)
        residual, shift = self._residual()
        scale = math.ldexp(scale, -2 * shift)
        if not abs(residual) <= 1e-12 * scale:
            # The scaled |alpha_in|^2 underflows to 0 only when the
            # relative residual is past the float64 range.
            relative = residual / scale if scale else math.copysign(math.inf, residual)
            raise ParameterError(
                "output amplitudes violate energy conservation: relative "
                f"residual {relative!r} for alpha_in {self.alpha_in!r}"
            )

    @property
    def energy_residual(self) -> float:
        residual, shift = self._residual()
        return math.ldexp(residual, 2 * shift)

    def _residual(self) -> tuple[float, int]:
        """|r|^2 + |a|^2 + |m|^2 - |alpha_in|^2 over 4**shift, and shift.

        ``shift`` is 0 unless a square or the sum overflows, as it can
        near |alpha_in| = sqrt(float64 max).  Then every amplitude is
        first divided by 2**shift, which brings the largest component
        below 1 and is exact.
        """
        try:
            residual = (
                abs(self.r) ** 2 + abs(self.a) ** 2 + abs(self.m) ** 2
                - abs(self.alpha_in) ** 2
            )
        except OverflowError:
            residual = math.inf
        if abs(residual) != math.inf:
            return residual, 0
        amplitudes = (self.r, self.a, self.m, self.alpha_in)
        top = max(abs(part) for z in amplitudes for part in (z.real, z.imag))
        if top == math.inf:
            return residual, 0
        shift = math.frexp(top)[1]
        r, a, m, alpha = (
            abs(complex(math.ldexp(z.real, -shift), math.ldexp(z.imag, -shift)))
            for z in amplitudes
        )
        return r**2 + a**2 + m**2 - alpha**2, shift


def lambda_factor(params: CavityParams, branch: QubitBranch) -> float:
    """Dimensionless EIT coupling strength of a branch.

    The blockaded branch always has strength 1 (bare two-level medium).
    """
    if branch is QubitBranch.UP:
        return 1.0
    return math.sqrt(
        1.0 + params.omega_c**2 / (2.0 * params.gamma * params.gamma_rg)
    )


def _response_denominator(
    params: CavityParams, det: DetuningSet, branch: QubitBranch
) -> complex:
    """Dressed atomic response denominator of the medium for one branch."""
    delta_2 = det.delta_2(branch)
    den = params.gamma - 1j * det.delta_s
    if abs(delta_2) == math.inf:
        return den
    two_photon = 2.0 * params.gamma_rg - 4j * delta_2
    if two_photon == 0:
        raise NumericalError("two-photon denominator vanished")
    return den + params.omega_c**2 / two_photon


def effective_cooperativity(
    params: CavityParams, det: DetuningSet, branch: QubitBranch
) -> complex:
    """Detuning- and branch-dressed cooperativity.

    On resonance this reduces to ``C / lambda**2``: EIT suppresses the
    atomic response of the transparent branch by the squared coupling
    strength, while the blockaded branch keeps the bare value.
    """
    den = _response_denominator(params, det, branch)
    return params.cooperativity * params.gamma / den


def reflection_coefficient(
    params: CavityParams, det: DetuningSet, branch: QubitBranch
) -> complex:
    """Amplitude reflection coefficient of the driven coupler port."""
    c_eff = effective_cooperativity(params, det, branch)
    den = params.kappa - 1j * det.delta_c + params.kappa * c_eff
    if den == 0:
        raise NumericalError("cavity response denominator vanished")
    return -1.0 + 2.0 * params.kappa_in / den


def output_amplitudes(
    params: CavityParams, branch: QubitBranch, alpha_in: complex
) -> OutputAmplitudes:
    """Resonant output amplitudes for one qubit branch.

    All detunings are zero here; the closed forms depend only on the
    escape efficiency, the cooperativity, and the branch coupling
    strength.
    """
    lam = lambda_factor(params, branch)
    c = params.cooperativity
    eta = params.eta_esc
    den = 1.0 + c / lam**2
    r = (-1.0 + 2.0 * eta / den) * alpha_in
    a = 2.0 * math.sqrt(eta * c) / (lam * den) * alpha_in
    m = 2.0 * math.sqrt((1.0 - eta) * eta) / den * alpha_in
    return OutputAmplitudes(r=r, a=a, m=m, alpha_in=alpha_in)


def min_pulse_duration(params: CavityParams, mean_photon_number: float) -> float:
    """Shortest pulse for which photons arrive slower than they decay.

    Keeping the mean time between photons above the cavity photon
    lifetime keeps the one-at-a-time (linear response) picture valid.
    """
    _require_nonnegative("mean_photon_number", mean_photon_number)
    return mean_photon_number / (2.0 * params.kappa)
