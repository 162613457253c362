"""Semiclassical round-trip model of the cavity.

Instead of the input-output closed forms, this module builds the cavity
response from its microscopic ingredients: mirror amplitude
reflectivities, a round-trip time, and a linear susceptibility of the
intracavity medium.  Summing the geometric series of round trips gives
the circulating field and the three output channels.  The model carries
finite-finesse corrections of relative size 1/finesse, so it converges
to the closed forms as the finesse grows; that convergence is the main
cross-check it provides.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .cavity import CavityParams, DetuningSet, QubitBranch, _response_denominator, output_amplitudes
from .errors import NumericalError, ParameterError, _require_nonnegative, _require_positive


@dataclass(frozen=True)
class RoundTripParams:
    """Microscopic realization of a cavity at a chosen finesse.

    The round-trip time, the mirror amplitudes and the medium strength
    are derived from ``cavity`` on construction.  The derived values are
    checked again, as numerical guards: past a finesse of about 2e8 the
    mirror amplitudes round so close to 1 that they no longer reproduce
    the finesse to the model's own O(1/finesse) error, and a
    ``wavenumber * medium_length`` outside float64 leaves no finite
    medium strength (README, "Round-trip model").
    """

    cavity: CavityParams
    finesse: float
    wavenumber: float = 2.0 * math.pi
    medium_length: float = 1.0
    round_trip_time: float = field(init=False)
    rho_in: float = field(init=False)
    tau_in: float = field(init=False)
    rho_hr: float = field(init=False)
    optical_depth: float = field(init=False)
    chi0: float = field(init=False)

    def __post_init__(self):
        for name in ("finesse", "wavenumber", "medium_length"):
            _require_positive(name, getattr(self, name))
        # Each factor can be > 0 while the product underflows to 0.
        cavity = self.cavity
        k_l = self.wavenumber * self.medium_length
        kappa_f = cavity.kappa * self.finesse
        _require_positive("wavenumber * medium_length", k_l)
        _require_positive("kappa * finesse", kappa_f)
        t_rt = math.pi / kappa_f
        rho_in = math.exp(-cavity.kappa_in * t_rt)
        depth = 2.0 * math.pi * cavity.cooperativity / self.finesse
        derived = {
            "round_trip_time": t_rt,
            "rho_in": rho_in,
            "tau_in": math.sqrt(1.0 - rho_in**2),
            "rho_hr": math.exp(-cavity.kappa_hr * t_rt),
            "optical_depth": depth,
            "chi0": depth / k_l,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        _require_positive("round_trip_time", self.round_trip_time)
        for name in ("optical_depth", "chi0"):
            _require_nonnegative(name, getattr(self, name))
        for name in ("rho_in", "rho_hr"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ParameterError(f"{name} must be in (0, 1], got {value!r}")
        # The consistency checks are written as ``not ... <=`` so that a
        # NaN residual (an infinite wavenumber, say) fails them too.
        depth = self.wavenumber * self.medium_length * self.chi0
        if not abs(depth - self.optical_depth) <= 1e-9 * max(1.0, self.optical_depth):
            raise ParameterError(
                "optical_depth inconsistent with wavenumber * length * chi0"
            )
        loop = self.rho_in * self.rho_hr
        if loop >= 1.0:
            raise ParameterError("lossless mirrors leave the finesse undefined")
        if loop == 0.0:
            raise ParameterError("rho_in * rho_hr underflows to 0")
        # The lumped model is off by O(1/finesse) anyway; a recovered
        # finesse that misses by less than that changes nothing.
        expected = math.pi / (self.kappa * self.round_trip_time)
        tolerance = max(1e-9, 1.0 / self.finesse)
        if not abs(expected - self.finesse) <= tolerance * self.finesse:
            raise ParameterError(
                "finesse inconsistent with mirror losses and round-trip time"
            )

    @property
    def kappa(self) -> float:
        """Total field decay rate implied by the mirror amplitudes."""
        return -math.log(self.rho_in * self.rho_hr) / self.round_trip_time

    @property
    def kappa_in(self) -> float:
        """Decay rate through the input mirror alone."""
        return -math.log(self.rho_in) / self.round_trip_time

    @property
    def cooperativity(self) -> float:
        return self.optical_depth * self.finesse / (2.0 * math.pi)

    @classmethod
    def from_cavity(
        cls,
        cavity: CavityParams,
        finesse: float,
        wavenumber: float = 2.0 * math.pi,
        medium_length: float = 1.0,
    ) -> "RoundTripParams":
        """Realize the given macroscopic cavity at a chosen finesse."""
        return cls(cavity, finesse, wavenumber, medium_length)


def susceptibility(
    rt: RoundTripParams, det: DetuningSet, branch: QubitBranch
) -> complex:
    """Linear susceptibility of the intracavity medium."""
    den = _response_denominator(rt.cavity, det, branch)
    return 1j * rt.chi0 * rt.cavity.gamma / den


def medium_transmission(
    rt: RoundTripParams, det: DetuningSet, branch: QubitBranch
) -> complex:
    """Amplitude transmission of one pass through the medium."""
    chi = susceptibility(rt, det, branch)
    return cmath.exp(0.5j * rt.wavenumber * rt.medium_length * chi)


@dataclass(frozen=True)
class RoundTripFields:
    """Circulating field and the three output channels."""

    circulating: complex
    r: complex
    a: complex
    m: complex


def intracavity_and_outputs(
    rt: RoundTripParams,
    det: DetuningSet,
    branch: QubitBranch,
    alpha_in: complex,
) -> RoundTripFields:
    """Sum the round-trip series for a monochromatic drive.

    The reflected output interferes the promptly reflected drive with
    the light leaking back out of the cavity; the scattered and mirror
    channels drain the circulating field.  Absolute passivity holds only
    up to corrections of order 1/finesse, which is inherent to lumping
    the distributed losses at discrete points of the round trip.
    """
    tau = medium_transmission(rt, det, branch)
    phase = cmath.exp(1j * det.delta_c * rt.round_trip_time)
    loop = rt.rho_in * rt.rho_hr * tau * phase
    denom = 1.0 - loop
    if abs(denom) < 1e-300:
        raise NumericalError("round-trip series does not converge: loop gain 1")
    circ = rt.tau_in * alpha_in / denom
    r = -rt.rho_in * alpha_in + rt.tau_in * rt.rho_hr * tau * circ
    a = math.sqrt(max(0.0, 1.0 - abs(tau) ** 2)) * circ
    m = math.sqrt(1.0 - rt.rho_hr**2) * circ
    return RoundTripFields(circulating=circ, r=r, a=a, m=m)


@dataclass(frozen=True)
class ConvergenceStudy:
    """Error of the round-trip model against the closed forms."""

    finesse: np.ndarray
    max_error: np.ndarray
    slope: float


def convergence_study(cavity: CavityParams, finesse_grid) -> ConvergenceStudy:
    """Measure how fast the round-trip outputs approach the closed forms.

    On resonance and for both qubit branches, compares (r, a, m) per
    unit drive against the closed-form amplitudes and records the worst
    error at each finesse.  The slope of log(error) vs log(finesse)
    should be close to -1.
    """
    grid = np.asarray(finesse_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ParameterError("finesse_grid must have at least two values")
    det = DetuningSet.resonant()
    errors = np.empty_like(grid)
    # Python floats: a numpy scalar would warn where a float overflows.
    for i, finesse in enumerate(grid.tolist()):
        rt = RoundTripParams.from_cavity(cavity, finesse)
        worst = 0.0
        for branch in QubitBranch:
            exact = output_amplitudes(cavity, branch, 1.0)
            fields = intracavity_and_outputs(rt, det, branch, 1.0)
            worst = max(
                worst,
                abs(fields.r - exact.r),
                abs(fields.a - exact.a),
                abs(fields.m - exact.m),
            )
        errors[i] = worst
    slope = float(np.polyfit(np.log(grid), np.log(errors), 1)[0])
    return ConvergenceStudy(finesse=grid, max_error=errors, slope=slope)
