"""Semiclassical round-trip model of the cavity.

Instead of the input-output closed forms, this module builds the cavity
response from its microscopic ingredients: mirror amplitude
reflectivities, a round-trip time, and the single-pass transmission of
the intracavity medium, set by its optical depth.  Summing the
geometric series of round trips gives the circulating field and the
three output channels.  The model carries finite-finesse corrections
of relative size 1/finesse, so it converges to the closed forms as the
finesse grows; that convergence is the main cross-check it provides.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .cavity import CavityParams, DetuningSet, QubitBranch, _response_denominator, output_amplitudes
from .errors import NumericalError, ParameterError, _require_positive


@dataclass(frozen=True)
class RoundTripParams:
    """Microscopic realization of a cavity at a chosen finesse.

    The round-trip time, the mirror amplitudes and the single-pass
    optical depth of the medium are derived from ``cavity`` on
    construction.  Each mirror's loss ``1 - rho**2`` is carried as
    ``-expm1(-2 kappa t_rt)``, accurate to rounding at any finesse, so
    no amplitude rounded to 1 enters the model.  A finesse is refused
    only where a mirror amplitude underflows to 0 (README, "Round-trip
    model").
    """

    cavity: CavityParams
    finesse: float
    round_trip_time: float = field(init=False)
    rho_in: float = field(init=False)
    tau_in: float = field(init=False)
    rho_hr: float = field(init=False)
    optical_depth: float = field(init=False)

    def __post_init__(self):
        _require_positive("finesse", self.finesse)
        # Each factor can be > 0 while the product underflows to 0.
        cavity = self.cavity
        kappa_f = cavity.kappa * self.finesse
        _require_positive("kappa * finesse", kappa_f)
        t_rt = math.pi / kappa_f
        _require_positive("round_trip_time", t_rt)
        derived = {
            "round_trip_time": t_rt,
            "rho_in": math.exp(-cavity.kappa_in * t_rt),
            "tau_in": math.sqrt(-math.expm1(-2.0 * cavity.kappa_in * t_rt)),
            "rho_hr": math.exp(-cavity.kappa_hr * t_rt),
            "optical_depth": 2.0 * math.pi * cavity.cooperativity / self.finesse,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        for name in ("rho_in", "rho_hr"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ParameterError(f"{name} must be in (0, 1], got {value!r}")

    @classmethod
    def from_cavity(cls, cavity: CavityParams, finesse: float) -> "RoundTripParams":
        """Realize the given macroscopic cavity at a chosen finesse."""
        return cls(cavity, finesse)


def _log_single_pass(
    rt: RoundTripParams, det: DetuningSet, branch: QubitBranch
) -> complex:
    # mu, the log of the single-pass amplitude transmission: half the
    # optical depth times the branch's normalized atomic response.
    den = _response_denominator(rt.cavity, det, branch)
    return -0.5 * rt.optical_depth * rt.cavity.gamma / den


def _expm1(z: complex) -> complex:
    # exp(z) - 1 for complex z, to a few ulp whenever Re z <= 0: where
    # cos(Im z) >= 0 the real part adds two terms of one sign, and
    # elsewhere it is at least 1 in size.
    half = math.sin(0.5 * z.imag)
    return complex(
        math.expm1(z.real) * math.cos(z.imag) - 2.0 * half * half,
        math.exp(z.real) * math.sin(z.imag),
    )


def medium_transmission(
    rt: RoundTripParams, det: DetuningSet, branch: QubitBranch
) -> complex:
    """Amplitude transmission of one pass through the medium."""
    return cmath.exp(_log_single_pass(rt, det, branch))


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
    mu = _log_single_pass(rt, det, branch)
    t_rt = rt.round_trip_time
    # 1 - rho_in rho_hr tau e^{i delta_c t_rt}, and each loss below, from
    # its exponent: none of them rounds away at high finesse.
    denom = -_expm1(mu - rt.cavity.kappa * t_rt + 1j * det.delta_c * t_rt)
    if denom == 0:
        raise NumericalError("round-trip series does not converge: loop gain 1")
    circ = rt.tau_in * alpha_in / denom
    r = -rt.rho_in * alpha_in + rt.tau_in * rt.rho_hr * cmath.exp(mu) * circ
    a = math.sqrt(-math.expm1(2.0 * mu.real)) * circ
    m = math.sqrt(-math.expm1(-2.0 * rt.cavity.kappa_hr * t_rt)) * circ
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
    values, counts = np.unique(grid, return_counts=True)
    if counts.max() > 1:
        raise ParameterError(f"finesse_grid repeats the finesse {float(values[counts.argmax()])!r}")
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
        if not worst > 0.0:
            raise NumericalError(f"round-trip error is {worst!r} at finesse {finesse!r}: no slope")
    slope = float(np.polyfit(np.log(grid), np.log(errors), 1)[0])
    return ConvergenceStudy(finesse=grid, max_error=errors, slope=slope)
