import cmath
import dataclasses
import hashlib
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rydcat import (
    CavityParams,
    DetuningSet,
    NumericalError,
    ParameterError,
    QubitBranch,
    RoundTripParams,
    convergence_study,
    intracavity_and_outputs,
    medium_transmission,
    output_amplitudes,
    reflection_coefficient,
)


def headline_cavity():
    return CavityParams.from_coupling_strength(0.9825, 21.0, 21.0)


class TestConstruction:
    def test_reproduces_macroscopic_rates(self):
        cavity = headline_cavity()
        rt = RoundTripParams.from_cavity(cavity, 1e4)
        kappa_in = -math.log(rt.rho_in) / rt.round_trip_time
        kappa = kappa_in - math.log(rt.rho_hr) / rt.round_trip_time
        cooperativity = rt.optical_depth * rt.finesse / (2.0 * math.pi)
        assert kappa == pytest.approx(cavity.kappa, rel=1e-12)
        assert kappa_in == pytest.approx(cavity.kappa_in, rel=1e-12)
        assert cooperativity == pytest.approx(cavity.cooperativity, rel=1e-12)

    def test_mirror_amplitudes_consistent(self):
        rt = RoundTripParams.from_cavity(headline_cavity(), 500.0)
        assert rt.rho_in**2 + rt.tau_in**2 == pytest.approx(1.0, abs=1e-15)
        assert 0.0 < rt.rho_in < 1.0

    def test_perfect_escape_keeps_rear_mirror_lossless(self):
        cavity = CavityParams.from_coupling_strength(1.0, 5.0, 5.0)
        rt = RoundTripParams.from_cavity(cavity, 1e3)
        assert rt.rho_hr == 1.0

    def test_mirrors_rounded_to_one_keep_their_losses(self):
        # At finesse 1e17 both mirror amplitudes round to 1, but the
        # losses are carried from their exponents: the transmission and
        # the outputs stay at the closed forms' values.
        cavity = headline_cavity()
        rt = RoundTripParams.from_cavity(cavity, 1e17)
        assert rt.rho_in == rt.rho_hr == 1.0
        t_rt = rt.round_trip_time
        assert rt.tau_in == pytest.approx(
            math.sqrt(2.0 * cavity.kappa_in * t_rt), rel=1e-15, abs=0.0)
        for branch in QubitBranch:
            exact = output_amplitudes(cavity, branch, 1.0)
            fields = intracavity_and_outputs(
                rt, DetuningSet.resonant(), branch, 1.0)
            for name in ("r", "a", "m"):
                assert abs(getattr(fields, name) - getattr(exact, name)) < 1e-14

    def test_rejects_nonpositive_finesse(self):
        with pytest.raises(ParameterError):
            RoundTripParams.from_cavity(headline_cavity(), 0.0)

    @pytest.mark.parametrize(
        "cavity, args, message",
        [
            (CavityParams(0.5, 3.0, kappa=1e-200), (1e-200,), "kappa * finesse"),
            (headline_cavity(), (4.1e-3,), "rho_in must be in (0, 1]"),
        ],
        ids=["decay", "mirrors"],
    )
    def test_rejects_product_underflow(self, cavity, args, message):
        # Each factor is > 0, but their product (for the mirror, the
        # amplitude exp(-kappa_in * round_trip_time)) rounds to 0.
        with pytest.raises(ParameterError, match=re.escape(message)):
            RoundTripParams.from_cavity(cavity, *args)

    def test_from_cavity_is_the_constructor(self):
        cavity = headline_cavity()
        rt = RoundTripParams(cavity, 1e3)
        assert rt == RoundTripParams.from_cavity(cavity, finesse=1e3)
        assert [f.name for f in dataclasses.fields(rt) if f.init] == [
            "cavity", "finesse"
        ]


def _pin(rt) -> str:
    """sha256 of the derived values and the outputs."""
    digest = hashlib.sha256()
    derived = (rt.round_trip_time, rt.rho_in, rt.tau_in, rt.rho_hr,
               rt.optical_depth)
    digest.update(struct.pack("<5d", *derived))
    for det in (DetuningSet.resonant(),
                DetuningSet(delta_c=0.3, delta_s=-0.2, delta_2_dn=0.1)):
        for branch in QubitBranch:
            fields = intracavity_and_outputs(rt, det, branch, 1.0)
            for z in (fields.circulating, fields.r, fields.a, fields.m):
                digest.update(struct.pack("<2d", z.real, z.imag))
    return digest.hexdigest()


# Outcome of from_cavity at the headline cavity across the finesse
# range: the sha256 of _pin where it is accepted, the error message
# where it is refused.  Below about 4.14e-3 the input mirror amplitude
# underflows to 0; every larger finesse is accepted, also where the
# mirror amplitudes round to 1 (from about 5.6e16).
FROM_CAVITY_PINS = {
    1e-3: "rho_in must be in (0, 1], got 0.0",
    4.2e-3: "7ddd30d2045fe49f0887ebaab8f4eeade243a726b55fa397bb441c8419108d6f",
    4.25e-3: "d8eb2092a20f699f40f6b6a3fca36bfd866710a6064d661f09e1d9362f104a3d",
    1e-2: "17a9f663670dcfbaa9f8bef9d0084d12c5ab4be861db1369416cab6ffd570c9c",
    1.0: "dfc8c630f7a7984e3ecd92aaadd95d67cf33bfb528fc7e03311b3734c66f2b39",
    1e2: "9a63d1fbb27516bc7cad3e1998c289ff1731cdd664c49bef57ed207aa025a7c1",
    1e6: "0ec115a5279d7df20ef429823b760e345a2d0b833e24b4320f0983c5edf8e6ed",
    3e7: "eb85cdbabd23f0f1ffcab2bc457cdbcc750ee544d5fde7c1c4bfb5fe8278d9bc",
    1e8: "e52dfddb983522a31fa9affc640fbd753777ef3381cb6bfc7b99bfc49a1cf227",
    3e8: "2aec97f93b1f9509ddb55785b33aebe3cd8faad6262f0fd6f9e522ba56d0d178",
    1e12: "6984b13bf664b9212ea376749ea44dc3e79c50061f2b95916a2362f8aaa520b7",
    1e17: "90bc17c66787fb65b4a0b8e2a0dab8ae9ceb46b3e920322eafd322b123f0073a",
    1e300: "9b1dfeddf8b3a17b8eb2d456c9b4af072ff08ad34af156efa88628ac56c75636",
}


@pytest.mark.parametrize("finesse", sorted(FROM_CAVITY_PINS))
def test_from_cavity_outcome_pinned(finesse):
    want = FROM_CAVITY_PINS[finesse]
    try:
        rt = RoundTripParams.from_cavity(headline_cavity(), finesse)
    except ParameterError as exc:
        assert str(exc) == want
    else:
        assert _pin(rt) == want


class TestMedium:
    def test_resonant_susceptibility_per_branch(self):
        # The susceptibility chi shows in the log of the single-pass
        # transmission, i k L chi / 2; on resonance it is -depth / 2 times
        # the branch's response.
        rt = RoundTripParams.from_cavity(headline_cavity(), 1e3)
        det = DetuningSet.resonant()
        up = cmath.log(medium_transmission(rt, det, QubitBranch.UP))
        dn = cmath.log(medium_transmission(rt, det, QubitBranch.DOWN))
        assert up == pytest.approx(-rt.optical_depth / 2.0, rel=1e-14)
        # EIT suppresses the transparent branch by the squared coupling
        assert dn == pytest.approx(-rt.optical_depth / (2.0 * 21.0**2), rel=1e-14)

    def test_single_pass_absorption_is_optical_depth(self):
        rt = RoundTripParams.from_cavity(headline_cavity(), 1e3)
        tau = medium_transmission(rt, DetuningSet.resonant(), QubitBranch.UP)
        assert abs(tau) ** 2 == pytest.approx(math.exp(-rt.optical_depth), rel=1e-12)

    def test_detuned_susceptibility_acquires_dispersion(self):
        # A dispersive chi gives the transmitted light a phase.
        rt = RoundTripParams.from_cavity(headline_cavity(), 1e3)
        tau = medium_transmission(rt, DetuningSet(delta_s=1.5), QubitBranch.UP)
        assert cmath.phase(tau) != 0.0
        assert abs(tau) < 1.0


class TestOutputs:
    def test_high_finesse_matches_closed_forms(self):
        cavity = headline_cavity()
        rt = RoundTripParams.from_cavity(cavity, 1e5)
        det = DetuningSet.resonant()
        for branch in QubitBranch:
            exact = output_amplitudes(cavity, branch, 1.0)
            fields = intracavity_and_outputs(rt, det, branch, 1.0)
            assert abs(fields.r - exact.r) < 1e-5
            assert abs(fields.a - exact.a) < 1e-5
            assert abs(fields.m - exact.m) < 1e-5

    @pytest.mark.parametrize("finesse", [50.0, 1e3, 1e5])
    def test_energy_excess_bounded_by_inverse_finesse(self, finesse):
        # Lumping the distributed loss leaves an O(1/finesse) energy
        # miscount; it must not exceed a small multiple of that.
        rt = RoundTripParams.from_cavity(headline_cavity(), finesse)
        for det in (DetuningSet.resonant(), DetuningSet(delta_c=0.4, delta_s=-0.2)):
            for branch in QubitBranch:
                fields = intracavity_and_outputs(rt, det, branch, 1.0)
                total = (
                    abs(fields.r) ** 2 + abs(fields.a) ** 2 + abs(fields.m) ** 2
                )
                assert abs(total - 1.0) < 10.0 / finesse

    def test_detuned_reflection_matches_continuum_model(self):
        cavity = headline_cavity()
        rt = RoundTripParams.from_cavity(cavity, 1e5)
        det = DetuningSet(delta_c=0.3, delta_s=-0.2, delta_2_dn=0.1)
        for branch in QubitBranch:
            expect = reflection_coefficient(cavity, det, branch)
            fields = intracavity_and_outputs(rt, det, branch, 1.0)
            assert abs(fields.r - expect) < 1e-4

    @given(alpha=st.complex_numbers(max_magnitude=3.0, min_magnitude=0.1,
                                    allow_infinity=False, allow_nan=False))
    def test_linear_in_drive(self, alpha):
        rt = RoundTripParams.from_cavity(headline_cavity(), 1e3)
        det = DetuningSet.resonant()
        one = intracavity_and_outputs(rt, det, QubitBranch.DOWN, 1.0)
        scaled = intracavity_and_outputs(rt, det, QubitBranch.DOWN, alpha)
        assert scaled.r == pytest.approx(one.r * alpha, rel=1e-12)
        assert scaled.circulating == pytest.approx(one.circulating * alpha,
                                                   rel=1e-12)


def _worst_error(cavity, finesse):
    # Worst of the three outputs against the closed forms, on resonance.
    rt = RoundTripParams.from_cavity(cavity, finesse)
    worst = 0.0
    for branch in QubitBranch:
        exact = output_amplitudes(cavity, branch, 1.0)
        fields = intracavity_and_outputs(rt, DetuningSet.resonant(), branch, 1.0)
        worst = max(worst, abs(fields.r - exact.r), abs(fields.a - exact.a),
                    abs(fields.m - exact.m))
    return worst


class TestConvergence:
    def test_first_order_convergence(self):
        study = convergence_study(headline_cavity(), np.geomspace(1e2, 1e5, 4))
        assert np.all(np.diff(study.max_error) < 0.0)
        assert study.slope == pytest.approx(-1.0, abs=0.1)

    @given(
        eta=st.floats(0.5, 1.0),
        cooperativity=st.floats(0.5, 50.0),
        lam=st.floats(1.0, 100.0),
        log_finesse=st.floats(3.0, 15.0),
    )
    def test_first_order_law_holds_to_high_finesse(
        self, eta, cooperativity, lam, log_finesse
    ):
        # The model's error is its own physics over the whole range, not
        # rounding: c1 / F + c2 / F**2 with c1 read at 1e6 and c2 at 1e3,
        # within 5 %, down to a floor of 1e-14.  c1 vanishes at perfect
        # escape (eta = 1), where the error falls as 1 / F**2.
        cavity = CavityParams.from_coupling_strength(eta, cooperativity, lam)
        finesse = 10.0**log_finesse
        c1 = 1e6 * _worst_error(cavity, 1e6)
        c2 = max(0.0, 1e6 * _worst_error(cavity, 1e3) - 1e3 * c1)
        bound = 1.05 * (c1 / finesse + c2 / finesse**2)
        assert _worst_error(cavity, finesse) <= max(bound, 1e-14)

    def test_unrealizable_finesse_refused_without_warning(self):
        # The round trip at finesse 1e-320 takes longer than float64
        # holds; the grid's numpy scalars used to warn on the way.
        with pytest.raises(ParameterError, match="rho_in must be in"):
            convergence_study(headline_cavity(), np.array([1e-320, 1e-310]))

    def test_rejects_single_point_grid(self):
        with pytest.raises(ParameterError):
            convergence_study(headline_cavity(), [100.0])

    @pytest.mark.parametrize("grid", [[1.0, 1.0], [1e2, 1e4, 1e2]])
    def test_rejects_repeated_finesse(self, grid):
        # Two equal abscissae leave the log-log fit without a slope.
        with pytest.raises(ParameterError, match="^finesse_grid repeats the finesse"):
            convergence_study(headline_cavity(), grid)

    def test_zero_error_is_a_numerical_failure(self):
        # At cooperativity 1.7e308 the model and the closed forms agree
        # to the last bit, and log(0) has no slope.
        cavity = CavityParams.from_coupling_strength(0.9825, 1.7e308, 21.0)
        with pytest.raises(NumericalError,
                           match=r"^round-trip error is 0\.0 at finesse 100\.0"):
            convergence_study(cavity, [1e2, 1e4])
