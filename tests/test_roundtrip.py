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
    ParameterError,
    QubitBranch,
    RoundTripParams,
    convergence_study,
    intracavity_and_outputs,
    medium_transmission,
    output_amplitudes,
    reflection_coefficient,
    susceptibility,
)


def headline_cavity():
    return CavityParams.from_coupling_strength(0.9825, 21.0, 21.0)


class TestConstruction:
    def test_reproduces_macroscopic_rates(self):
        cavity = headline_cavity()
        rt = RoundTripParams.from_cavity(cavity, 1e4)
        assert rt.kappa == pytest.approx(cavity.kappa, rel=1e-12)
        assert rt.kappa_in == pytest.approx(cavity.kappa_in, rel=1e-12)
        assert rt.cooperativity == pytest.approx(cavity.cooperativity, rel=1e-12)

    def test_mirror_amplitudes_consistent(self):
        rt = RoundTripParams.from_cavity(headline_cavity(), 500.0)
        assert rt.rho_in**2 + rt.tau_in**2 == pytest.approx(1.0, abs=1e-15)
        assert 0.0 < rt.rho_in < 1.0

    def test_perfect_escape_keeps_rear_mirror_lossless(self):
        cavity = CavityParams.from_coupling_strength(1.0, 5.0, 5.0)
        rt = RoundTripParams.from_cavity(cavity, 1e3)
        assert rt.rho_hr == 1.0

    def test_rejects_lossless_mirrors(self):
        # At finesse 1e17 both mirror amplitudes round to 1.
        with pytest.raises(ParameterError, match="lossless mirrors"):
            RoundTripParams.from_cavity(headline_cavity(), 1e17)

    def test_rejects_nonpositive_finesse(self):
        with pytest.raises(ParameterError):
            RoundTripParams.from_cavity(headline_cavity(), 0.0)

    @pytest.mark.parametrize("field", ["wavenumber", "medium_length"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_medium(self, field, value):
        with pytest.raises(ParameterError):
            RoundTripParams.from_cavity(headline_cavity(), 1e3, **{field: value})

    @pytest.mark.parametrize(
        "cavity, args, message",
        [
            (headline_cavity(), (1e3, 1e-200, 1e-200), "wavenumber * medium_length"),
            (CavityParams(0.5, 3.0, kappa=1e-200), (1e-200,), "kappa * finesse"),
            (headline_cavity(), (4.2e-3,), "rho_in * rho_hr"),
        ],
        ids=["medium", "decay", "mirrors"],
    )
    def test_rejects_product_underflow(self, cavity, args, message):
        # Each factor is > 0, but their product rounds to 0.
        with pytest.raises(ParameterError, match=re.escape(message)):
            RoundTripParams.from_cavity(cavity, *args)

    def test_from_cavity_is_the_constructor(self):
        cavity = headline_cavity()
        rt = RoundTripParams(cavity, 1e3, wavenumber=3.0, medium_length=0.5)
        assert rt == RoundTripParams.from_cavity(cavity, 1e3, 3.0, 0.5)
        assert [f.name for f in dataclasses.fields(rt) if f.init] == [
            "cavity", "finesse", "wavenumber", "medium_length"
        ]


def _pin(rt) -> str:
    """sha256 of the derived values, the outputs and the susceptibility."""
    digest = hashlib.sha256()
    derived = (rt.round_trip_time, rt.rho_in, rt.tau_in, rt.rho_hr,
               rt.optical_depth, rt.chi0)
    digest.update(struct.pack("<6d", *derived))
    for det in (DetuningSet.resonant(),
                DetuningSet(delta_c=0.3, delta_s=-0.2, delta_2_dn=0.1)):
        for branch in QubitBranch:
            fields = intracavity_and_outputs(rt, det, branch, 1.0)
            chi = susceptibility(rt, det, branch)
            for z in (fields.circulating, fields.r, fields.a, fields.m, chi):
                digest.update(struct.pack("<2d", z.real, z.imag))
    return digest.hexdigest()


# Outcome of from_cavity at the headline cavity across the finesse
# range: the sha256 of _pin where it is accepted, the error message
# where it is refused.  From a finesse of about 1.8e8 the mirror
# amplitudes round too close to 1 to reproduce the finesse to the
# model's own O(1/finesse) error, and from about 5.6e16 they round to
# exactly 1.  Below about 4.2e-3 the mirror amplitudes underflow.
FROM_CAVITY_PINS = {
    1e-3: "rho_in must be in (0, 1], got 0.0",
    4.2e-3: "rho_in * rho_hr underflows to 0",
    4.25e-3: "1ec11281dc1364249ebc776f673bf6412aab82f2e26a50db5e967f25e504d4ff",
    1e-2: "fcc544e031cf348812ff2a3ad03020da86a70e5eb24d036e0318fb19d2b5588e",
    1.0: "2c73a622742ea6394d05662c527fe5c46ef4b0385a2471aa6f86820dbd6842f7",
    1e2: "e6aa508584d854b66089a5b35f8a440e277f84e15a8572385d2ccddaf08146ee",
    1e6: "2d58405213c37f09d397c47b9fae67a59ab544d05c17a96206ce4108ad795c0e",
    3e7: "d266e30dc5a482e65399a19361771f967a214e8a97e491d68f45eee65ddb7995",
    1e8: "8866b3e0649ee7f60c946766b99439ac111b1109f859bf014c2c64e49b0d9a3e",
    3e8: "finesse inconsistent with mirror losses and round-trip time",
    1e12: "finesse inconsistent with mirror losses and round-trip time",
    1e17: "lossless mirrors leave the finesse undefined",
    1e300: "lossless mirrors leave the finesse undefined",
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


def test_medium_product_overflow_refused():
    # k * L = inf leaves chi0 = 0, and the optical depth check fails.
    with pytest.raises(
        ParameterError,
        match="^optical_depth inconsistent with wavenumber \\* length \\* chi0$",
    ):
        RoundTripParams.from_cavity(
            headline_cavity(), 1e3, wavenumber=1e200, medium_length=1e200
        )


class TestMedium:
    def test_resonant_susceptibility_per_branch(self):
        rt = RoundTripParams.from_cavity(headline_cavity(), 1e3)
        det = DetuningSet.resonant()
        up = susceptibility(rt, det, QubitBranch.UP)
        dn = susceptibility(rt, det, QubitBranch.DOWN)
        assert up == pytest.approx(1j * rt.chi0)
        # EIT suppresses the transparent branch by the squared coupling
        assert dn == pytest.approx(1j * rt.chi0 / 21.0**2)

    def test_single_pass_absorption_is_optical_depth(self):
        rt = RoundTripParams.from_cavity(headline_cavity(), 1e3)
        tau = medium_transmission(rt, DetuningSet.resonant(), QubitBranch.UP)
        assert abs(tau) ** 2 == pytest.approx(math.exp(-rt.optical_depth), rel=1e-12)

    def test_detuned_susceptibility_acquires_dispersion(self):
        rt = RoundTripParams.from_cavity(headline_cavity(), 1e3)
        chi = susceptibility(rt, DetuningSet(delta_s=1.5), QubitBranch.UP)
        assert chi.real != 0.0
        assert chi.imag > 0.0


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


class TestConvergence:
    def test_first_order_convergence(self):
        study = convergence_study(headline_cavity(), np.geomspace(1e2, 1e5, 4))
        assert np.all(np.diff(study.max_error) < 0.0)
        assert study.slope == pytest.approx(-1.0, abs=0.1)

    def test_unrealizable_finesse_refused_without_warning(self):
        # The round trip at finesse 1e-320 takes longer than float64
        # holds; the grid's numpy scalars used to warn on the way.
        with pytest.raises(ParameterError, match="rho_in must be in"):
            convergence_study(headline_cavity(), np.array([1e-320, 1e-310]))

    def test_rejects_single_point_grid(self):
        with pytest.raises(ParameterError):
            convergence_study(headline_cavity(), [100.0])
