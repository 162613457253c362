import dataclasses
import math

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

    def test_rejects_inconsistent_mirror_pair(self):
        rt = RoundTripParams.from_cavity(headline_cavity(), 1e3)
        with pytest.raises(ParameterError):
            dataclasses.replace(rt, tau_in=0.5)

    def test_rejects_inconsistent_optical_depth(self):
        rt = RoundTripParams.from_cavity(headline_cavity(), 1e3)
        with pytest.raises(ParameterError):
            dataclasses.replace(rt, optical_depth=rt.optical_depth * 2.0)

    def test_rejects_inconsistent_finesse(self):
        rt = RoundTripParams.from_cavity(headline_cavity(), 1e3)
        with pytest.raises(ParameterError):
            dataclasses.replace(rt, finesse=2e3)

    def test_rejects_lossless_mirrors(self):
        rt = RoundTripParams.from_cavity(headline_cavity(), 1e3)
        with pytest.raises(ParameterError):
            dataclasses.replace(rt, rho_in=1.0, tau_in=0.0, rho_hr=1.0)

    def test_rejects_nonpositive_finesse(self):
        with pytest.raises(ParameterError):
            RoundTripParams.from_cavity(headline_cavity(), 0.0)

    @pytest.mark.parametrize("field", ["wavenumber", "medium_length"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_medium(self, field, value):
        with pytest.raises(ParameterError):
            RoundTripParams.from_cavity(headline_cavity(), 1e3, **{field: value})


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

    def test_rejects_single_point_grid(self):
        with pytest.raises(ParameterError):
            convergence_study(headline_cavity(), [100.0])
