import math
import sys

import pytest
from hypothesis import given, strategies as st

from rydcat import (
    FAR_DETUNED,
    CavityParams,
    DetuningSet,
    OutputAmplitudes,
    ParameterError,
    QubitBranch,
    effective_cooperativity,
    lambda_factor,
    min_pulse_duration,
    output_amplitudes,
    reflection_coefficient,
)

ETA = st.floats(min_value=0.5, max_value=1.0)
COOP = st.floats(min_value=0.0, max_value=50.0)
LAM = st.floats(min_value=1.0, max_value=100.0)
DETUNING = st.floats(min_value=-30.0, max_value=30.0)


def headline_params():
    return CavityParams.from_coupling_strength(0.9825, 21.0, 21.0)


class TestCavityParams:
    def test_derived_rates(self):
        p = CavityParams(eta_esc=0.8, cooperativity=10.0, kappa=2.5)
        assert p.kappa_in == pytest.approx(2.0)
        assert p.kappa_hr == pytest.approx(0.5)

    def test_coupling_strength_roundtrip(self):
        p = CavityParams.from_coupling_strength(
            0.9, 12.0, 7.0, gamma=2.0, gamma_rg=0.5
        )
        assert lambda_factor(p, QubitBranch.DOWN) == pytest.approx(7.0)
        assert lambda_factor(p, QubitBranch.UP) == 1.0

    def test_transparent_boundary_means_no_control_field(self):
        p = CavityParams.from_coupling_strength(0.9, 12.0, 1.0)
        assert p.omega_c == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eta_esc=0.0, cooperativity=1.0),
            dict(eta_esc=1.2, cooperativity=1.0),
            dict(eta_esc=0.9, cooperativity=-1.0),
            dict(eta_esc=0.9, cooperativity=1.0, kappa=0.0),
            dict(eta_esc=0.9, cooperativity=1.0, gamma=-2.0),
            dict(eta_esc=0.9, cooperativity=1.0, omega_c=-0.5),
            dict(eta_esc=0.9, cooperativity=1.0, gamma_rg=0.0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ParameterError):
            CavityParams(**kwargs)

    @pytest.mark.parametrize(
        "field", ["cooperativity", "kappa", "gamma", "omega_c", "gamma_rg"]
    )
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_rates(self, field, value):
        # Named where it is given: an infinite cooperativity used to pass
        # and surface later as a NaN loss or energy residual.
        kwargs = {"eta_esc": 0.9, "cooperativity": 1.0, field: value}
        with pytest.raises(ParameterError, match=field):
            CavityParams(**kwargs)

    def test_infinite_coupling_strength_names_the_rabi_frequency(self):
        with pytest.raises(ParameterError, match="omega_c must be finite"):
            CavityParams.from_coupling_strength(0.9, 12.0, math.inf)

    def test_rejects_coupling_strength_below_one(self):
        with pytest.raises(ParameterError):
            CavityParams.from_coupling_strength(0.9, 12.0, 0.5)


class TestResonantAmplitudes:
    # Frozen from a high-precision evaluation of the closed forms at
    # eta_esc = 0.9825, cooperativity = 21, coupling strength 21.
    def test_blockaded_branch_frozen_values(self):
        amps = output_amplitudes(headline_params(), QubitBranch.UP, 1.0)
        assert amps.r.real == pytest.approx(-0.91068181818181818, abs=1e-15)
        assert amps.a.real == pytest.approx(0.41293647081072875, abs=1e-15)
        assert amps.m.real == pytest.approx(0.011920449129039414, abs=1e-15)

    def test_transparent_branch_frozen_values(self):
        amps = output_amplitudes(headline_params(), QubitBranch.DOWN, 1.0)
        assert amps.r.real == pytest.approx(0.87568181818181818, abs=1e-15)
        assert amps.a.real == pytest.approx(0.41293647081072875, abs=1e-15)
        assert amps.m.real == pytest.approx(0.25032943170982770, abs=1e-15)

    def test_scattered_amplitude_equal_across_branches_at_optimum(self):
        # At coupling strength = cooperativity the two branches scatter
        # identically, which is what makes the loss budget close.
        p = headline_params()
        up = output_amplitudes(p, QubitBranch.UP, 1.0)
        dn = output_amplitudes(p, QubitBranch.DOWN, 1.0)
        assert abs(up.a - dn.a) < 1e-15

    @given(eta=ETA, coop=COOP, lam=LAM)
    def test_energy_conservation(self, eta, coop, lam):
        p = CavityParams.from_coupling_strength(eta, coop, lam)
        for branch in QubitBranch:
            amps = output_amplitudes(p, branch, 1.0)
            total = abs(amps.r) ** 2 + abs(amps.a) ** 2 + abs(amps.m) ** 2
            assert total == pytest.approx(1.0, abs=1e-12)

    @given(eta=ETA, coop=COOP, lam=LAM)
    def test_scales_linearly_with_drive(self, eta, coop, lam):
        p = CavityParams.from_coupling_strength(eta, coop, lam)
        one = output_amplitudes(p, QubitBranch.DOWN, 1.0)
        scaled = output_amplitudes(p, QubitBranch.DOWN, 2.0 - 1.0j)
        assert scaled.r == pytest.approx(one.r * (2.0 - 1.0j))
        assert scaled.a == pytest.approx(one.a * (2.0 - 1.0j))

    def test_validation_rejects_inconsistent_triple(self):
        with pytest.raises(ParameterError):
            OutputAmplitudes(r=1.0, a=1.0, m=0.0, alpha_in=1.0)

    @pytest.mark.parametrize("r", [1e200, -1e200j, complex(1e300, 1e300)])
    @pytest.mark.parametrize("alpha_in", [1.0, 1e-300, 0.0])
    def test_inconsistent_huge_output_is_refused(self, r, alpha_in):
        # |r|^2 overflows, and alpha_in scaled with it underflows: the
        # relative residual is past float64, reported as inf.
        with pytest.raises(ParameterError, match="relative residual inf"):
            OutputAmplitudes(r=r, a=0.0, m=0.0, alpha_in=alpha_in)

    @pytest.mark.parametrize("alpha_in", [1e160, 1e200, complex(1e308, 1e308)])
    def test_overflowing_photon_number_names_the_input(self, alpha_in):
        # Finite, but |alpha_in|^2 leaves float64: refused by name, not
        # with an OverflowError from the energy check.
        params = CavityParams.from_coupling_strength(0.9825, 21.0, 21.0)
        for branch in QubitBranch:
            with pytest.raises(ParameterError, match="alpha_in is too large"):
                output_amplitudes(params, branch, alpha_in)
        with pytest.raises(ParameterError, match="alpha_in is too large"):
            OutputAmplitudes(r=0.0, a=0.0, m=0.0, alpha_in=alpha_in)

    @pytest.mark.parametrize("coupling, branch", [
        ((1.0, 4.0, 2.0), QubitBranch.DOWN),
        ((1.0, 2.0, math.sqrt(2.0)), QubitBranch.UP),
    ])
    @pytest.mark.parametrize("sign", [1.0, -1.0j])
    def test_largest_accepted_input_conserves_energy(self, coupling, branch, sign):
        # |alpha_in|^2 is just inside float64: |a| may round an ulp above
        # |alpha_in|, and |r|^2 + |a|^2 + |m|^2 may pass the float64 limit,
        # yet the balance is exact to rounding.
        alpha_in = sign * math.sqrt(sys.float_info.max)
        params = CavityParams.from_coupling_strength(*coupling)
        big = output_amplitudes(params, branch, alpha_in)
        unit = output_amplitudes(params, branch, sign)
        for got, want in ((big.r, unit.r), (big.a, unit.a), (big.m, unit.m)):
            assert got == want * math.sqrt(sys.float_info.max)
        assert abs(big.energy_residual) <= 4e-16 * sys.float_info.max

    # An infinite cooperativity is rejected by CavityParams, naming it,
    # before it can make the amplitudes NaN.
    @pytest.mark.parametrize("coop,alpha_in,message", [
        (21.0, math.nan, "energy"),
        (math.inf, 1.0, "cooperativity must be finite"),
    ], ids=["21.0-nan", "inf-1.0"])
    def test_nan_amplitudes_rejected(self, coop, alpha_in, message):
        with pytest.raises(ParameterError, match=message):
            params = CavityParams.from_coupling_strength(0.9825, coop, 21.0)
            output_amplitudes(params, QubitBranch.UP, alpha_in)


class TestReflectionCoefficient:
    def test_matches_closed_form_on_resonance(self):
        p = headline_params()
        det = DetuningSet.resonant()
        for branch in QubitBranch:
            amps = output_amplitudes(p, branch, 1.0)
            assert reflection_coefficient(p, det, branch) == pytest.approx(amps.r)

    def test_effective_cooperativity_on_resonance(self):
        p = headline_params()
        det = DetuningSet.resonant()
        assert effective_cooperativity(p, det, QubitBranch.UP) == pytest.approx(21.0)
        assert effective_cooperativity(p, det, QubitBranch.DOWN) == pytest.approx(
            21.0 / 21.0**2
        )

    def test_far_detuned_drops_control_term(self):
        p = headline_params()
        det = DetuningSet(delta_2_up=FAR_DETUNED, delta_2_dn=FAR_DETUNED)
        up = effective_cooperativity(p, det, QubitBranch.UP)
        dn = effective_cooperativity(p, det, QubitBranch.DOWN)
        assert up == dn == pytest.approx(21.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["delta_c", "delta_s", "delta_2_up", "delta_2_dn"])
    def test_detunings_must_be_finite(self, name, value):
        # FAR_DETUNED, not a float infinity, asks for an infinite
        # two-photon detuning; a NaN or inf would make the reflection
        # coefficient nan+nanj.
        with pytest.raises(ParameterError, match=name):
            DetuningSet(**{name: value})

    @pytest.mark.parametrize("name", ["delta_c", "delta_s"])
    def test_far_detuned_only_for_two_photon_detunings(self, name):
        with pytest.raises(ParameterError, match=f"{name} must be finite, got FAR_DETUNED"):
            DetuningSet(**{name: FAR_DETUNED})

    @given(eta=ETA, coop=COOP, lam=LAM, dc=DETUNING, ds=DETUNING, d2=DETUNING)
    def test_reflection_is_passive(self, eta, coop, lam, dc, ds, d2):
        p = CavityParams.from_coupling_strength(eta, coop, lam)
        det = DetuningSet(delta_c=dc, delta_s=ds, delta_2_dn=d2)
        for branch in QubitBranch:
            assert abs(reflection_coefficient(p, det, branch)) <= 1.0 + 1e-12


def test_min_pulse_duration_frozen_value():
    # 30 photons through a kappa = 2 pi * 2.3 MHz cavity.
    p = CavityParams(eta_esc=0.9825, cooperativity=21.0, kappa=2 * math.pi * 2.3e6)
    assert min_pulse_duration(p, 30.0) == pytest.approx(1.0379661e-6, rel=1e-6)


def test_min_pulse_duration_rejects_negative_photon_number():
    with pytest.raises(ParameterError):
        min_pulse_duration(headline_params(), -1.0)
