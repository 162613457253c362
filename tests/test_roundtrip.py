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
            (headline_cavity(), (4.1e-3,), "rho_in must be in (0, 1]"),
        ],
        ids=["medium", "decay", "mirrors"],
    )
    def test_rejects_product_underflow(self, cavity, args, message):
        # Each factor is > 0, but their product (for the mirror, the
        # amplitude exp(-kappa_in * round_trip_time)) rounds to 0.
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
# where it is refused.  Below about 4.14e-3 the input mirror amplitude
# underflows to 0; every larger finesse is accepted, also where the
# mirror amplitudes round to 1 (from about 5.6e16).
FROM_CAVITY_PINS = {
    1e-3: "rho_in must be in (0, 1], got 0.0",
    4.2e-3: "60d6461c2fe352f8d7f8633bea6c5410ba19c2f9871bde887f13689524347d45",
    4.25e-3: "2475587ff35e8f764a41d6ea1a57288a8d951f98c27eac2ac3fbca38473a4424",
    1e-2: "977cd2fefef3bf7a62b5c3ee797ee67b500205592b9f73c37878a6a879b1c37d",
    1.0: "580aecc1d7053d88ba154092868b286d872c3e0479447804b6d553bbd4153925",
    1e2: "170e4ba61c1bc787cb03d3fd7ba269faba1f4853d3f5f17456b2f9966d236448",
    1e6: "75e1572fc00b5d4cd2ab16b9dee57484cf87ac4122915fad98bcbeb55d82cc9d",
    3e7: "6f875b81fd6c008d853fa6c01eaa422c70e3212e0d3f27a1268f4c5aa30be783",
    1e8: "2e1c8cbf31766f09a94c0906c387f06966dc0833bdb0c2e6323d3ad24a098e7c",
    3e8: "31641cb50270f9ce7abf9fdbcbb481f02239ff9e8d524b41dd4c2503066f8ba5",
    1e12: "bd02ed85be65c43430f3723ed7bedab73e64e952961668ca335077f131e5bd9f",
    1e17: "c264fcd145f290f9ba0537426ce4371a89facb1e5c479957105644cab0f8d81d",
    1e300: "d80048af39031f0b8bf351a562cbdc85b55d03e8e5cc11df6373fe48382c1adc",
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
    # k * L = inf would leave chi0 = 0 and no finite medium strength.
    with pytest.raises(
        ParameterError,
        match="^wavenumber \\* medium_length must be finite, got inf$",
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

    @pytest.mark.parametrize("finesse", [1e3, 1e12, 1e20])
    def test_outputs_depend_on_the_medium_only_through_its_depth(self, finesse):
        # At k = L = 1e154, chi0 = depth / (k L) is subnormal or 0; the
        # outputs are formed from the optical depth and keep their bits.
        cavity = headline_cavity()
        plain = RoundTripParams.from_cavity(cavity, finesse)
        long = RoundTripParams.from_cavity(cavity, finesse, 1e154, 1e154)
        assert long.chi0 < 1e-300
        det = DetuningSet(delta_c=0.3, delta_s=-0.2, delta_2_dn=0.1)
        for branch in QubitBranch:
            assert intracavity_and_outputs(long, det, branch, 1.0) == (
                intracavity_and_outputs(plain, det, branch, 1.0))

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
