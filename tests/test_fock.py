import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rydcat import fock
from rydcat import (
    CatState,
    ParameterError,
    apply_beam_splitter,
    beam_splitter_pair,
    cat_density_matrix,
    coherent_overlap,
    coherent_state,
    default_cutoff,
    fock_overlap_lemma_check,
    mode_dressed_overlap,
    split_two_mode,
)

from oracles import (
    beam_splitter_factor_fock,
    overlap_lemma_brute_force,
    split_two_mode_hermitian,
)

SMALL_AMP = st.complex_numbers(max_magnitude=1.2, allow_infinity=False, allow_nan=False)
UNIT_DISK = st.complex_numbers(max_magnitude=1.0, allow_infinity=False, allow_nan=False)


class TestCoherentState:
    def test_matches_analytic_coefficients(self):
        alpha = 0.7 - 0.3j
        vec = coherent_state(alpha, 12)
        norm = math.exp(-0.5 * abs(alpha) ** 2)
        for n in range(13):
            expect = norm * alpha**n / math.sqrt(math.factorial(n))
            assert vec[n] == pytest.approx(expect, rel=1e-13)

    def test_norm_deficit_measures_truncation(self):
        alpha = 2.0
        tight = coherent_state(alpha, 10)
        deficit = 1.0 - np.vdot(tight, tight).real
        # Poisson(4) tail beyond n = 10
        assert 1e-4 < deficit < 1e-2
        wide = coherent_state(alpha, default_cutoff(alpha))
        assert abs(1.0 - np.vdot(wide, wide).real) < 1e-12

    def test_overlap_against_closed_form(self):
        a, b = 1.1 + 0.2j, -0.8 + 0.5j
        cutoff = default_cutoff(a, b)
        brute = np.vdot(coherent_state(a, cutoff), coherent_state(b, cutoff))
        assert brute == pytest.approx(coherent_overlap(a, b), abs=1e-12)

    def test_rejects_negative_cutoff(self):
        with pytest.raises(ParameterError):
            coherent_state(1.0, -1)

    def test_rejects_fractional_cutoff(self):
        with pytest.raises(ParameterError, match="cutoff"):
            coherent_state(1.0, 3.5)


class TestSplitTwoMode:
    def test_coherent_input_factorizes(self):
        # |alpha, 0> -> |sqrt(t) alpha> x |sqrt(1-t) alpha>, exactly the
        # classical amplitude split.
        alpha, t = 1.4 - 0.6j, 0.7
        out = beam_splitter_pair(alpha, t)
        cutoff = out.shape[0] - 1
        product = np.outer(
            coherent_state(math.sqrt(t) * alpha, cutoff),
            coherent_state(math.sqrt(1.0 - t) * alpha, cutoff),
        )
        assert np.max(np.abs(out - product)) < 1e-9

    def test_preserves_norm(self):
        state = np.zeros((6, 6), dtype=complex)
        state[3, 1] = 0.6
        state[0, 2] = 0.8j
        out = split_two_mode(state, 0.37)
        assert np.vdot(out, out).real == pytest.approx(1.0, abs=1e-13)

    def test_full_transmission_is_identity(self):
        rng = np.random.default_rng(7)
        state = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        out = split_two_mode(state, 1.0)
        assert np.max(np.abs(out - state)) < 1e-12

    def test_full_reflection_swaps_modes(self):
        # transmission 0 maps |j, k> to (-1)^k |k, j>
        state = np.zeros((4, 4), dtype=complex)
        state[2, 1] = 1.0
        out = split_two_mode(state, 0.0)
        expect = np.zeros_like(state)
        expect[1, 2] = -1.0
        assert np.max(np.abs(out - expect)) < 1e-12

    def test_single_photon_rotation(self):
        state = np.zeros((3, 3), dtype=complex)
        state[1, 0] = 1.0
        out = split_two_mode(state, 0.25)
        assert out[1, 0] == pytest.approx(0.5)
        assert out[0, 1] == pytest.approx(math.sqrt(0.75))

    @pytest.mark.parametrize("transmission", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("alpha", [0.5, 3.0 + 0.5j])
    @pytest.mark.parametrize("cutoff", [None, 8])
    def test_matches_hermitian_sector_oracle(self, alpha, transmission, cutoff):
        # Both modes coherent.  At the default cutoff the truncated
        # corner is empty; at cutoff 8 the clipped sectors (total photon
        # number >= dim), whose ladders stop short, carry amplitude.
        if cutoff is None:
            cutoff = default_cutoff(alpha)
        state = np.outer(coherent_state(alpha, cutoff),
                         coherent_state(-0.6j * alpha, cutoff))
        totals = np.add.outer(np.arange(cutoff + 1), np.arange(cutoff + 1))
        if cutoff == 8:
            assert np.max(np.abs(state[totals > cutoff])) > 1e-6
        got = split_two_mode(state, transmission)
        expect = split_two_mode_hermitian(state, transmission)
        assert np.max(np.abs(got - expect)) <= 1e-13

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            split_two_mode(np.zeros((3, 3), dtype=complex), 1.5)
        with pytest.raises(ParameterError):
            split_two_mode(np.zeros((3, 4), dtype=complex), 0.5)


class TestAgainstClosedFormLoss:
    @pytest.mark.parametrize("loss", [0.1, 0.5, 0.9])
    def test_visibility_factor_matches(self, loss):
        # The environment overlap extracted from the full two-mode
        # simulation must equal the closed-form decoherence factor.
        up, dn = 1.3, -1.1 + 0.4j
        factor = beam_splitter_factor_fock(up, dn, loss, cutoff=35)
        t = math.sqrt(loss)
        expect = coherent_overlap(t * up, t * dn)
        assert factor == pytest.approx(expect, abs=1e-10)

    def test_cat_visibility_ratio_matches(self):
        cat = CatState(f=0.4, theta=0.3, visibility=0.9,
                       alpha_up=1.2, alpha_dn=-1.2 + 0.1j)
        out = apply_beam_splitter(cat, 0.35)
        factor = beam_splitter_factor_fock(cat.alpha_up, cat.alpha_dn, 0.35,
                                           cutoff=35)
        assert out.visibility == pytest.approx(cat.visibility * abs(factor),
                                               abs=1e-10)
        assert out.theta == pytest.approx(cat.theta + cmath.phase(factor),
                                          abs=1e-10)


class TestCatDensityMatrix:
    def make_cat(self, visibility=1.0):
        return CatState(f=0.4, theta=0.3, visibility=visibility,
                        alpha_up=1.0, alpha_dn=-1.0 + 0.5j)

    def test_trace_and_hermiticity(self):
        rho = cat_density_matrix(self.make_cat())
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-15

    def test_qubit_populations(self):
        rho = cat_density_matrix(self.make_cat())
        dim = rho.shape[0] // 2
        assert np.trace(rho[:dim, :dim]).real == pytest.approx(0.4, abs=1e-12)
        assert np.trace(rho[dim:, dim:]).real == pytest.approx(0.6, abs=1e-12)

    def test_unit_visibility_state_is_pure(self):
        rho = cat_density_matrix(self.make_cat(visibility=1.0))
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf])
    def test_rejects_non_finite_amplitude(self, amplitude):
        # CatState refuses one; a cat whose field was set past the
        # constructor still fails at the cutoff, not in math.ceil.
        cat = self.make_cat()
        object.__setattr__(cat, "alpha_dn", amplitude)
        with pytest.raises(ParameterError, match="alpha"):
            cat_density_matrix(cat)

    def test_reduced_visibility_state_is_mixed(self):
        rho = cat_density_matrix(self.make_cat(visibility=0.6))
        assert np.trace(rho @ rho).real < 0.9

    def test_coherence_block_phase(self):
        cat = self.make_cat(visibility=0.8)
        rho = cat_density_matrix(cat)
        dim = rho.shape[0] // 2
        up = coherent_state(cat.alpha_up, dim - 1)
        dn = coherent_state(cat.alpha_dn, dim - 1)
        # <up| rho_ud |dn> = coh * <up|up> <dn|dn>, truncation error only
        coherence = np.vdot(up, rho[:dim, dim:] @ dn)
        assert coherence == pytest.approx(
            0.8 * math.sqrt(0.24) * cmath.exp(-0.3j), abs=1e-10
        )


class TestOverlapLemma:
    @given(c=UNIT_DISK, up=SMALL_AMP, dn=SMALL_AMP)
    def test_brute_force_matches_closed_form(self, c, up, dn):
        result = fock_overlap_lemma_check(c, up, dn, cutoff=25)
        assert result.brute_force == pytest.approx(result.closed_form, abs=1e-10)
        assert result.fock_matrix_deviation < 1e-12

    def test_brute_force_matches_pair_by_pair_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            c, up, dn = (radius * math.sqrt(rng.uniform())
                         * cmath.exp(2j * math.pi * rng.uniform())
                         for radius in (1.0, 1.2, 1.2))
            result = fock_overlap_lemma_check(c, up, dn, cutoff=22)
            expect = overlap_lemma_brute_force(c, up, dn, cutoff=22)
            assert abs(result.brute_force - expect) <= 1e-13

    def test_identical_modes_reduce_to_plain_overlap(self):
        result = fock_overlap_lemma_check(1.0, 0.9, -0.7, cutoff=25)
        assert result.closed_form == pytest.approx(coherent_overlap(0.9, -0.7))

    def test_orthogonal_modes_leave_only_norms(self):
        result = fock_overlap_lemma_check(0.0, 0.9, -0.7, cutoff=25)
        assert result.brute_force == pytest.approx(
            math.exp(-0.5 * (0.81 + 0.49)), abs=1e-12
        )

    def test_warns_on_undersized_cutoff(self):
        with pytest.warns(UserWarning, match="truncation"):
            fock_overlap_lemma_check(0.5, 3.0, 0.5, cutoff=6)

    def test_rejects_super_unity_mode_overlap(self):
        with pytest.raises(ParameterError):
            fock_overlap_lemma_check(1.5, 0.5, 0.5)
        with pytest.raises(ParameterError):
            fock_overlap_lemma_check(math.nan, 0.5, 0.5)

    @given(c=UNIT_DISK, up=SMALL_AMP, dn=SMALL_AMP)
    def test_closed_form_conjugation_symmetry(self, c, up, dn):
        forward = mode_dressed_overlap(up, dn, c)
        backward = mode_dressed_overlap(dn, up, c.conjugate())
        assert backward == pytest.approx(forward.conjugate())


def test_default_cutoff_scales_with_amplitude():
    assert default_cutoff() == 20
    assert default_cutoff(1.0) == 31
    assert default_cutoff(1.0, 3.0 + 0.0j) > default_cutoff(1.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_beam_splitter_pair_rejects_non_finite_amplitude(alpha):
    with pytest.raises(ParameterError, match="alpha"):
        beam_splitter_pair(alpha, 0.3)
    with pytest.raises(ParameterError, match="alpha"):
        beam_splitter_pair(alpha, 0.3, cutoff=4)


@pytest.mark.parametrize("alphas", [(math.nan,), (1.0, math.nan), (math.inf, 1.0)])
def test_default_cutoff_rejects_non_finite_amplitudes(alphas):
    # The cutoff cat_density_matrix picks; a NaN after a finite value
    # would otherwise drop out of max() unseen.
    with pytest.raises(ParameterError, match="alpha"):
        default_cutoff(*alphas)


@pytest.mark.parametrize("alpha", [math.nan, complex(math.inf, 0.0)])
def test_coherent_state_rejects_non_finite_amplitude(alpha):
    with pytest.raises(ParameterError, match="alpha"):
        coherent_state(alpha, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: default_cutoff(1e200),
        lambda: coherent_state(1e200, 3),
        lambda: beam_splitter_pair(1e160, 0.3),
        lambda: coherent_state(complex(1e308, 1e308), 3),
    ],
    ids=["default_cutoff", "coherent_state", "beam_splitter_pair", "complex"],
)
def test_amplitude_with_overflowing_photon_number_refused(call):
    # Finite, but |alpha|^2 leaves float64.
    with pytest.raises(ParameterError, match="alpha is too large"):
        call()


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: beam_splitter_pair(1e100, 0.3),
         "amplitude 1e+100 asks for a 9.99e+199 x 9.99e+199 Fock grid"),
        (lambda: beam_splitter_pair(200.0, 0.3),
         "amplitude 200.0 asks for a 42021 x 42021 Fock grid"),
        (lambda: beam_splitter_pair(0.5, 0.3, cutoff=10**6),
         "amplitude 0.5 asks for a 1000001 x 1000001 Fock grid"),
        (lambda: beam_splitter_pair(complex(1e308, 1e308), 0.3, cutoff=10**400),
         "amplitude (1e+308+1e+308j) asks for a 1.00e+400 x 1.00e+400 Fock grid"),
        (lambda: cat_density_matrix(CatState(0.5, 0.0, 1.0, 50.0, -50.0)),
         "amplitude 50.0 and -50.0 asks for a 3021 x 3021 Fock grid"),
        (lambda: fock_overlap_lemma_check(0.5, 9.0, 1.0),
         "amplitude 9.0 and 1.0 asks for a 192 x 192 x 192 Fock grid"),
    ],
    ids=["huge", "200", "explicit_cutoff", "past_float64", "density_matrix", "lemma"],
)
def test_grid_past_the_limit_refused_before_allocation(call, message):
    # The number-state grid is sized first; one that would pass the
    # fixed limit is refused, naming the amplitudes and the grid, before
    # anything of that size is allocated.
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError) as exc:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value).startswith(message)
    assert peak < 2**20


def test_grid_limit_is_inclusive():
    # 2048 x 2048 is the largest two-mode grid, 161 the largest lemma axis.
    assert fock._grid_dim(2047, (0.5,)) == 2048
    assert fock._grid_dim(160, (0.5,), axes=3) == 161
    with pytest.raises(ParameterError, match="2049 x 2049"):
        fock._grid_dim(2048, (0.5,))
    with pytest.raises(ParameterError, match="162 x 162 x 162"):
        fock._grid_dim(161, (0.5,), axes=3)
    with pytest.raises(ParameterError, match="cutoff must be >= 0"):
        beam_splitter_pair(0.5, 0.3, cutoff=-3)
