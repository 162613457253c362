import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from rydcat import (
    CatState,
    QubitBranch,
    CavityParams,
    ParameterError,
    apply_beam_splitter,
    coherent_overlap,
    effective_size,
    generate_cat,
    loss_budget,
    max_photon_number,
    optimal_lambda,
    output_amplitudes,
    sweep_loss_vs_coupling,
)
from rydcat.cavity import lambda_factor
from rydcat.catstate import _l_gen_odds

ETA = st.floats(min_value=0.5, max_value=1.0)
COOP = st.floats(min_value=0.1, max_value=50.0)
LAM = st.floats(min_value=1.0, max_value=100.0)
AMPLITUDE = st.complex_numbers(max_magnitude=3.0, allow_infinity=False, allow_nan=False)


def headline_params():
    return CavityParams.from_coupling_strength(0.9825, 21.0, 21.0)


class TestCatState:
    def test_theta_wrapped(self):
        cat = CatState(f=0.5, theta=5.0 * math.pi, visibility=1.0,
                       alpha_up=1.0, alpha_dn=-1.0)
        assert abs(cat.theta) == pytest.approx(math.pi)

    def test_effective_size_ignores_common_displacement(self):
        a = CatState(f=0.5, theta=0.0, visibility=1.0, alpha_up=2.0, alpha_dn=-1.0)
        b = CatState(f=0.5, theta=0.0, visibility=1.0,
                     alpha_up=2.0 + 5.0j, alpha_dn=-1.0 + 5.0j)
        assert effective_size(a) == effective_size(b) == pytest.approx(1.5)

    @pytest.mark.parametrize("f,v", [(-0.1, 1.0), (1.1, 1.0), (0.5, -0.1), (0.5, 1.1)])
    def test_rejects_bad_weights(self, f, v):
        with pytest.raises(ParameterError):
            CatState(f=f, theta=0.0, visibility=v, alpha_up=1.0, alpha_dn=-1.0)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_theta(self, theta):
        with pytest.raises(ParameterError, match="theta"):
            CatState(f=0.5, theta=theta, visibility=1.0, alpha_up=1.0, alpha_dn=-1.0)

    @pytest.mark.parametrize("amplitude", [
        complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 1.0),
    ])
    @pytest.mark.parametrize("name", ["alpha_up", "alpha_dn"])
    def test_rejects_non_finite_amplitudes(self, name, amplitude):
        fields = {"alpha_up": 1.0, "alpha_dn": -1.0, name: amplitude}
        with pytest.raises(ParameterError, match=name):
            CatState(f=0.5, theta=0.0, visibility=1.0, **fields)


class TestBeamSplitter:
    def test_half_loss_on_size_root_two_cat(self):
        # Splitting |sqrt(2)>, |-sqrt(2)> in half loses coherent states
        # <1|-1>, so the visibility drops by exactly e^-2.
        cat = CatState(f=0.5, theta=0.0, visibility=1.0,
                       alpha_up=math.sqrt(2.0), alpha_dn=-math.sqrt(2.0))
        out = apply_beam_splitter(cat, 0.5)
        assert out.visibility == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert out.theta == pytest.approx(0.0)
        assert out.alpha_up == pytest.approx(1.0)
        assert out.alpha_dn == pytest.approx(-1.0)

    def test_phase_shift_from_complex_pair(self):
        cat = CatState(f=0.5, theta=0.1, visibility=0.9, alpha_up=1.0, alpha_dn=1.0j)
        out = apply_beam_splitter(cat, 0.36)
        # lost overlap exp(-0.36 + 0.36j): magnitude and phase split cleanly
        assert out.visibility == pytest.approx(0.9 * math.exp(-0.36), rel=1e-14)
        assert out.theta == pytest.approx(0.1 + 0.36, rel=1e-14)

    def test_lossless_is_identity(self):
        cat = CatState(f=0.3, theta=0.7, visibility=0.8,
                       alpha_up=1.0 + 0.5j, alpha_dn=-0.2j)
        out = apply_beam_splitter(cat, 0.0)
        assert out == cat

    def test_full_loss_erases_coherence(self):
        cat = CatState(f=0.5, theta=0.0, visibility=1.0, alpha_up=2.0, alpha_dn=-2.0)
        out = apply_beam_splitter(cat, 1.0)
        assert out.alpha_up == out.alpha_dn == 0.0
        assert out.visibility == pytest.approx(abs(coherent_overlap(2.0, -2.0)))

    @given(up=AMPLITUDE, dn=AMPLITUDE,
           l1=st.floats(min_value=0.0, max_value=0.99),
           l2=st.floats(min_value=0.0, max_value=0.99))
    def test_two_splitters_compose_into_one(self, up, dn, l1, l2):
        cat = CatState(f=0.5, theta=0.2, visibility=1.0, alpha_up=up, alpha_dn=dn)
        stepped = apply_beam_splitter(apply_beam_splitter(cat, l1), l2)
        combined = apply_beam_splitter(cat, 1.0 - (1.0 - l1) * (1.0 - l2))
        assert stepped.visibility == pytest.approx(combined.visibility, abs=1e-12)
        # compare on the unit circle: theta is only defined mod 2 pi
        assert cmath.exp(1j * stepped.theta) == pytest.approx(
            cmath.exp(1j * combined.theta), abs=1e-9
        )
        assert stepped.alpha_up == pytest.approx(combined.alpha_up, abs=1e-12)

    def test_rejects_loss_outside_unit_interval(self):
        cat = CatState(f=0.5, theta=0.0, visibility=1.0, alpha_up=1.0, alpha_dn=-1.0)
        for loss in (-0.1, 1.1):
            with pytest.raises(ParameterError):
                apply_beam_splitter(cat, loss)


class TestGenerateCat:
    @pytest.mark.parametrize("theta0", [math.inf, math.nan])
    def test_rejects_non_finite_theta0(self, theta0):
        with pytest.raises(ParameterError, match="theta"):
            generate_cat(headline_params(), 0.5, 1.0, theta0, 1.0)

    def test_reflected_amplitudes_and_size(self):
        cat, lost = generate_cat(headline_params(), 0.5, 1.0, 0.0, 1.0)
        assert cat.alpha_up == pytest.approx(-0.91068181818181818)
        assert cat.alpha_dn == pytest.approx(0.87568181818181818)
        assert effective_size(cat) == pytest.approx(0.89318181818181818)
        assert lost.a_up == pytest.approx(lost.a_dn)

    def test_visibility_decay_per_size_matches_budget(self):
        # The decay exponent per squared cat size is the generation loss
        # expressed as odds, l_gen / (1 - l_gen).
        params = headline_params()
        cat, _ = generate_cat(params, 0.5, 1.0, 0.0, 1.0)
        ratio = -math.log(cat.visibility) / (2.0 * effective_size(cat) ** 2)
        assert ratio == pytest.approx(0.017811704834605598, rel=1e-12)
        budget = loss_budget(params)
        assert ratio == pytest.approx(budget.l_gen / (1.0 - budget.l_gen), rel=1e-12)

    @given(eta=ETA, coop=COOP, lam=LAM,
           alpha=st.floats(min_value=0.1, max_value=3.0))
    def test_visibility_decay_matches_channel_budget(self, eta, coop, lam, alpha):
        # -ln V = 2 * l_ell * n_in ties the generated state to the budget.
        params = CavityParams.from_coupling_strength(eta, coop, lam)
        cat, _ = generate_cat(params, 0.5, 1.0, 0.0, alpha)
        budget = loss_budget(params)
        expected = math.exp(-2.0 * budget.l_ell * alpha**2)
        assert cat.visibility == pytest.approx(expected, abs=1e-12)

    def test_mode_mismatch_dressing(self):
        # A complex radiated-mode overlap multiplies in a_mode * b_mode
        # of extra decay and rotates theta by the matching phase.
        params = headline_params()
        overlap = 0.96 * cmath.exp(0.3j)
        plain, _ = generate_cat(params, 0.5, 1.0, 0.0, 1.0)
        dressed, _ = generate_cat(params, 0.5, 1.0, 0.0, 1.0,
                                  radiated_mode_overlap=overlap)
        budget = loss_budget(params, b_mode=1.0 - overlap.real)
        assert -math.log(dressed.visibility) == pytest.approx(
            2.0 * budget.l_ell, rel=1e-12
        )
        assert dressed.theta - plain.theta == pytest.approx(
            2.0 * budget.a_mode * overlap.imag, rel=1e-12
        )
        # The scattered-light factor is mode_dressed_overlap: the same
        # bits as the closed form written out in place.
        for alpha in (1.0, 0.7 - 1.3j):
            for mode in (1.0, overlap):
                cat, _ = generate_cat(params, 0.5, 1.0, 0.0, alpha,
                                      radiated_mode_overlap=mode)
                up = output_amplitudes(params, QubitBranch.UP, alpha)
                dn = output_amplitudes(params, QubitBranch.DOWN, alpha)
                gone = cmath.exp(
                    -0.5 * abs(up.a) ** 2
                    - 0.5 * abs(dn.a) ** 2
                    + up.a.conjugate() * mode * dn.a
                ) * coherent_overlap(up.m, dn.m)
                assert cat.visibility == min(1.0, abs(gone))
                assert cat.theta == cmath.phase(gone)

    def test_rejects_overlap_above_unit_magnitude(self):
        with pytest.raises(ParameterError):
            generate_cat(headline_params(), 0.5, 1.0, 0.0, 1.0,
                         radiated_mode_overlap=1.0 + 1e-6)
        with pytest.raises(ParameterError):
            generate_cat(headline_params(), 0.5, 1.0, 0.0, 1.0,
                         radiated_mode_overlap=math.nan)


class TestLossBudget:
    def test_headline_frozen_values(self):
        budget = loss_budget(headline_params())
        assert budget.l_gen == pytest.approx(0.0175, abs=1e-15)
        assert budget.l_cav == pytest.approx(0.20222623966942149, rel=1e-14)
        assert budget.l_a == 0.0
        assert budget.l_m == pytest.approx(0.014209710743801653, rel=1e-14)
        assert budget.a_mode == pytest.approx(0.085258264462809917, rel=1e-14)
        assert budget.l_ell == budget.l_m

    def test_weak_coupling_boundary_uses_limit(self):
        # At coupling strength 1 both branches emit identical fields, so
        # the decay-per-size ratio is a 0/0 limit.
        p = CavityParams.from_coupling_strength(0.9825, 21.0, 1.0)
        assert loss_budget(p).l_gen == pytest.approx(0.82948347107438017, rel=1e-14)
        lossless = CavityParams.from_coupling_strength(1.0, 1.0, 1.0)
        assert loss_budget(lossless).l_gen == 0.0

    def test_strong_coupling_limits(self):
        # finite-coupling corrections enter at order 1/lambda ~ 1e-6
        budget = loss_budget(CavityParams.from_coupling_strength(0.9825, 21.0, 1e6))
        assert budget.l_gen == pytest.approx(0.062159090909090909, rel=1e-4)
        assert budget.l_cav == pytest.approx(0.12045442923553719, rel=1e-4)
        assert budget.l_ell == pytest.approx(0.058295338326446281, rel=1e-4)

    @given(eta=ETA, coop=COOP, lam=LAM)
    def test_loss_chain_ordering(self, eta, coop, lam):
        budget = loss_budget(CavityParams.from_coupling_strength(eta, coop, lam))
        assert 0.0 <= budget.l_ell <= budget.l_gen <= budget.l_cav <= 1.0

    def test_limit_at_unit_coupling_never_rounds_below_zero(self):
        # At lam = 1, eta_esc = 1 and c one ulp above 1, 1 - e c (lam + 1)^2
        # / ((c + 1)(lam^2 + c)) is 1.2e-32 but rounds to -2.2e-16.
        params = CavityParams.from_coupling_strength(1.0, 1.0000000000000002, 1.0)
        assert loss_budget(params).l_gen == 0.0

    def test_rejects_bad_mode_mismatch(self):
        for b_mode in (-0.1, 2.1):
            with pytest.raises(ParameterError):
                loss_budget(headline_params(), b_mode=b_mode)


class TestOptimalOperatingPoint:
    def test_matches_cooperativity_above_one(self):
        assert optimal_lambda(headline_params()) == 21.0

    def test_clamps_to_reachable_range(self):
        p = CavityParams.from_coupling_strength(0.9, 0.5, 2.0)
        assert optimal_lambda(p) == 1.0

    @given(eta=ETA, coop=COOP)
    def test_no_grid_point_beats_it(self, eta, coop):
        p = CavityParams.from_coupling_strength(eta, coop, 2.0)
        best = optimal_lambda(p)
        floor = loss_budget(
            CavityParams.from_coupling_strength(eta, coop, best)
        ).l_gen
        for lam in np.geomspace(1.0, 100.0, 40):
            budget = loss_budget(CavityParams.from_coupling_strength(eta, coop, lam))
            assert budget.l_gen >= floor - 1e-12

    def test_max_photon_number_frozen_value(self):
        # 1/e visibility target at the headline operating point.
        n = max_photon_number(headline_params(), math.exp(-1.0))
        assert n == pytest.approx(28.071428571428571, rel=1e-14)

    def test_max_photon_number_self_consistent(self):
        # A cat of that size, hit with the generation decay rate, lands
        # exactly on the target visibility ratio.
        params = headline_params()
        budget = loss_budget(params)
        n = max_photon_number(params, math.exp(-1.0))
        decay = 2.0 * n * budget.l_gen / (1.0 - budget.l_gen)
        assert math.exp(-decay) == pytest.approx(math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("eta, coop", [
        (0.9825, 21.0), (0.99, 1.0), (0.6, 3.0), (0.3, 0.5), (1e-10, 21.0),
        (1e-300, 21.0),
    ])
    def test_odds_and_photon_number_match_mpmath(self, eta, coop):
        # l_gen rounds to 1 below eta_esc ~ 1e-8, so past l_gen = 1/2 both
        # take 1 - l_gen from its closed form; a 40-digit oracle of it.
        params = CavityParams.from_coupling_strength(
            eta, coop, optimal_lambda(CavityParams(eta, coop)))
        ratio = math.exp(-1.0)
        with mpmath.workdps(40):
            e, c, lam, r = map(mpmath.mpf, (params.eta_esc, params.cooperativity,
                                            lambda_factor(params, QubitBranch.DOWN),
                                            ratio))
            kept = e * c / (c + 1) * (lam + 1) ** 2 / (lam**2 + c)
            odds = float((1 - kept) / kept)
            photons = float(-mpmath.log(r) * kept / (2 * (1 - kept)))
        assert _l_gen_odds(params, loss_budget(params).l_gen) == pytest.approx(
            odds, rel=2e-15, abs=0.0)
        if kept < 1:
            assert max_photon_number(params, ratio) == pytest.approx(
                photons, rel=2e-15, abs=0.0)

    def test_odds_past_float64_refused(self):
        params = CavityParams(1e-300, 1e-300)
        with pytest.raises(ParameterError, match="^l_gen / \\(1 - l_gen\\) overflows"):
            _l_gen_odds(params, loss_budget(params).l_gen)

    @pytest.mark.parametrize("coop", [1e10, 1.0 + 2.0**-52])
    def test_photon_number_unbounded_at_full_escape(self, coop):
        # At lambda = C, 1 - l_gen is eta_esc = 1 exactly; rounded
        # through its closed form it came out an ulp below 1, and the
        # photon number as about 4.5e15 instead of unbounded.
        params = CavityParams.from_coupling_strength(1.0, coop, 1.0)
        with pytest.raises(ParameterError, match="photon number unbounded"):
            max_photon_number(params, math.exp(-1.0))

    def test_rejects_out_of_range_ratio(self):
        for ratio in (0.0, 1.0, 1.5):
            with pytest.raises(ParameterError):
                max_photon_number(headline_params(), ratio)

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: loss_budget(p),
            lambda p: optimal_lambda(p),
            lambda p: max_photon_number(p, math.exp(-1.0)),
            lambda p: sweep_loss_vs_coupling(p.eta_esc, p.cooperativity, [2.0]),
        ],
        ids=["loss_budget", "optimal_lambda", "max_photon_number", "sweep"],
    )
    def test_zero_cooperativity_refused_alike(self, call):
        with pytest.raises(ParameterError, match="^loss budget needs cooperativity > 0$"):
            call(CavityParams(0.9825, 0.0))


class TestSweep:
    def test_columns_and_minimum_location(self):
        grid = np.geomspace(1.0, 100.0, 201)
        rows = sweep_loss_vs_coupling(0.9825, 21.0, grid)
        assert set(rows) == {
            "lambda_dn", "l_a", "l_m", "l_gen", "a_up_over_in", "a_dn_over_in"
        }
        # Minimum of l_gen sits at the grid point nearest the cooperativity.
        best = grid[np.argmin(rows["l_gen"])]
        expect = grid[np.argmin(np.abs(grid - 21.0))]
        assert best == expect

    def test_rejects_grid_below_one(self):
        with pytest.raises(ParameterError):
            sweep_loss_vs_coupling(0.9825, 21.0, [0.5, 2.0])

    @pytest.mark.parametrize("eta, coop, grid", [
        (0.9825, 21.0, np.geomspace(1.0, 1000.0, 400)),
        (0.7, 3.5, 1.0 + np.random.default_rng(5).exponential(20.0, 3000)),
        (1.0, 0.6, np.array([1.0, 1.0 + 2e-16, 1.5, 1e6])),
    ])
    def test_bit_identical_to_per_point_budget(self, eta, coop, grid):
        # The sweep as it was: one CavityParams, loss budget and pair of
        # output amplitudes per grid point, in Python floats.
        expect = {name: [] for name in ("l_a", "l_m", "l_gen", "a_up_over_in",
                                        "a_dn_over_in")}
        for lam in grid.tolist():
            p = CavityParams.from_coupling_strength(eta, coop, lam)
            budget = loss_budget(p)
            expect["l_a"].append(budget.l_a)
            expect["l_m"].append(budget.l_m)
            expect["l_gen"].append(budget.l_gen)
            expect["a_up_over_in"].append(
                output_amplitudes(p, QubitBranch.UP, 1.0).a.real)
            expect["a_dn_over_in"].append(
                output_amplitudes(p, QubitBranch.DOWN, 1.0).a.real)
        with np.errstate(all="raise"):
            rows = sweep_loss_vs_coupling(eta, coop, grid)
        assert rows["lambda_dn"].tobytes() == grid.tobytes()
        for name, values in expect.items():
            assert rows[name].tobytes() == np.array(values).tobytes(), name

    @pytest.mark.parametrize("grid", [[2.0, np.inf], [2.0, 1e200]])
    def test_unrepresentable_point_raises_as_its_budget(self, grid):
        with pytest.raises(ParameterError, match="l_cav must be in"):
            sweep_loss_vs_coupling(0.9825, 21.0, grid)

    def test_rejects_nan_and_zero_cooperativity(self):
        with pytest.raises(ParameterError):
            sweep_loss_vs_coupling(0.9825, 21.0, [2.0, float("nan")])
        with pytest.raises(ParameterError):
            sweep_loss_vs_coupling(0.9825, 0.0, [2.0])
