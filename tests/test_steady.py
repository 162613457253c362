import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from rydcat import (
    CavityParams,
    DetuningSet,
    NumericalError,
    QubitBranch,
    SteadyState,
    output_amplitudes,
    reflection_coefficient,
    solve_steady_state,
    spontaneous_amplitude,
    steady_residuals,
)
from rydcat import steady
from rydcat.steady import _solve_tridiagonal, _steady_system

from oracles import steady_state_mpmath

ETA = st.floats(min_value=0.5, max_value=1.0)
COOP = st.floats(min_value=0.0, max_value=50.0)
LAM = st.floats(min_value=1.0, max_value=100.0)
DETUNING = st.floats(min_value=-20.0, max_value=20.0)


def headline_params():
    return CavityParams.from_coupling_strength(0.9825, 21.0, 21.0)


class TestResonantSolve:
    def test_matches_closed_form_outputs(self):
        params = headline_params()
        det = DetuningSet.resonant()
        for branch in QubitBranch:
            exact = output_amplitudes(params, branch, 1.0)
            ss = solve_steady_state(params, det, branch, 1.0)
            assert ss.e_out == pytest.approx(exact.r, abs=1e-13)
            assert ss.e_mirror == pytest.approx(exact.m, abs=1e-13)
            assert spontaneous_amplitude(ss) == pytest.approx(abs(exact.a),
                                                              abs=1e-12)

    def test_blockaded_branch_freezes_spin_coherence(self):
        ss = solve_steady_state(headline_params(), DetuningSet.resonant(),
                                QubitBranch.UP, 1.0)
        assert ss.s_spinwave == 0.0

    def test_transparent_branch_builds_spin_coherence(self):
        ss = solve_steady_state(headline_params(), DetuningSet.resonant(),
                                QubitBranch.DOWN, 1.0)
        assert abs(ss.s_spinwave) > 0.1

    def test_empty_cavity_reflection(self):
        # No atoms: the coupler impedance alone sets the reflection.
        params = CavityParams(eta_esc=0.8, cooperativity=0.0)
        ss = solve_steady_state(params, DetuningSet.resonant(),
                                QubitBranch.UP, 1.0)
        assert ss.e_out == pytest.approx(2.0 * 0.8 - 1.0, abs=1e-14)
        assert ss.p_medium == 0.0


class TestDetunedSolve:
    @given(eta=ETA, coop=COOP, lam=LAM, dc=DETUNING, ds=DETUNING, d2=DETUNING)
    def test_output_equals_reflection_coefficient(self, eta, coop, lam,
                                                  dc, ds, d2):
        # Independent route to the same answer: 3x3 linear solve vs the
        # adiabatically eliminated closed form.
        params = CavityParams.from_coupling_strength(eta, coop, lam)
        det = DetuningSet(delta_c=dc, delta_s=ds, delta_2_dn=d2)
        for branch in QubitBranch:
            expect = reflection_coefficient(params, det, branch)
            ss = solve_steady_state(params, det, branch, 1.0)
            assert ss.e_out == pytest.approx(expect, abs=1e-10)

    @given(eta=ETA, coop=COOP, lam=LAM, dc=DETUNING, ds=DETUNING, d2=DETUNING)
    def test_residuals_vanish(self, eta, coop, lam, dc, ds, d2):
        params = CavityParams.from_coupling_strength(eta, coop, lam)
        det = DetuningSet(delta_c=dc, delta_s=ds, delta_2_dn=d2)
        for branch in QubitBranch:
            ss = solve_steady_state(params, det, branch, 1.0)
            assert np.max(steady_residuals(params, det, branch, ss)) < 1e-10

    @given(eta=ETA, coop=COOP, lam=LAM, dc=DETUNING, ds=DETUNING, d2=DETUNING)
    def test_passivity(self, eta, coop, lam, dc, ds, d2):
        params = CavityParams.from_coupling_strength(eta, coop, lam)
        det = DetuningSet(delta_c=dc, delta_s=ds, delta_2_dn=d2)
        for branch in QubitBranch:
            ss = solve_steady_state(params, det, branch, 1.0)
            assert abs(ss.e_out) <= 1.0 + 1e-12
            spontaneous_amplitude(ss)  # must not raise


class TestResiduals:
    def test_detect_corrupted_solution(self):
        params = headline_params()
        det = DetuningSet.resonant()
        ss = solve_steady_state(params, det, QubitBranch.DOWN, 1.0)
        bad = SteadyState(
            e_cav=ss.e_cav * 1.01,
            p_medium=ss.p_medium,
            s_spinwave=ss.s_spinwave,
            e_out=ss.e_out,
            e_mirror=ss.e_mirror,
            e_in=ss.e_in,
        )
        assert np.max(steady_residuals(params, det, QubitBranch.DOWN, bad)) > 1e-3


def test_spontaneous_amplitude_rejects_energy_surplus():
    ss = SteadyState(e_cav=0.0, p_medium=0.0, s_spinwave=0.0,
                     e_out=1.0, e_mirror=0.5, e_in=1.0)
    with pytest.raises(NumericalError):
        spontaneous_amplitude(ss)


def two_branch_reference(params, det, branch, e_in):
    # The solve as it was written before both branches shared one 3x3
    # system: a 2x2 field/polarization solve on the blockaded branch.
    g = math.sqrt(params.cooperativity * params.kappa * params.gamma)
    drive = math.sqrt(2.0 * params.kappa_in) * e_in
    delta_2 = det.delta_2(branch)
    if abs(delta_2) == math.inf:
        matrix = np.array(
            [
                [params.kappa - 1j * det.delta_c, -1j * g],
                [-1j * g, params.gamma - 1j * det.delta_s],
            ],
            dtype=complex,
        )
        e_cav, p_medium = np.linalg.solve(matrix, np.array([drive, 0.0], dtype=complex))
        s_spinwave = 0.0 + 0.0j
    else:
        half_omega = 0.5 * params.omega_c
        matrix = np.array(
            [
                [params.kappa - 1j * det.delta_c, -1j * g, 0.0],
                [-1j * g, params.gamma - 1j * det.delta_s, -1j * half_omega],
                [0.0, -1j * half_omega, 0.5 * params.gamma_rg - 1j * delta_2],
            ],
            dtype=complex,
        )
        rhs = np.array([drive, 0.0, 0.0], dtype=complex)
        e_cav, p_medium, s_spinwave = np.linalg.solve(matrix, rhs)
    e_out = math.sqrt(2.0 * params.kappa_in) * e_cav - e_in
    e_mirror = math.sqrt(2.0 * params.kappa_hr) * e_cav
    return np.array([e_cav, p_medium, s_spinwave, e_out, e_mirror], dtype=complex)


def random_systems(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        params = CavityParams.from_coupling_strength(
            eta_esc=rng.uniform(0.3, 1.0),
            cooperativity=rng.uniform(0.0, 60.0),
            lambda_dn=rng.uniform(1.0, 100.0),
            kappa=rng.uniform(0.2, 3.0),
            gamma=rng.uniform(0.2, 3.0),
            gamma_rg=rng.uniform(0.01, 3.0),
        )
        dc, ds, d2 = rng.uniform(-20.0, 20.0, 3)
        det = DetuningSet(delta_c=dc, delta_s=ds, delta_2_dn=d2)
        yield params, det, complex(rng.normal(), rng.normal())


def test_solve_within_16_ulp_of_two_branch_reference():
    # LAPACK's dense solve, as the package used it before the
    # tridiagonal elimination; the two round differently (at most 7.6
    # ulp of the largest output apart on 6,000 systems).
    for params, det, e_in in random_systems(11, 500):
        for branch in QubitBranch:
            ss = solve_steady_state(params, det, branch, e_in)
            got = np.array([ss.e_cav, ss.p_medium, ss.s_spinwave, ss.e_out,
                            ss.e_mirror], dtype=complex)
            expect = two_branch_reference(params, det, branch, e_in)
            bound = 16 * np.finfo(float).eps * np.max(np.abs(expect))
            assert np.max(np.abs(got - expect)) <= bound


def pivot_path(params, det, branch):
    # Whether the elimination interchanges rows at its first and at its
    # second step: xGTSV keeps the row whose pivot is larger in
    # |re| + |im|.
    def cabs1(z):
        return abs(z.real) + abs(z.imag)

    (l0, l1), (d0, d1, _), (u0, _), _ = _steady_system(params, det, branch, 1.0)
    swap_first = cabs1(d0) < cabs1(l0)
    pivot = u0 - d0 / l0 * d1 if swap_first else d1 - l0 / d0 * u0
    return swap_first, cabs1(pivot) < cabs1(l1)


def oracle_error(params, det, branch, e_in):
    """Distance to the 40-digit solve, relative to its largest component."""
    ss = solve_steady_state(params, det, branch, e_in)
    exact = steady_state_mpmath(params, det, branch, e_in)
    scale = max(abs(x) for x in exact)
    got = (ss.e_cav, ss.p_medium, ss.s_spinwave)
    return float(max(abs(mpmath.mpc(z) - x) for z, x in zip(got, exact)) / scale)


def test_solve_matches_mpmath_oracle():
    paths = {branch: set() for branch in QubitBranch}
    for params, det, e_in in random_systems(2026, 1000):
        for branch in QubitBranch:
            assert oracle_error(params, det, branch, e_in) <= 4e-15
            paths[branch].add(pivot_path(params, det, branch))
    # The blockaded branch's spin row is decoupled, so its second step
    # never interchanges.
    assert paths[QubitBranch.DOWN] == {(False, False), (False, True),
                                       (True, False), (True, True)}
    assert paths[QubitBranch.UP] == {(False, False), (True, False)}


@pytest.mark.parametrize(
    "cooperativity,kappa,lambda_dn,path",
    [
        (0.5, 3.0, 1.5, (False, False)),
        (21.0, 1.0, 3.0, (True, False)),
        (0.5, 3.0, 21.0, (False, True)),
        (21.0, 1.0, 21.0, (True, True)),  # the headline cavity
    ],
)
def test_each_pivot_path_matches_oracle(cooperativity, kappa, lambda_dn, path):
    params = CavityParams.from_coupling_strength(0.9825, cooperativity,
                                                 lambda_dn, kappa=kappa)
    det = DetuningSet(delta_c=0.3, delta_s=-0.2, delta_2_dn=0.1)
    assert pivot_path(params, det, QubitBranch.DOWN) == path
    assert oracle_error(params, det, QubitBranch.DOWN, 0.7 - 0.4j) <= 4e-15


def test_solve_makes_no_numpy_call(monkeypatch):
    monkeypatch.delattr(steady, "np")
    for branch in QubitBranch:
        solve_steady_state(headline_params(), DetuningSet.resonant(), branch, 1.0)


@pytest.mark.parametrize("row", [0, 1, 2])
def test_zero_pivot_is_singular(row):
    diag = [1.0 + 0j, 1.0 + 0j, 1.0 + 0j]
    diag[row] = 0j
    with pytest.raises(NumericalError,
                       match=f"^steady-state system is singular: zero pivot in row {row}$"):
        _solve_tridiagonal((0j, 0j), tuple(diag), (0j, 0j), (1 + 0j, 0j, 0j))
