import os
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import rydcat.montecarlo as montecarlo
from rydcat import (
    AtomCloud,
    MonteCarloConfig,
    NumericalError,
    ParameterError,
    Polarization,
    power_law_study,
    run_monte_carlo,
)
from rydcat.bessel import j0_stable, j2_stable
from rydcat.overlap import _drive_phase, legendre_p2, overlap_matrix


def small_config(**overrides):
    base = dict(n_atoms=12, n_runs=8, seed=3)
    base.update(overrides)
    return MonteCarloConfig(**base)


class TestConfig:
    def test_defaults_describe_reference_experiment(self):
        cfg = MonteCarloConfig()
        assert cfg.n_atoms == 260
        assert cfg.sigmas == (3.3, 4.5, 1.7)
        assert cfg.wavelength == 0.78
        assert cfg.n_runs == 100
        assert cfg.polarization is not None
        assert cfg.polarization.self_overlap == pytest.approx(0.0, abs=1e-15)

    def test_isotropic_swaps_in_geometric_mean(self):
        aniso = MonteCarloConfig()
        iso = MonteCarloConfig(isotropic=True)
        assert aniso.effective_sigmas == (3.3, 4.5, 1.7)
        for s in iso.effective_sigmas:
            assert s == pytest.approx(2.9335384957512604, rel=1e-14)

    @pytest.mark.parametrize("width", [1e-110, 1e120])
    def test_isotropic_mean_of_extreme_widths(self, width):
        # The product of the widths underflows or overflows float64.
        iso = MonteCarloConfig(sigmas=(width / 2.0, width, width * 2.0),
                               isotropic=True)
        for s in iso.effective_sigmas:
            assert s == pytest.approx(width, rel=4e-16, abs=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_atoms=1),
            dict(n_runs=1),
            dict(wavelength=0.0),
            dict(sigmas=(1.0, 2.0)),
            dict(sigmas=(1.0, -2.0, 3.0)),
            dict(seed=-1),
            dict(seed=2**64),
            dict(workers=0),
            dict(wavelength=float("nan")),
            dict(wavelength=float("inf")),
            dict(sigmas=(float("inf"), 1.0, 1.0)),
            dict(sigmas=(1.0, float("nan"), 1.0)),
            dict(direction=(0.0, float("nan"), -1.0)),
            dict(direction=(float("inf"), 0.0, -1.0)),
            dict(n_atoms=20.0),
            dict(n_runs=8.0),
            dict(seed=1.5),
            dict(seed=np.float64(1.0)),
            dict(workers=1.5),
            dict(direction=(0.0, 1.0)),
            dict(direction=(0.0, 0.0, 0.0)),
            dict(direction=(1e200, 1e200, 0.0)),
            dict(n_runs=2**32),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ParameterError):
            MonteCarloConfig(**kwargs)

    def test_direction_too_long_fails_without_warning(self):
        # Its squared length passes float64: the check must say so with
        # its ParameterError alone, not with an overflow warning first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="direction"):
                MonteCarloConfig(direction=(1e200, 1e200, 0.0))

    def test_direction_past_float64_fails_with_parameter_error(self):
        with pytest.raises(ParameterError, match="direction"):
            MonteCarloConfig(direction=(10**400, 0, 0))

    def test_numpy_integers_pass(self):
        config = MonteCarloConfig(n_atoms=np.int64(6), n_runs=np.int32(3),
                                  seed=np.uint64(7))
        plain = MonteCarloConfig(n_atoms=6, n_runs=3, seed=7)
        assert run_monte_carlo(config).b.tobytes() == run_monte_carlo(plain).b.tobytes()

    def test_explicit_workers_override_environment(self, monkeypatch):
        monkeypatch.setenv("RYDCAT_WORKERS", "6")
        assert MonteCarloConfig(workers=2).resolve_workers() == 2
        assert MonteCarloConfig().resolve_workers() == 6
        monkeypatch.setenv("RYDCAT_WORKERS", "not a number")
        assert MonteCarloConfig().resolve_workers() == 1


class TestDeterminism:
    def test_identical_configs_reproduce_bitwise(self):
        a = run_monte_carlo(small_config())
        b = run_monte_carlo(small_config())
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.c_up_dn, b.c_up_dn)
        assert np.array_equal(a.s12, b.s12)

    def test_worker_count_does_not_change_results(self):
        serial = run_monte_carlo(small_config(workers=1))
        threaded = run_monte_carlo(small_config(workers=4))
        assert np.array_equal(serial.b, threaded.b)
        assert np.array_equal(serial.s12_sq, threaded.s12_sq)

    def test_seeds_give_independent_streams(self):
        a = run_monte_carlo(small_config(seed=3))
        b = run_monte_carlo(small_config(seed=4))
        assert not np.array_equal(a.b, b.b)

    def test_runs_within_a_batch_differ(self):
        res = run_monte_carlo(small_config())
        assert len(set(res.b.tolist())) == res.config.n_runs


class TestObservables:
    def test_two_atoms_never_mismatch(self):
        res = run_monte_carlo(small_config(n_atoms=2, n_runs=4))
        assert np.max(np.abs(res.b)) < 1e-12
        assert np.max(np.abs(res.c_up_dn - 1.0)) < 1e-12

    def test_mismatch_nonnegative_overlap_bounded(self):
        res = run_monte_carlo(small_config())
        assert np.all(res.b >= 0.0)
        assert np.all(np.abs(res.c_up_dn) <= 1.0 + 1e-12)

    def test_moments_consistent_with_arrays(self):
        res = run_monte_carlo(small_config())
        assert res.b_mean == pytest.approx(float(res.b.mean()))
        assert res.rms == pytest.approx(float(np.sqrt(res.s12_sq.mean())))
        assert res.b_sem > 0.0
        assert res.rms_sem > 0.0

    def test_summary_layout(self):
        summary = run_monte_carlo(small_config()).summary()
        assert sorted(summary) == [
            "b_mean", "b_sem", "c_mean_im", "c_mean_re", "c_sem_im",
            "rms", "rms_sem", "s12_mean_im", "s12_mean_re", "s12_sem_im",
            "s12_sem_re",
        ]
        assert all(isinstance(v, float) for v in summary.values())

    def test_rms_underflow_is_a_numerical_failure(self):
        # The delta method divides by the rms, which a cloud wide against
        # the wavelength underflows to 0.
        res = run_monte_carlo(small_config(n_atoms=12, n_runs=3,
                                           sigmas=(1e8, 1e150, 1e8),
                                           wavelength=1e-20))
        assert res.rms == 0.0
        with pytest.raises(NumericalError, match="^rms pair overlap underflows to 0"):
            res.rms_sem


@pytest.fixture(scope="module")
def study():
    return power_law_study(MonteCarloConfig(seed=0), n_grid=range(3, 9),
                           runs_budget=2000.0)


class TestPowerLawStudy:
    def test_run_counts_follow_budget(self, study):
        assert study.runs.tolist() == [222, 125, 80, 56, 41, 31]

    def test_fitted_decay(self, study):
        # the underlying decay is 1/N^3 with coefficient ~1.0e-4
        assert study.c3 == pytest.approx(1.03e-4, abs=3.0 * study.c3_err)
        assert study.c3_err > 0.0
        assert study.free_slope == pytest.approx(-3.0, abs=0.5)

    def test_extrapolation_is_pure_cubic(self, study):
        assert study.extrapolate(260.0) == pytest.approx(
            study.c3 / 260.0**3, rel=1e-15
        )

    def test_grid_points_use_disjoint_streams(self):
        # same seed, different N: the draws must not be correlated copies
        a = power_law_study(MonteCarloConfig(seed=0), n_grid=[3, 4],
                            runs_budget=50.0)
        b = power_law_study(MonteCarloConfig(seed=0), n_grid=[4, 5],
                            runs_budget=50.0)
        shared_n4_a = a.b_mean[1] * a.runs[1]
        shared_n4_b = b.b_mean[0] * b.runs[0]
        assert shared_n4_a == pytest.approx(shared_n4_b, rel=1e-12)

    def test_rejects_degenerate_grids(self):
        cfg = MonteCarloConfig(seed=0)
        with pytest.raises(ParameterError):
            power_law_study(cfg, n_grid=[5])
        with pytest.raises(ParameterError):
            power_law_study(cfg, n_grid=[1, 5])
        with pytest.raises(ParameterError):
            power_law_study(cfg, n_grid=[3, 4], runs_budget=0.0)
        for budget in (float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                power_law_study(cfg, n_grid=[3, 4], runs_budget=budget)
        for grid in ([3, 4.5], [3.0, 4], np.array([3.0, 4.0])):
            with pytest.raises(ParameterError):
                power_law_study(cfg, n_grid=grid, runs_budget=50.0)

    def test_rejects_runs_past_the_stream_key(self):
        # 2**32 runs at N = 3 would reach the streams of N = 4.
        with pytest.raises(ParameterError, match="run counts must fit in 32 bits"):
            power_law_study(MonteCarloConfig(seed=0), n_grid=[3, 4],
                            runs_budget=9.0 * 2**32)

    def test_rejects_two_atoms(self):
        # b is exactly 0 at N = 2, so its log and its weight are undefined.
        with pytest.raises(ParameterError, match="^each atom number must be >= 3, got 2$"):
            power_law_study(MonteCarloConfig(seed=0), n_grid=[2, 3], runs_budget=8.0)

    @pytest.mark.parametrize("grid", [[3, 3], [3, 4, 3]])
    def test_rejects_repeated_atom_number(self, grid):
        # Both points would be the same (seed, N, run) streams, and the
        # fit would count those runs twice as if independent.
        with pytest.raises(ParameterError, match="repeats the atom number 3"):
            power_law_study(MonteCarloConfig(seed=0), n_grid=grid, runs_budget=50.0)


# The per-run path as it was before runs were stacked and before the
# branch mismatch was reformulated: a fresh Philox generator, one cloud
# and one full N x N matrix per run, reduced in Python floats to c and
# b = 1 - Re c.  That b carries the rounding of c to a few ulp of 1, so
# it is a reference only where b is large (N <= 30): the package must
# agree with it to within that error.  Its drive phase is rank 1,
# e_i conj(e_j) with e = exp(-i k.x) from the package's compensated k.x;
# ``direct_phase`` instead forms exp(-i k.(x_i - x_j)) per pair, as the
# kernel did before, which agrees to rounding only.
def reference_matrix(config, key, direct_phase=False):
    rng = np.random.Generator(np.random.Philox(key=key))
    direction = np.asarray(config.direction, dtype=float)
    k_in = 2.0 * np.pi / config.wavelength * direction / np.linalg.norm(direction)
    pos = rng.normal(0.0, np.asarray(config.effective_sigmas, dtype=float),
                     size=(config.n_atoms, 3))
    diffs = pos[:, None, :] - pos[None, :, :]
    dist = np.linalg.norm(diffs, axis=-1)
    safe = np.where(dist == 0.0, 1.0, dist)
    proj = np.abs(np.tensordot(diffs, config.polarization.jones,
                               axes=(-1, 0))) / safe
    k = float(np.linalg.norm(k_in))
    kernel = j0_stable(k * dist) + legendre_p2(proj) * j2_stable(k * dist)
    if direct_phase:
        s = np.exp(-1j * np.tensordot(diffs, k_in, axes=(-1, 0))) * kernel
    else:
        e = _drive_phase(pos, k_in)
        s = e[:, None] * e.conj()[None, :] * kernel
        # e_j conj(e_i) need not round to the conjugate of e_i conj(e_j);
        # the kernel evaluates i < j and mirrors.
        iu, ju = np.triu_indices(config.n_atoms, k=1)
        s[ju, iu] = s[iu, ju].conj()
    np.fill_diagonal(s, 1.0)
    return pos, k_in, s


def reference_run(config, key):
    s = reference_matrix(config, key)[2]
    row = s.sum(axis=1)
    n_dn = float(s.sum().real)
    inv = 1.0 / np.sqrt(n_dn - 2.0 * row.real + 1.0)
    t0 = float(inv.sum())
    t1 = complex((inv * row).sum())
    t2 = float((inv @ s @ inv).real)
    n_up = n_dn * t0**2 - 2.0 * t0 * t1.real + t2
    c = complex((n_dn * t0 - t1) / np.sqrt(n_dn * n_up))
    iu, ju = np.triu_indices(config.n_atoms, k=1)
    vals = s[iu, ju]
    return (1.0 - c.real, c, complex(vals.mean()),
            float(np.mean(np.abs(vals) ** 2)), t0)


def reference_runs(config, first_stream=0):
    rows = [
        reference_run(config, np.array([config.seed, first_stream + run],
                                       dtype=np.uint64))
        for run in range(config.n_runs)
    ]
    return (np.array([r[0] for r in rows]),
            np.array([r[1] for r in rows], dtype=complex),
            np.array([r[2] for r in rows], dtype=complex),
            np.array([r[3] for r in rows]),
            np.array([r[4] for r in rows]))


GEOMETRIES = {
    "circular": {},
    "isotropic": dict(isotropic=True),
    "linear": dict(polarization=Polarization.linear((1.0, 0.0, 0.0))),
    "oblique": dict(direction=(0.3, -0.5, 0.8),
                    polarization=Polarization.linear((0.0, 1.0, 1.0))),
}
# Enough runs that N = 2, 3, 13 and 19 share tiles and N = 64 fills
# twenty; N = 260 takes nine tiles per run.
RUNS = {2: 9, 3: 9, 13: 9, 19: 9, 64: 40, 260: 3}


FIELDS = ("b", "c_up_dn", "s12", "s12_sq")


def sample_runs(config, first_stream=0):
    """The per-run record of one campaign."""
    (record,) = montecarlo._sample_runs([(config, first_stream)])
    return record


def runs_in_campaigns(config, first_stream, size):
    """The runs of ``config`` from separate campaigns of ``size`` runs.

    A campaign of one run is the first run of a campaign of two, since a
    configuration needs two runs.
    """
    parts = []
    for start in range(0, config.n_runs, size):
        runs = min(size, config.n_runs - start)
        got = sample_runs(replace(config, n_runs=max(2, runs)), first_stream + start)
        parts.append({name: got[name][:runs] for name in FIELDS})
    return {name: np.concatenate([part[name] for part in parts]) for name in FIELDS}


@pytest.mark.parametrize("first_stream", [1, 1 << 16, 10**6])
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("n", sorted(RUNS))
def test_runs_bit_identical_to_per_run_path(geometry, n, first_stream):
    # Each run evaluated alone, first in a campaign of its own, against
    # the same runs in one campaign: a run's bits depend on its stream
    # key alone, not on the campaign size, its place in a tile or the
    # worker count.
    config = MonteCarloConfig(n_atoms=n, n_runs=RUNS[n], seed=5,
                              **GEOMETRIES[geometry])
    alone = runs_in_campaigns(config, first_stream, 1)
    for workers in (1, 2, 4):
        got = sample_runs(replace(config, workers=workers), first_stream)
        for name in FIELDS:
            assert got[name].tobytes() == alone[name].tobytes()
    if first_stream == 1:
        res = run_monte_carlo(config)
        expect = sample_runs(config)
        for name in FIELDS:
            assert getattr(res, name).tobytes() == expect[name].tobytes()


def test_lone_pair_tile_bit_identical_to_per_run_path():
    # A tile holds 4,096 two-atom clouds, so the last run of a campaign
    # of 4,097 has a tile of one pair to itself: its bits must be those
    # of the same run evaluated alone, in a tile shared with another.
    config = MonteCarloConfig(n_atoms=2, n_runs=4097, seed=5)
    alone = runs_in_campaigns(config, 1, 1)
    got = sample_runs(config, 1)
    for name in FIELDS:
        assert got[name].tobytes() == alone[name].tobytes()


@pytest.mark.parametrize("n, runs, groups", [
    (3, 2222, [2222]),
    (30, 22, [22]),
    (64, 40, [32, 8]),
    (260, 3, [1, 1, 1]),
])
def test_runs_reduced_in_groups(monkeypatch, n, runs, groups):
    # Whole tiles of small clouds, up to 2**16 pairs, share one
    # collective_pairs call (one drive phase and one branch reduction);
    # a cloud of more than 2**15 pairs has a call of its own.
    sizes = []
    reduce = montecarlo.collective_pairs

    def counted(positions, *args):
        sizes.append(positions.shape[0])
        return reduce(positions, *args)

    monkeypatch.setattr(montecarlo, "collective_pairs", counted)
    # One process, so that RYDCAT_WORKERS cannot move groups into a
    # child, where the counter would not see them.
    sample_runs(MonteCarloConfig(n_atoms=n, n_runs=runs, seed=5, workers=1))
    assert sizes == groups


@pytest.fixture
def forked(monkeypatch):
    """The pids of the children forked while the test runs."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def campaign_fields(result):
    return [field.tobytes() for field in
            (result.b, result.c_up_dn, result.s12, result.s12_sq)]


def study_fields(study):
    return [np.asarray(getattr(study, name)).tobytes() for name in
            ("n_atoms", "b_mean", "b_sem", "runs", "c3", "c3_err", "free_slope")]


@pytest.fixture
def fork_small(monkeypatch):
    """Let campaigns of any size fork, so that small ones test the path."""
    monkeypatch.setattr(montecarlo, "_FORK_MIN_WORK", 0)


def test_forked_campaign_bit_identical(forked):
    # Seventy N = 260 runs, one group each, past the fork threshold: 2 and
    # 3 workers fork 1 and 2 children, and every field keeps its bytes.
    config = MonteCarloConfig(n_atoms=260, n_runs=70, seed=5)
    serial = campaign_fields(run_monte_carlo(replace(config, workers=1)))
    assert forked == []
    for workers in (2, 3):
        forked.clear()
        got = campaign_fields(run_monte_carlo(replace(config, workers=workers)))
        assert len(forked) == workers - 1
        assert got == serial


def test_forked_scan_bit_identical(forked, fork_small):
    # Every group of every N in one list: a scan forks once per child.
    config = MonteCarloConfig(seed=5)
    serial = study_fields(power_law_study(replace(config, workers=1),
                                          range(3, 13), 2e4))
    assert forked == []
    for workers in (2, 3):
        forked.clear()
        got = study_fields(power_law_study(replace(config, workers=workers),
                                           range(3, 13), 2e4))
        assert len(forked) == workers - 1
        assert got == serial


def test_small_campaigns_and_other_platforms_stay_serial(forked, monkeypatch):
    # The command line's small calls and a 55 ms scan stay serial; a
    # platform other than Linux never forks.
    run_monte_carlo(MonteCarloConfig(n_atoms=20, n_runs=4, workers=4))
    power_law_study(MonteCarloConfig(workers=4), [3, 4, 5, 6], 200.0)
    power_law_study(MonteCarloConfig(workers=4), range(3, 31), 2e4)
    assert forked == []
    config = MonteCarloConfig(n_atoms=260, n_runs=70, seed=5)
    monkeypatch.setattr(montecarlo, "_CAN_FORK", False)
    got = campaign_fields(run_monte_carlo(replace(config, workers=3)))
    assert forked == []
    monkeypatch.undo()
    assert got == campaign_fields(run_monte_carlo(replace(config, workers=1)))


def test_no_fork_beside_another_thread(forked, fork_small):
    # A child forked beside a running Python thread could inherit a lock
    # that thread holds, so the campaign stays in the calling process.
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        config = MonteCarloConfig(n_atoms=260, n_runs=4, seed=5, workers=2)
        got = campaign_fields(run_monte_carlo(config))
    finally:
        stop.set()
        thread.join()
    assert forked == []
    assert got == campaign_fields(run_monte_carlo(replace(config, workers=1)))


def test_shared_store_gives_the_same_bits():
    # A store reused across groups, here one left full of NaN, is zeroed
    # where the call needs it.
    config = MonteCarloConfig(n_atoms=30, n_runs=8, seed=5)
    group = (config, montecarlo.incident_wavevector(0.78, (0.0, 0.0, -1.0)),
             range(8))
    alone = montecarlo._sample_group(*group)
    store = np.full(montecarlo.store_cells(30, 8) + 7, np.nan)
    shared = montecarlo._sample_group(*group, store)
    assert shared.keys() == alone.keys() == set(FIELDS)
    assert ([shared[name].tobytes() for name in FIELDS]
            == [alone[name].tobytes() for name in FIELDS])


@pytest.mark.parametrize("work, workers, sizes", [
    ([5] * 9, 3, [3, 3, 3]),
    ([5] * 4, 3, [1, 2, 1]),
    ([5] * 2, 2, [1, 1]),
    ([1, 1, 1, 1, 4], 2, [4, 1]),
    ([10, 1, 1], 3, [1, 2]),  # no empty span
])
def test_spans_are_contiguous_and_balanced(work, workers, sizes):
    spans = montecarlo._spans(work, workers)
    assert [len(span) for span in spans] == sizes
    assert [i for span in spans for i in span] == list(range(len(work)))


def failing_groups(monkeypatch, streams, make_error):
    """Make ``_sample_group`` raise ``make_error(stream)`` on ``streams``."""
    sample = montecarlo._sample_group

    def failing(config, k_in, group, *store):
        for stream in group:
            if stream in streams:
                raise make_error(stream)
        return sample(config, k_in, group, *store)

    monkeypatch.setattr(montecarlo, "_sample_group", failing)


def test_child_failure_raises_the_serial_exception(forked, fork_small,
                                                   monkeypatch):
    # Streams 5 and 8 fail, in the second and third of three spans: the
    # parent raises stream 5's error, as the serial loop does.
    failing_groups(monkeypatch, {5, 8},
                   lambda stream: NumericalError(f"stream {stream} failed"))
    config = MonteCarloConfig(n_atoms=260, n_runs=9, seed=5)
    with pytest.raises(NumericalError) as serial:
        run_monte_carlo(replace(config, workers=1))
    assert forked == []
    with pytest.raises(NumericalError) as split:
        run_monte_carlo(replace(config, workers=3))
    assert len(forked) == 2
    assert str(split.value) == str(serial.value) == "stream 5 failed"
    for pid in forked:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_parent_failure_kills_and_reaps_children(forked, fork_small,
                                                 monkeypatch):
    # The parent's own span fails at once while the children would take a
    # minute: they are killed, not waited for, and reaped.
    parent = os.getpid()
    sample = montecarlo._sample_group

    def slow_children(config, k_in, group, *store):
        if os.getpid() != parent:
            time.sleep(60.0)
        elif 0 in group:
            raise NumericalError("parent span failed")
        return sample(config, k_in, group, *store)

    monkeypatch.setattr(montecarlo, "_sample_group", slow_children)
    start = time.perf_counter()
    with pytest.raises(NumericalError, match="parent span failed"):
        run_monte_carlo(MonteCarloConfig(n_atoms=260, n_runs=9, seed=5,
                                         workers=3))
    assert time.perf_counter() - start < 30.0
    assert len(forked) == 2
    for pid in forked:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def old_mismatch_longdouble(s):
    # reference_run's reduction in np.clongdouble: b = 1 - Re c with c
    # rounded to ~1e-19, good to ~1e-18 at N <= 30.
    s = s.astype(np.clongdouble)
    row = s.sum(axis=1)
    n_dn = s.sum().real
    inv = 1.0 / np.sqrt(n_dn - 2.0 * row.real + 1.0)
    t0 = inv.sum()
    t1 = (inv * row).sum()
    n_up = n_dn * t0 * t0 - 2.0 * t0 * t1.real + (inv @ s @ inv).real
    return 1.0 - ((n_dn * t0 - t1.real) / np.sqrt(n_dn * n_up))


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("n", [2, 3, 13, 19, 30])
def test_mismatch_agrees_with_old_reduction(geometry, n):
    # The old 1 - Re c is off by up to a few ulp of 1; the new b must sit
    # within that error of it, measured per run against the old
    # reduction in long double, and within 2**-60 of the latter.
    config = MonteCarloConfig(n_atoms=n, n_runs=12, seed=5,
                              **GEOMETRIES[geometry])
    run = sample_runs(config)
    b, c, s12, s12_sq = (run[name] for name in FIELDS)
    old_b, old_c, old_s12, old_s12_sq, _ = reference_runs(config)
    keys = [np.array([config.seed, run], dtype=np.uint64)
            for run in range(config.n_runs)]
    long_b = np.array([old_mismatch_longdouble(reference_matrix(config, key)[2])
                       for key in keys])
    old_error = np.abs(old_b - long_b).astype(float)
    assert np.all(np.abs(b - long_b) <= 2.0**-60)
    assert np.all(np.abs(b - old_b) <= old_error + 2.0**-60)
    assert np.max(old_error) <= 8 * 2.0**-53
    assert np.array_equal(c.real, 1.0 - b)
    assert np.max(np.abs(c.imag - old_c.imag)) <= 1e-15
    assert np.max(np.abs(s12 - old_s12)) <= 1e-16
    assert np.max(np.abs(s12_sq / old_s12_sq - 1.0)) <= 1e-13


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("n", [2, 13, 260])
def test_pairs_match_direct_phase(geometry, n):
    config = MonteCarloConfig(n_atoms=n, n_runs=2, seed=5,
                              **GEOMETRIES[geometry])
    key = np.array([config.seed, 0], dtype=np.uint64)
    pos, k_in, direct = reference_matrix(config, key, direct_phase=True)
    matrix = overlap_matrix(AtomCloud(positions=pos, k_in=k_in),
                            config.polarization)
    iu, ju = np.triu_indices(n, k=1)
    pairs = matrix.s[iu, ju]
    assert np.max(np.abs(pairs - direct[iu, ju])) <= 1e-13


@pytest.mark.parametrize("n, runs, limit", [
    (2000, 2, 12 * (2000 * 1999 // 2)),  # 12 B per pair
    (260, 100, 1.5e6),
])
def test_traced_peak_memory(n, runs, limit):
    # numpy reports its buffers to tracemalloc.  A run keeps 8 B per pair
    # plus one tile of pairs; the dense (R, N, N) stack took 145 B per
    # pair at N = 2000 and 4.96 MB over 100 runs at N = 260.
    config = MonteCarloConfig(n_atoms=n, n_runs=runs, seed=9)
    run_monte_carlo(replace(config, n_runs=2))
    tracemalloc.start()
    try:
        run_monte_carlo(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit


@pytest.fixture(scope="module")
def reference_scan():
    # N = 3 at budget 2e4 holds runs 402, 1571, 2165 and 2219 of seed 0
    # (and 592 since the rank-1 phase), where libm's t0**2 and t0*t0
    # round apart and moved the old b.
    point = MonteCarloConfig(seed=0, n_atoms=3, n_runs=2222)
    return point, reference_runs(point, first_stream=3 << 32)


def test_pow_sensitive_runs_are_covered(reference_scan):
    # Python floats, as the per-run path squared them; numpy's ``**2``
    # on an array is x*x.
    t0 = reference_scan[1][4].tolist()
    for run in (402, 1571, 2165, 2219):
        assert t0[run] ** 2 != t0[run] * t0[run]


def fit_power_law(n_grid, runs_b):
    # power_law_study's fit, from each grid point's per-run mismatches.
    b_mean = np.array([b.mean() for b in runs_b])
    b_sem = np.array([float(np.std(b, ddof=1) / np.sqrt(b.size))
                      for b in runs_b])
    n_arr = np.array(n_grid, dtype=float)
    design = n_arr**-3
    weight = 1.0 / b_sem**2
    gram = float(np.sum(weight * design**2))
    return dict(
        n_atoms=np.array(n_grid), b_mean=b_mean, b_sem=b_sem,
        runs=np.array([b.size for b in runs_b], dtype=int),
        c3=float(np.sum(weight * b_mean * design) / gram),
        c3_err=float(np.sqrt(1.0 / gram)),
        free_slope=float(np.polyfit(np.log(n_arr), np.log(b_mean), 1,
                                    w=b_mean / b_sem)[0]),
    )


@pytest.mark.parametrize("campaign, workers",
                         [(1, 1), (1 << 16, 2), (10**6, 4)])
def test_power_law_bit_identical_to_per_run_path(reference_scan, campaign,
                                                 workers):
    # The scan's fit from its grid points' runs evaluated in campaigns of
    # ``campaign`` runs (alone, or all at once), and the N = 3 runs
    # against the old per-run path within its error.
    config = MonteCarloConfig(seed=0, workers=workers)
    runs_b = [
        runs_in_campaigns(
            replace(config, n_atoms=n, n_runs=max(2, round(2e4 / n**2))),
            n << 32, campaign)["b"]
        for n in (3, 4)
    ]
    study = power_law_study(config, n_grid=[3, 4], runs_budget=2e4)
    for name, value in fit_power_law([3, 4], runs_b).items():
        assert np.asarray(getattr(study, name)).tobytes() == \
            np.asarray(value).tobytes(), name
    assert np.max(np.abs(runs_b[0] - reference_scan[1][0])) <= 8 * 2.0**-53
