"""Monte Carlo sampling of collective overlaps over random clouds.

Draws Gaussian atom clouds, reduces each to its collective branch
overlap and pair statistics, and aggregates means with standard errors.
A campaign's runs form groups of ``overlap.group_clouds(N)``
consecutive runs counted from its first stream, and each group draws
its clouds in one call from a counter-based Philox generator keyed by
(master seed, stream of its first run).  The runs of a group are then
evaluated together in pair tiles whose arithmetic is per run, so
results are bit-reproducible for a given seed whatever the number of
worker processes that share the groups, and a campaign of n runs is
the first n runs of a longer one.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import sys
import threading
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, ParameterError, _integer
from .overlap import (
    Polarization,
    _cloud_widths,
    _mean_width,
    collective_pairs,
    group_clouds,
    incident_wavevector,
    store_cells,
)

_WORKERS_ENV = "RYDCAT_WORKERS"
# The estimated work of a run, in atom pairs: its pairs, plus its share
# of its group's draw and reductions, which take about as long as 24
# pairs (about 1.1 us at 46 ns a pair; fitted to timed full groups of
# N = 3 to 260 on a 2-vCPU KVM host).
_RUN_COST = 24
# Least estimated work that is split over processes, about 0.1 s of
# runs.  A guard set by the benchmark rather than by the crossover: in
# a fresh process two workers beat one from about 2**19 (N = 260, 16
# runs: 0.84x) and broke even for a scan over N = 3..30 (0.95x), on a
# 2-vCPU KVM host, while each run still drew its own cloud.  But a
# process that alternated forked and serial campaigns there ran its
# serial ones slower, for a cause not found, so the benchmark's scan,
# about 0.4e6 of work, stays serial.
_FORK_MIN_WORK = 2**21
# A forked child shares the parent's memory and its cached tile indices,
# and imports nothing: a fork, exit and reap take 1-4 ms, where a fresh
# interpreter would spend about 0.2 s importing numpy.  Windows has no
# fork, and macOS's system libraries are not safe to use in a forked
# child, so elsewhere every group runs in the calling process.
_CAN_FORK = sys.platform.startswith("linux")


@dataclass(frozen=True)
class MonteCarloConfig:
    """Cloud geometry and sampling plan.

    ``isotropic`` replaces the three widths by their geometric mean,
    keeping the scaled cloud size fixed.

    ``workers`` is the number of processes that share a campaign's
    groups of runs: an integer >= 1, or None to read the RYDCAT_WORKERS
    environment variable (``resolve_workers``; 1 when unset).  On Linux
    a campaign of more than about 0.1 s of work is cut into that many
    contiguous spans of groups; the calling process evaluates the first
    and a forked child each other.  Elsewhere, for smaller campaigns,
    and while another Python thread runs, every group runs in the
    calling process.  A run's bits depend on its group's stream key and
    its place in the group alone, so results are identical for any
    worker count.  Each process holds its own store of pair rectangles
    (about 4 N^2 bytes per cloud of its largest group), so memory grows
    with the worker count.
    """

    n_atoms: int = 260
    sigmas: tuple[float, float, float] = (3.3, 4.5, 1.7)
    wavelength: float = 0.78
    polarization: Polarization | None = None
    direction: tuple[float, float, float] = (0.0, 0.0, -1.0)
    n_runs: int = 100
    seed: int = 0
    isotropic: bool = False
    workers: int | None = None

    def __post_init__(self):
        _integer("n_atoms", self.n_atoms, minimum=2)
        if not _integer("n_runs", self.n_runs, minimum=2) < 2**32:
            raise ParameterError(
                f"run counts must fit in 32 bits for stream keying, got {self.n_runs!r}"
            )
        if not 0 <= _integer("seed", self.seed) < 2**64:
            raise ParameterError("seed must fit in an unsigned 64-bit integer")
        if self.workers is not None:
            _integer("workers", self.workers, minimum=1)
        _cloud_widths(self.sigmas)
        incident_wavevector(self.wavelength, self.direction)
        if self.polarization is None:
            object.__setattr__(self, "polarization", Polarization.circular())

    @property
    def effective_sigmas(self) -> tuple[float, float, float]:
        if not self.isotropic:
            return self.sigmas
        mean_sigma = _mean_width(self.sigmas)
        return (mean_sigma, mean_sigma, mean_sigma)

    def resolve_workers(self) -> int:
        if self.workers is not None:
            return self.workers
        try:
            workers = int(os.environ.get(_WORKERS_ENV, "1"))
        except ValueError:
            workers = 1
        return max(1, workers)


def _stream_state(seed: int, stream: int) -> dict:
    # Philox at counter 0 keyed by (seed, stream): the state a fresh
    # Philox(key=[seed, stream]) starts in, without its entropy draw.
    return {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, stream)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _sample_group(
    config: MonteCarloConfig,
    k_in: np.ndarray,
    streams: range,
    store: np.ndarray | None = None,
) -> dict:
    """Record of per-run b, c_up_dn, s12 and s12_sq of the runs of ``streams``.

    The group's clouds are drawn in run order, in one call, from the
    Philox stream keyed by (seed, ``streams[0]``), so a run's cloud is
    fixed by that key and its place in the group.
    """
    try:
        bitgen = np.random.Philox(0)
        bitgen.state = _stream_state(config.seed, streams[0])
        positions = np.random.Generator(bitgen).standard_normal(
            (len(streams), config.n_atoms, 3))
        positions *= config.effective_sigmas
        record = collective_pairs(positions, k_in, config.polarization.jones, store)
    except MemoryError as exc:
        raise _out_of_memory(config, streams, exc) from None
    del record["per_atom"]  # not a result, so no worker pickles it
    return record


def _out_of_memory(config: MonteCarloConfig, streams: range, exc) -> MemoryError:
    return MemoryError(
        f"runs of {config.n_atoms} atoms ({len(streams)} per group): {exc}"
    )


def _spans(work: list[int], workers: int) -> list[range]:
    """Contiguous spans of the groups, at most ``workers``, of even work.

    Each group goes to the span its midpoint of the cumulative work
    falls in, so no group is split and every span is non-empty.
    """
    total = sum(work)
    owners: list[list[int]] = [[] for _ in range(workers)]
    done = 0
    for i, w in enumerate(work):
        owners[min(workers - 1, (2 * done + w) * workers // (2 * total))].append(i)
        done += w
    return [range(own[0], own[-1] + 1) for own in owners if own]


def _evaluate(groups: list[tuple], span: range) -> list[dict]:
    """``_sample_group`` of each group of ``span``, in one reused store.

    The store of pair rectangles is sized to the span's largest group.
    """
    config, _, streams = max(
        (groups[i] for i in span),
        key=lambda group: store_cells(group[0].n_atoms, len(group[2])),
    )
    try:
        store = np.empty(store_cells(config.n_atoms, len(streams)))
    except MemoryError as exc:
        raise _out_of_memory(config, streams, exc) from None
    return [_sample_group(*groups[i], store) for i in span]


def _forked(groups: list[tuple], spans: list[range]) -> list[dict]:
    """Evaluate the first span here and each other span in a forked child.

    A child pickles its span's results, or the exception of its first
    failing group, to a pipe and leaves with ``os._exit``.  The parent
    raises the exception of the earliest failing group, as a serial run
    would, and kills and reaps every child whatever happens.
    """
    import signal  # only here, so that a serial campaign loads nothing new

    children: list[tuple[int, int]] = []
    try:
        for span in spans[1:]:
            children.append(_fork_span(groups, span))
        results = _evaluate(groups, spans[0])
        for pid, fd in children:
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            try:
                ok, value = pickle.loads(data)
            except Exception:
                raise RuntimeError(
                    f"Monte Carlo worker {pid} sent no readable result"
                ) from None
            if not ok:
                raise value
            results.extend(value)
        return results
    finally:
        # A child that has finished is a zombie, which the signal leaves
        # as it is; one still running is stopped.  Either way it is reaped.
        for pid, fd in children:
            os.close(fd)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _fork_span(groups: list[tuple], span: range) -> tuple[int, int]:
    """Fork a child that evaluates ``span``; returns its pid and its pipe."""
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that forking a process with threads may
            # deadlock the child.  ``_sample_runs`` forks only when Python
            # runs no other thread; the threads it cannot see are native
            # pools such as OpenBLAS's, which OpenBLAS resets in the child.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:
        os.close(read)
        try:
            data = pickle.dumps((True, _evaluate(groups, span)), -1)
        except BaseException as exc:
            # Sent to the parent, which raises it.
            try:
                data = pickle.dumps((False, exc), -1)
            except Exception:
                data = pickle.dumps((False, RuntimeError(
                    f"{type(exc).__name__} in a Monte Carlo worker: {exc}"
                )), -1)
        with open(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _sample_runs(points: list[tuple[MonteCarloConfig, int]]) -> list[dict]:
    """Record of per-run b, c_up_dn, s12 and s12_sq of each point.

    A point ``(config, first_stream)`` holds ``config.n_runs`` runs with
    streams first_stream, first_stream + 1, ..., cut into groups of
    ``overlap.group_clouds`` runs from the first; each group draws from
    the Philox stream keyed by (seed, its first run's stream).  The groups
    of every point form one list, shared over the first point's workers,
    so a scan forks once.  A run's numbers depend on its group's key and
    its place in the group alone, never on its tile, the campaign's
    length or the process that runs it.
    """
    groups, ends = [], []
    for config, first_stream in points:
        per_group = group_clouds(config.n_atoms)
        streams = range(first_stream, first_stream + config.n_runs)
        k_in = incident_wavevector(config.wavelength, config.direction)
        groups += [(config, k_in, streams[i:i + per_group])
                   for i in range(0, len(streams), per_group)]
        ends.append(len(groups))
    work = [len(streams) * (config.n_atoms * (config.n_atoms - 1) // 2 + _RUN_COST)
            for config, _, streams in groups]
    workers = min(points[0][0].resolve_workers(), len(groups))
    # A child forked beside another Python thread may inherit a lock that
    # thread holds, and wait on it for ever.
    if (workers > 1 and _CAN_FORK and sum(work) >= _FORK_MIN_WORK
            and threading.active_count() == 1):
        parts = _forked(groups, _spans(work, workers))
    else:
        parts = _evaluate(groups, range(len(groups)))
    return [{name: np.concatenate([part[name] for part in parts[start:end]])
             for name in parts[0]} for start, end in zip([0, *ends], ends)]


def _sem(values: np.ndarray) -> float:
    return float(np.std(values, ddof=1) / np.sqrt(values.size))


@dataclass(frozen=True, eq=False)
class MonteCarloResult:
    """Per-run observables of one sampling campaign."""

    config: MonteCarloConfig
    b: np.ndarray
    c_up_dn: np.ndarray
    s12: np.ndarray
    s12_sq: np.ndarray

    @property
    def b_mean(self) -> float:
        return float(self.b.mean())

    @property
    def b_sem(self) -> float:
        return _sem(self.b)

    @property
    def c_mean(self) -> complex:
        return complex(self.c_up_dn.mean())

    @property
    def c_sem_im(self) -> float:
        return _sem(self.c_up_dn.imag)

    @property
    def s12_mean(self) -> complex:
        return complex(self.s12.mean())

    @property
    def s12_sem_re(self) -> float:
        return _sem(self.s12.real)

    @property
    def s12_sem_im(self) -> float:
        return _sem(self.s12.imag)

    @property
    def rms(self) -> float:
        return float(np.sqrt(self.s12_sq.mean()))

    @property
    def rms_sem(self) -> float:
        # Delta method through the square root.
        if self.rms == 0.0:
            raise NumericalError("rms pair overlap underflows to 0: no standard error")
        return _sem(self.s12_sq) / (2.0 * self.rms)

    def summary(self) -> dict[str, float]:
        return {
            "b_mean": self.b_mean,
            "b_sem": self.b_sem,
            "c_mean_re": self.c_mean.real,
            "c_mean_im": self.c_mean.imag,
            "c_sem_im": self.c_sem_im,
            "s12_mean_re": self.s12_mean.real,
            "s12_mean_im": self.s12_mean.imag,
            "s12_sem_re": self.s12_sem_re,
            "s12_sem_im": self.s12_sem_im,
            "rms": self.rms,
            "rms_sem": self.rms_sem,
        }


def run_monte_carlo(config: MonteCarloConfig) -> MonteCarloResult:
    """Sample the configured ensemble and collect per-run observables."""
    (record,) = _sample_runs([(config, 0)])
    return MonteCarloResult(config=config, **record)


@dataclass(frozen=True, eq=False)
class PowerLawStudy:
    """Mean mismatch vs atom number with an inverse-cube fit.

    The fit holds the exponent at -3 and estimates the coefficient by
    inverse-variance weighting, which leans on the large-atom-number
    points where the pure power law is accurate.  ``free_slope`` refits
    with the exponent free as a shape diagnostic.
    """

    n_atoms: np.ndarray
    b_mean: np.ndarray
    b_sem: np.ndarray
    runs: np.ndarray
    c3: float
    c3_err: float
    free_slope: float

    def extrapolate(self, n_atoms: float) -> float:
        return self.c3 / float(n_atoms) ** 3


def power_law_study(
    config: MonteCarloConfig,
    n_grid=None,
    runs_budget: float = 1e5,
) -> PowerLawStudy:
    """Scan the mean mismatch over atom number and fit the decay.

    The run count per point is ``runs_budget / N**2``, which roughly
    equalizes the relative error across the grid since the per-run
    spread of the mismatch shrinks with N.  The runs of atom number N
    have streams N * 2**32 + run, and each group of them draws from the
    stream of its first run, so different grid points never share draws;
    each N may appear once, and must be at least 3: two atoms never
    mismatch.
    """
    if n_grid is None:
        n_grid = range(3, 31)
    n_values = [_integer("each atom number", n, minimum=3) for n in n_grid]
    if len(n_values) < 2:
        raise ParameterError("n_grid must contain at least two atom numbers")
    for i, n in enumerate(n_values):
        # A repeated N would rerun the same streams and count them twice.
        if n in n_values[:i]:
            raise ParameterError(f"n_grid repeats the atom number {n}")
    if any(n >= 2**32 for n in n_values):
        raise ParameterError("atom numbers must fit in 32 bits for stream keying")
    if not 0.0 < runs_budget < np.inf:
        raise ParameterError(f"runs_budget must be finite and > 0, got {runs_budget!r}")
    runs = np.array([max(2, round(runs_budget / n**2)) for n in n_values])
    b = [point["b"] for point in _sample_runs([
        (replace(config, n_atoms=n, n_runs=int(n_runs)), n << 32)
        for n, n_runs in zip(n_values, runs)
    ])]
    b_mean = np.array([point.mean() for point in b])
    b_sem = np.array([_sem(point) for point in b])
    n_arr = np.array(n_values, dtype=float)
    design = n_arr**-3
    weight = 1.0 / b_sem**2
    gram = float(np.sum(weight * design**2))
    c3 = float(np.sum(weight * b_mean * design) / gram)
    c3_err = float(np.sqrt(1.0 / gram))
    free_slope = float(
        np.polyfit(np.log(n_arr), np.log(b_mean), 1, w=b_mean / b_sem)[0]
    )
    return PowerLawStudy(
        n_atoms=np.array(n_values),
        b_mean=b_mean,
        b_sem=b_sem,
        runs=runs,
        c3=c3,
        c3_err=c3_err,
        free_slope=free_slope,
    )
