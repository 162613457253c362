"""Monte Carlo sampling of collective overlaps over random clouds.

Draws Gaussian atom clouds, reduces each to its collective branch
overlap and pair statistics, and aggregates means with standard errors.
Each run owns a counter-based generator keyed by (master seed, run
index), and runs are evaluated together in pair tiles whose arithmetic
is per run, so results are bit-reproducible for a given seed whatever
the campaign a run belongs to.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, _integer
from .overlap import (
    Polarization,
    _cloud_widths,
    collective_pairs,
    group_clouds,
    incident_wavevector,
)

_WORKERS_ENV = "RYDCAT_WORKERS"


@dataclass(frozen=True)
class MonteCarloConfig:
    """Cloud geometry and sampling plan.

    ``isotropic`` replaces the three widths by their geometric mean,
    keeping the scaled cloud size fixed.  ``workers`` does nothing: it
    is validated (an integer >= 1, or None to defer to the RYDCAT_WORKERS
    environment variable, read by ``resolve_workers``), but runs are
    evaluated in one thread whatever its value, since on two cores a
    thread pool over the stacked runs gained nothing.
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
        _integer("n_runs", self.n_runs, minimum=2)
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
        mean_sigma = float(np.cbrt(np.prod(np.asarray(self.sigmas))))
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


def _sample_group(config: MonteCarloConfig, k_in: np.ndarray, streams: range):
    """Per-run b, c, s12 and s12_sq of the runs keyed by ``streams``."""
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    positions = np.empty((len(streams), config.n_atoms, 3))
    for cloud, stream in zip(positions, streams):
        bitgen.state = _stream_state(config.seed, stream)
        gen.standard_normal(out=cloud)
    positions *= config.effective_sigmas
    c, b, s12, s12_sq, _ = collective_pairs(positions, k_in, config.polarization.jones)
    return b, c, s12, s12_sq


def _sample_runs(config: MonteCarloConfig, first_stream: int = 0):
    """Per-run b, c, s12 and s12_sq of ``config.n_runs`` clouds.

    Run i draws its cloud from the Philox stream keyed by (seed,
    first_stream + i).  The runs are reduced in groups of
    ``overlap.group_clouds`` clouds.  A run's numbers depend on its key
    alone, never on the clouds it shares a tile or a group with.
    """
    per_group = group_clouds(config.n_atoms)
    streams = range(first_stream, first_stream + config.n_runs)
    k_in = incident_wavevector(config.wavelength, config.direction)
    parts = [
        _sample_group(config, k_in, streams[i:i + per_group])
        for i in range(0, len(streams), per_group)
    ]
    return tuple(np.concatenate(column) for column in zip(*parts))


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
    b, c, s12, s12_sq = _sample_runs(config)
    return MonteCarloResult(config=config, b=b, c_up_dn=c, s12=s12, s12_sq=s12_sq)


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
    spread of the mismatch shrinks with N.  Streams are keyed by
    (seed, N, run), so different grid points never share draws; each N
    may appear once.
    """
    if n_grid is None:
        n_grid = range(3, 31)
    n_values = [_integer("each atom number", n, minimum=2) for n in n_grid]
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
    b_mean = np.empty(len(n_values))
    b_sem = np.empty(len(n_values))
    runs = np.empty(len(n_values), dtype=int)
    for i, n in enumerate(n_values):
        n_runs = max(2, round(runs_budget / n**2))
        point = replace(config, n_atoms=n, n_runs=n_runs)
        b = _sample_runs(point, first_stream=n << 32)[0]
        b_mean[i] = b.mean()
        b_sem[i] = _sem(b)
        runs[i] = n_runs
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
