"""Span tracer for the benchmark's traced runs.

``Tracer.install`` wraps the public entry points of each rydcat layer
(helpers called only from inside their own module stay unwrapped, and
their time is their caller's self time) at every name a rydcat module
looks them up by (``rydcat.montecarlo.
overlap_matrix``, ``rydcat.overlap.j0_stable``, ``rydcat.cli.
run_monte_carlo``, ...), so nothing under ``src/`` is edited.  Each call
records a span ``[layer, start, end, parent]`` in memory; a layer's self
time is its spans' durations minus the time of their direct children.
``Tracer.uninstall`` puts the original objects back, so untraced ops in
the same process run the program exactly as shipped.

Run as a script, it traces one command-line call:
``python3 perfbench/tracer.py <rydcat arguments>`` runs ``rydcat.cli``
under the tracer and writes the layer summary as the last line of
standard error, prefixed by ``TRACE_PREFIX``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

TRACE_PREFIX = "PERFBENCH_TRACE "


def _elements(args, kwargs, result):
    return int(np.size(args[0]))


def _pairs(args, kwargs, result):
    n = args[0].n_atoms
    return n * (n - 1) // 2


def _runs(args, kwargs, result):
    # run_monte_carlo returns per-run arrays, power_law_study a per-point
    # run count; counting from results survives a rewrite of the loop.
    runs = getattr(result, "runs", None)
    return int(np.sum(runs)) if runs is not None else int(result.b.size)


def _split_dim(args, kwargs, result):
    return int(np.shape(args[0])[0])


def _lemma_dim(args, kwargs, result):
    from rydcat.fock import default_cutoff

    cutoff = args[3] if len(args) > 3 else kwargs.get("cutoff")
    if cutoff is None:
        cutoff = default_cutoff(args[1], args[2])
    return cutoff + 1


@dataclass(frozen=True)
class Layer:
    """One traced layer: the functions it owns and an optional work count."""

    name: str
    module: str
    attrs: tuple[str, ...]
    counter: str | None = None
    work: Callable | None = None


LAYERS = (
    Layer("bessel.j0", "rydcat.bessel", ("j0_stable",), "bessel.elements", _elements),
    Layer("bessel.j2", "rydcat.bessel", ("j2_stable",), "bessel.elements", _elements),
    Layer("overlap.sample", "rydcat.overlap", ("AtomCloud.sample",)),
    Layer(
        "overlap.matrix", "rydcat.overlap", ("overlap_matrix",),
        "overlap.matrix.pairs", _pairs,
    ),
    Layer("overlap.collective", "rydcat.overlap", ("collective_from_matrix",)),
    Layer("overlap.pair_stats", "rydcat.overlap", ("pair_statistics",)),
    Layer(
        "montecarlo", "rydcat.montecarlo", ("run_monte_carlo", "power_law_study"),
        "montecarlo.runs", _runs,
    ),
    Layer("fock.split", "rydcat.fock", ("split_two_mode",), "fock.dim", _split_dim),
    Layer(
        "fock.lemma", "rydcat.fock", ("fock_overlap_lemma_check",),
        "fock.dim", _lemma_dim,
    ),
    Layer(
        "catstate", "rydcat.catstate",
        ("loss_budget", "max_photon_number", "optimal_lambda", "generate_cat",
         "apply_beam_splitter"),
    ),
    Layer("catstate.sweep", "rydcat.catstate", ("sweep_loss_vs_coupling",)),
    Layer("cavity", "rydcat.cavity", ("output_amplitudes",)),
    Layer(
        "steady", "rydcat.steady",
        ("solve_steady_state", "steady_residuals", "spontaneous_amplitude"),
    ),
    Layer("roundtrip", "rydcat.roundtrip", ("intracavity_and_outputs", "convergence_study")),
    Layer(
        "thermal", "rydcat.thermal",
        ("thermal_average_s12", "zeta_from_sigmas", "predicted_power_law_coefficient",
         "second_order_collective_overlap", "second_order_large_n"),
    ),
)

COUNTERS = ("bessel.elements", "overlap.matrix.pairs", "montecarlo.runs", "fock.dim")

ROOT_SPAN = "op"


def _rydcat_modules():
    # rydcat.cli is not imported by the package; load it so its names
    # are patched too.
    importlib.import_module("rydcat.cli")
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "rydcat" or name.startswith("rydcat."))
    ]


class Tracer:
    """In-memory span recorder over the layers in ``LAYERS``.

    The span stack is kept per thread; the work counters are not locked,
    so traced ops run at one worker.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.work = dict.fromkeys(COUNTERS, 0)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        record = [name, perf_counter(), 0.0, stack[-1] if stack else None]
        stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def root(self):
        """Record one benchmark op as the root span."""
        record = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(record)

    def _wrap(self, layer: Layer, func):
        def traced(*args, **kwargs):
            record = self._open(layer.name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(record)
            if layer.work is not None:
                self.work[layer.counter] += layer.work(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _rydcat_modules()
        for layer in LAYERS:
            home = importlib.import_module(layer.module)
            for attr in layer.attrs:
                if "." in attr:
                    # A classmethod: patch the class once, every module
                    # shares it.
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    wrapped = classmethod(self._wrap(layer, original.__func__))
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, wrapped)
                    continue
                original = getattr(home, attr)
                wrapped = self._wrap(layer, original)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> dict:
        """Per-layer calls and self seconds of the spans so far; clears them.

        Also returns the root spans' wall time and the work counters.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        summary = {
            layer.name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            for layer in LAYERS
        }
        summary[ROOT_SPAN] = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = summary[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            # Inclusive time counts only the outermost span of a layer.
            if parent is None or self.spans[parent][0] != name:
                entry["total_s"] += end - start
        summary["work"] = dict(self.work)
        self.spans.clear()
        self.work = dict.fromkeys(COUNTERS, 0)
        return summary


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from rydcat import cli

    try:
        with tracer.root():
            code = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.take()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
