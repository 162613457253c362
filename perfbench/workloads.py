"""The four benchmark workloads: inputs, one op, and its correctness check.

Each workload builds its inputs from the seed alone, runs one op at a
given worker count, and checks the op's result.  The rydcat functions
are called through their module (``montecarlo.run_monte_carlo``, not a
name bound at import time) so that a traced run reaches the wrappers
``tracer.Tracer`` installs on those modules.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import rydcat
from rydcat import catstate, cavity, fock, montecarlo, overlap, roundtrip, steady, thermal

import tracer

HERE = Path(__file__).resolve().parent
CONFIG_FILE = HERE / "cli_mc.cfg"

if Path(rydcat.__file__).resolve().parent != HERE.parent / "src" / "rydcat":
    raise ImportError(f"rydcat imported from {rydcat.__file__}, not from this checkout")


def environment() -> dict:
    """Versions of the code under test and the libraries it runs on."""
    return {
        "rydcat": rydcat.__version__,
        "numpy": np.__version__,
        "scipy": sys.modules["scipy"].__version__ if "scipy" in sys.modules else None,
    }


# Statistical checks accept a value within this many combined standard
# errors of its reference.  Comparing two commits takes ten or more
# seeds per workload on each; over twenty seeds a 3-SE band would refuse
# a correct program about 15 % of the time on mc-ref and 40 % on
# scan-small, a 5-SE band less than 0.5 %.
BAND = 5.0


def _z(value, reference, own_se, ref_se) -> float:
    return (value - reference) / math.hypot(own_se, ref_se)


def _same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _cloud(p: dict, seed: int, **fields) -> "montecarlo.MonteCarloConfig":
    return montecarlo.MonteCarloConfig(
        sigmas=tuple(p["sigmas_um"]), wavelength=p["wavelength_um"],
        polarization=overlap.Polarization.circular(), seed=seed, **fields,
    )


class Workload:
    """Defaults: ops run inside the workload process, without a worker pool."""

    in_process = True
    parallel = False

    def prepare(self, inputs):
        """Reference results the checks need, computed after set-up."""
        return None

    def scores(self, result) -> dict:
        """Distances from statistical references, in combined standard errors."""
        return {}

    def _monte_carlo_problems(self, result, first, fields) -> list[str]:
        problems = [
            f"{key} is {z:+.2f} combined SE from its reference"
            for key, z in self.scores(result).items() if abs(z) > BAND
        ]
        if first is not None and not all(
            _same_bits(getattr(result, f), getattr(first, f)) for f in fields
        ):
            problems.append("results differ from the first op")
        return problems


class McRef(Workload):
    """The paper's reference cloud: one ``run_monte_carlo`` campaign."""

    name = "mc-ref"
    parallel = True
    # Acceptance references (value, uncertainty) for N = 260, 100 runs.
    B_MEAN = (5.3e-12, 0.1e-12)
    S12_MEAN = (3.8e-4, 0.1e-4)
    RMS = (1.98e-2, 0.01e-2)

    def params(self, tiny: bool) -> dict:
        return {"n_atoms": 260, "n_runs": 20 if tiny else 100,
                "sigmas_um": [3.3, 4.5, 1.7], "wavelength_um": 0.78,
                "polarization": "circular"}

    def build(self, seed: int, tiny: bool):
        p = self.params(tiny)
        return _cloud(p, seed, n_atoms=p["n_atoms"], n_runs=p["n_runs"])

    def op(self, inputs, workers: int):
        return montecarlo.run_monte_carlo(replace(inputs, workers=workers))

    def scores(self, result) -> dict:
        return {
            "b_mean": _z(result.b_mean, self.B_MEAN[0], result.b_sem, self.B_MEAN[1]),
            "s12_mean": _z(result.s12_mean.real, self.S12_MEAN[0],
                           result.s12_sem_re, self.S12_MEAN[1]),
            "rms": _z(result.rms, self.RMS[0], result.rms_sem, self.RMS[1]),
        }

    def check(self, inputs, refs, result, first) -> list[str]:
        return self._monte_carlo_problems(result, first, ("b", "c_up_dn", "s12", "s12_sq"))


class ScanSmall(Workload):
    """Figure 4's power-law scan at a fifth of its default run budget."""

    name = "scan-small"
    parallel = True
    # c3 at this budget and grid: mean and its standard error over seeds
    # 1000-1099.  The budget-1e5 acceptance value 1.03e-4 does not apply:
    # at 2e4 the inverse-variance fit, weighting each point by its own
    # estimated SEM, sits 4.6 % lower on average (see README.md).
    C3 = (9.826e-05, 0.022e-05)

    def params(self, tiny: bool) -> dict:
        return {"n_grid": [3, 30], "runs_budget": 2e4, "sigmas_um": [3.3, 4.5, 1.7],
                "wavelength_um": 0.78, "polarization": "circular"}

    def build(self, seed: int, tiny: bool) -> dict:
        p = self.params(tiny)
        lo, hi = p["n_grid"]
        return {"config": _cloud(p, seed), "n_grid": range(lo, hi + 1),
                "runs_budget": p["runs_budget"]}

    def op(self, inputs, workers: int):
        return montecarlo.power_law_study(
            replace(inputs["config"], workers=workers), inputs["n_grid"],
            inputs["runs_budget"],
        )

    def scores(self, result) -> dict:
        return {"c3": _z(result.c3, self.C3[0], result.c3_err, self.C3[1])}

    def check(self, inputs, refs, result, first) -> list[str]:
        fields = ("n_atoms", "b_mean", "b_sem", "runs", "c3", "c3_err", "free_slope")
        return self._monte_carlo_problems(result, first, fields)


def _unit_disk(rng) -> complex:
    return math.sqrt(rng.uniform(0.0, 1.0)) * cmath.exp(2j * math.pi * rng.uniform(0.0, 1.0))


class ClosedForm(Workload):
    """A design study over every module outside the Monte Carlo."""

    name = "closed-form"
    HEADLINE = (0.9825, 21.0, 21.0)

    def params(self, tiny: bool) -> dict:
        scale = 10 if tiny else 1
        return {
            "cavities": 1000 // scale, "finesse": 1e6,
            "sweep_points": 4000 // scale, "convergence_points": 200 // scale,
            "beam_splitter_alpha": [3.0, 0.5], "beam_splitter_transmission": 0.3,
            "lemma_calls": 100 // scale, "lemma_cutoff": 22,
            "thermal_zetas": 2000 // scale,
        }

    def build(self, seed: int, tiny: bool) -> dict:
        p = self.params(tiny)
        rng = np.random.default_rng(seed)
        cavities = []
        for _ in range(p["cavities"]):
            cav = cavity.CavityParams.from_coupling_strength(
                rng.uniform(0.5, 1.0), rng.uniform(0.5, 50.0), rng.uniform(1.0, 100.0)
            )
            cavities.append((cav, roundtrip.RoundTripParams.from_cavity(cav, finesse=p["finesse"])))
        return {
            "cavities": cavities,
            "detuning": cavity.DetuningSet(),
            "headline": cavity.CavityParams.from_coupling_strength(*self.HEADLINE),
            "lambda_grid": np.geomspace(1.0, 1000.0, p["sweep_points"]),
            "finesse_grid": np.geomspace(1e2, 1e6, p["convergence_points"]),
            "alpha": complex(*p["beam_splitter_alpha"]),
            "transmission": p["beam_splitter_transmission"],
            "lemma": [
                (_unit_disk(rng), 1.2 * _unit_disk(rng), 1.2 * _unit_disk(rng))
                for _ in range(p["lemma_calls"])
            ],
            "lemma_cutoff": p["lemma_cutoff"],
            "zetas": rng.uniform(1.0, 60.0, p["thermal_zetas"]),
            "polarization": overlap.Polarization.circular(),
        }

    def op(self, inputs, workers: int) -> dict:
        det = inputs["detuning"]
        models = []
        budgets = []
        for cav, trip in inputs["cavities"]:
            for branch in (cavity.QubitBranch.UP, cavity.QubitBranch.DOWN):
                closed = cavity.output_amplitudes(cav, branch, 1.0)
                ss = steady.solve_steady_state(cav, det, branch, 1.0)
                semi = roundtrip.intracavity_and_outputs(trip, det, branch, 1.0)
                models.append((closed.r, closed.a, closed.m, ss.e_out, ss.e_mirror,
                               steady.spontaneous_amplitude(ss), semi.r, semi.a, semi.m))
            budget = catstate.loss_budget(cav)
            budgets.append((budget.l_gen, budget.l_cav,
                            catstate.max_photon_number(cav, math.exp(-1.0))))
        sweep = catstate.sweep_loss_vs_coupling(0.9825, 21.0, inputs["lambda_grid"])
        study = roundtrip.convergence_study(inputs["headline"], inputs["finesse_grid"])
        split = fock.beam_splitter_pair(inputs["alpha"], inputs["transmission"])
        lemma = [
            fock.fock_overlap_lemma_check(c, up, dn, cutoff=inputs["lemma_cutoff"])
            for c, up, dn in inputs["lemma"]
        ]
        pol = inputs["polarization"]
        stats = [thermal.thermal_average_s12(float(z), pol) for z in inputs["zetas"]]
        return {
            "models": np.array(models),
            "budgets": np.array(budgets),
            "headline_l_gen": catstate.loss_budget(inputs["headline"]).l_gen,
            "sweep": np.array(list(sweep.values())),
            "convergence": np.append(study.max_error, study.slope),
            "split": split,
            "lemma": np.array([(r.brute_force, r.closed_form, r.fock_matrix_deviation)
                               for r in lemma]),
            "thermal": np.array([(s.mean, s.mean_sq) for s in stats]),
        }

    def check(self, inputs, refs, result, first) -> list[str]:
        problems = []
        m = result["models"]
        closed_r, closed_a, closed_m, ss_r, ss_m, ss_a, semi_r, semi_a, semi_m = m.T
        disagreement = max(
            np.max(np.abs(ss_r - closed_r)), np.max(np.abs(ss_m - closed_m)),
            np.max(np.abs(ss_a.real - np.abs(closed_a))),
            np.max(np.abs(semi_r - closed_r)), np.max(np.abs(semi_m - closed_m)),
            np.max(np.abs(np.abs(semi_a) - np.abs(closed_a))),
        )
        if not disagreement <= 1e-5:
            problems.append(f"three cavity models disagree by {disagreement:.3g}")
        if not abs(result["headline_l_gen"] - 0.0175) <= 1e-12:
            problems.append(f"headline l_gen is {result['headline_l_gen']!r}")
        lemma = result["lemma"]
        lemma_err = np.max(np.abs(lemma[:, 0] - lemma[:, 1]))
        if not lemma_err <= 1e-8:
            problems.append(f"Fock lemma misses its closed form by {lemma_err:.3g}")
        # A coherent state split by a beam splitter factorizes into two
        # coherent states; the brute-force rotation must reproduce that.
        split = result["split"]
        cutoff = split.shape[0] - 1
        alpha, t = inputs["alpha"], inputs["transmission"]
        product = np.outer(fock.coherent_state(math.sqrt(t) * alpha, cutoff),
                           fock.coherent_state(math.sqrt(1.0 - t) * alpha, cutoff))
        split_err = np.max(np.abs(split - product))
        if not split_err <= 1e-9:
            problems.append(f"beam splitter misses the product state by {split_err:.3g}")
        if first is not None and not all(
            _same_bits(result[key], first[key]) for key in result
        ):
            problems.append("results differ from the first op")
        return problems


# Subcommand arguments for the cold command-line workload.  The Monte
# Carlo commands are shrunk so that start-up dominates every call.
CLI_ARGS = {
    "amplitudes": [],
    "figure2": [],
    "figure3": [],
    "figure4": ["--n-grid", "3:6", "--runs-budget", "200"],
    "headline": [],
    "xcheck": [],
    "mc": ["--n-atoms", "20", "--n-runs", "4"],
}


def _norm(value):
    """A printed or computed cell as a comparable value."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    try:
        return float(value)
    except ValueError:
        return value


def _columns(names, rows) -> list:
    return [(name, [_norm(row[i]) for row in rows]) for i, name in enumerate(names)]


def _results(mapping: dict) -> list:
    return [(key, _norm(value)) for key, value in mapping.items()]


def _parse(text: str, fmt: str) -> dict:
    """Normalized blocks of one command's output."""
    if fmt == "csv":
        lines = text.splitlines()
        names = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        if names == ["key", "value"]:
            return {"results": [(k, _norm(v)) for k, v in rows]}
        return {"columns": _columns(names, rows)}
    payload = json.loads(text)
    blocks = {}
    if "columns" in payload:
        blocks["columns"] = [
            (name, [_norm(v) for v in values])
            for name, values in payload["columns"].items()
        ]
    for key in ("results", "fit"):
        if key in payload:
            blocks[key] = _results(payload[key])
    return blocks


def _expected(command: str, seed: int, config_call: bool) -> dict:
    """The blocks each subcommand must print, computed through the API."""
    params = cavity.CavityParams.from_coupling_strength(0.9825, 21.0, 21.0)
    if command == "amplitudes":
        rows = []
        for branch in (cavity.QubitBranch.UP, cavity.QubitBranch.DOWN):
            a = cavity.output_amplitudes(params, branch, 1.0 + 0.0j)
            rows.append([branch.value, a.r.real, a.r.imag, a.a.real, a.a.imag,
                         a.m.real, a.m.imag, a.energy_residual])
        names = ["branch", "r_re", "r_im", "a_re", "a_im", "m_re", "m_im",
                 "energy_residual"]
        return {"columns": _columns(names, rows)}
    if command == "figure2":
        sweep = catstate.sweep_loss_vs_coupling(0.9825, 21.0, np.geomspace(1.0, 1000.0, 400))
        return {"columns": [(k, [_norm(v) for v in col]) for k, col in sweep.items()]}
    if command == "figure3":
        kx = np.linspace(0.0, 50.0, 501)
        rows = []
        for projection in (0.0, 0.7071067811865476, 1.0):
            values = overlap.pair_overlap_projected(kx, projection)
            rows.extend([k, projection, v] for k, v in zip(kx, values))
        return {"columns": _columns(["kx", "projection", "v"], rows)}
    if command == "figure4":
        study = montecarlo.power_law_study(
            montecarlo.MonteCarloConfig(seed=seed), [3, 4, 5, 6], 200.0
        )
        rows = list(zip(study.n_atoms, study.b_mean, study.b_sem, study.runs))
        fit = {"c3": study.c3, "c3_err": study.c3_err, "free_slope": study.free_slope}
        return {"columns": _columns(["n_atoms", "b_mean", "b_sem", "runs"], rows),
                "fit": _results(fit)}
    if command == "headline":
        budget = catstate.loss_budget(params)
        return {"results": _results({
            "lambda_opt": catstate.optimal_lambda(params),
            "l_gen": budget.l_gen,
            "l_cav": budget.l_cav,
            "alpha_out_sq_at_ratio": catstate.max_photon_number(params, math.exp(-1.0)),
            "a_mode": budget.a_mode,
            "l_gen_ratio": budget.l_gen / (1.0 - budget.l_gen),
        })}
    if command == "xcheck":
        study = roundtrip.convergence_study(params, np.geomspace(1e2, 1e6, 5))
        det = cavity.DetuningSet.resonant()
        steady_err = 0.0
        for branch in cavity.QubitBranch:
            exact = cavity.output_amplitudes(params, branch, 1.0)
            ss = steady.solve_steady_state(params, det, branch, 1.0)
            steady_err = max(steady_err, abs(ss.e_out - exact.r), abs(ss.e_mirror - exact.m),
                             abs(steady.spontaneous_amplitude(ss) - abs(exact.a)))
        rows = [[f, e, steady_err] for f, e in zip(study.finesse, study.max_error)]
        names = ["finesse", "semiclassical_error", "steady_state_error"]
        return {"columns": _columns(names, rows), "fit": _results({"slope": study.slope})}
    if command == "mc":
        if config_call:
            config = montecarlo.MonteCarloConfig(
                n_atoms=20, n_runs=4, seed=seed, isotropic=True,
                polarization=overlap.Polarization.linear((1.0, 0.0, 0.0)),
            )
        else:
            config = montecarlo.MonteCarloConfig(n_atoms=20, n_runs=4, seed=seed)
        result = montecarlo.run_monte_carlo(config)
        return {"results": _results({"n_atoms": config.n_atoms, "n_runs": config.n_runs,
                                     "isotropic": config.isotropic, **result.summary()})}
    raise ValueError(command)


class CliCold(Workload):
    """Every subcommand in a fresh interpreter, one after another."""

    name = "cli-cold"
    in_process = False
    parallel = True

    def params(self, tiny: bool) -> dict:
        return {"subcommands": {k: " ".join(v) for k, v in CLI_ARGS.items()},
                "formats": ["csv", "json"], "config_file": CONFIG_FILE.name}

    def build(self, seed: int, tiny: bool) -> dict:
        calls = [
            (command, fmt, [command, *args, "--seed", str(seed), "--format", fmt])
            for command, args in CLI_ARGS.items() for fmt in ("csv", "json")
        ]
        calls.append(("mc", "json", ["mc", "--config", str(CONFIG_FILE),
                                     "--seed", str(seed), "--format", "json"]))
        return {"seed": seed, "calls": calls}

    def prepare(self, inputs) -> list:
        return [
            _expected(command, inputs["seed"], "--config" in argv)
            for command, fmt, argv in inputs["calls"]
        ]

    def op(self, inputs, workers: int, traced: bool = False) -> list:
        """Run each call in turn; returns (command, format, code, stdout, stderr, wall)."""
        env = dict(os.environ, RYDCAT_WORKERS=str(workers))
        if traced:
            prefix = [sys.executable, str(HERE / "tracer.py")]
        else:
            prefix = [sys.executable, "-m", "rydcat.cli"]
        out = []
        for command, fmt, argv in inputs["calls"]:
            start = time.perf_counter()
            proc = subprocess.run(prefix + argv, env=env, capture_output=True,
                                  text=True, timeout=60)
            out.append((command, fmt, proc.returncode, proc.stdout, proc.stderr,
                        time.perf_counter() - start))
        return out

    def check(self, inputs, refs, result, first) -> list[str]:
        problems = []
        for (command, fmt, code, stdout, stderr, _), want in zip(result, refs):
            if code != 0:
                problems.append(f"{command} {fmt} exited {code}: {stderr.strip()[-200:]}")
                continue
            got = _parse(stdout, fmt)
            if fmt == "csv":
                want = {k: v for k, v in want.items() if k != "fit"}
            if got != want:
                problems.append(f"{command} {fmt} output differs from the API result")
        return problems

    @staticmethod
    def trace_summary(result) -> dict:
        """Sum the layer summaries the traced children wrote to stderr."""
        total = None
        for *_, stderr, _ in result:
            line = stderr.rstrip("\n").rsplit("\n", 1)[-1]
            if not line.startswith(tracer.TRACE_PREFIX):
                raise RuntimeError("traced call wrote no span summary")
            summary = json.loads(line[len(tracer.TRACE_PREFIX):])
            if total is None:
                total = summary
                continue
            for name, entry in summary.items():
                for key, value in entry.items():
                    total[name][key] += value
        return total


WORKLOADS = {wl.name: wl for wl in (McRef(), ScanSmall(), ClosedForm(), CliCold())}
