"""Command-line front end.

Every subcommand renders one dataset (a sweep, a cross-check, a Monte
Carlo campaign, or the headline numbers) as CSV or JSON.  Output is
byte-stable for a given seed: floats print through a fixed %.17g
format, rows keep a fixed order, and all randomness flows from the
--seed flag.

Exit codes: 0 success, 1 usage error, 2 invalid parameter value,
3 numerical failure or not enough memory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .errors import NumericalError, ParameterError

# Each command imports the public names it calls from the package when
# it runs, so a process loads only the layers of its command (and numpy
# only for a grid or a layer that needs it), and a name rebound on the
# package, as perfbench's tracer rebinds them, is the one called.

# Jones vectors of the --polarization choices.
_POLARIZATIONS = {
    "circular": (1.0 / math.sqrt(2.0), 1.0j / math.sqrt(2.0), 0.0),
    "linear_x": (1.0, 0.0, 0.0),
    "linear_y": (0.0, 1.0, 0.0),
    "linear_z": (0.0, 0.0, 1.0),
}
_WORKERS_HELP = (
    "processes that share the runs (default: RYDCAT_WORKERS, else 1); on "
    "Linux a campaign of more than about 0.1 s is split over forked "
    "children, each holding its own pair store; results are identical "
    "for any count"
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # invalid parameter values, so usage errors remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class _ConfigBeforeCommand(argparse.Action):
    # --config is read by the chosen subcommand's parser, so it must
    # follow the subcommand; without this, argparse would take the file
    # name for the subcommand.
    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(
            "--config must follow the subcommand, e.g. rydcat mc --config FILE"
        )


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return value


def _finite(values):
    # A grid or list with a NaN or infinite value is a malformed option.
    if not all(map(math.isfinite, values)):
        raise ValueError("values must be finite")
    return values


def _geom_grid(text: str) -> np.ndarray:
    """Parse 'start:stop:num' into a geometric grid of finite values."""
    import numpy as np

    start, stop, num = text.split(":")
    with np.errstate(all="ignore"):  # a grid that is not finite fails below
        return _finite(np.geomspace(float(start), float(stop), int(num)))


def _linear_grid(text: str) -> np.ndarray:
    """Parse 'start:stop:num' into a linear grid of finite values."""
    import numpy as np

    start, stop, num = text.split(":")
    with np.errstate(all="ignore"):  # a grid that is not finite fails below
        return _finite(np.linspace(float(start), float(stop), int(num)))


def _int_grid(text: str) -> list[int]:
    """Parse 'lo:hi' (inclusive) or a comma list of atom numbers."""
    if ":" in text:
        lo, hi = text.split(":")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def _float_triple(text: str) -> tuple[float, float, float]:
    parts = [float(part) for part in text.split(",")]
    if len(parts) != 3:
        raise ValueError("expected three comma-separated values")
    return (parts[0], parts[1], parts[2])


def _float_list(text: str) -> list[float]:
    return _finite([float(part) for part in text.split(",")])


def _plain(value):
    # A numpy scalar or array as the Python value or list it holds.
    return value.tolist() if hasattr(value, "tolist") else value


def _fmt(value) -> str:
    value = _plain(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _jsonable(value):
    value = _plain(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _render_csv(columns: dict) -> str:
    lines = [",".join(columns)]
    for row in zip(*columns.values()):
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _meta(args) -> dict:
    return {"command": args.command, "seed": args.seed, "version": __version__}


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout when it is None or ``-``."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write output file: {exc}") from exc


def _emit(
    args,
    columns: dict | None = None,
    results: dict | None = None,
    fit: dict | None = None,
) -> None:
    """Write the payload in the chosen format.

    ``columns`` maps each column name to its values, ``results`` is a
    flat key-value block (the two columns ``key`` and ``value`` in CSV),
    and ``fit`` a fit summary that appears only in JSON output and in
    the ``--fit-out`` file.
    """
    if args.format == "csv":
        if columns is None:
            columns = {"key": list(results), "value": list(results.values())}
        text = _render_csv(columns)
    else:
        payload: dict = {"meta": _meta(args)}
        for name, block in (("columns", columns), ("results", results), ("fit", fit)):
            if block is not None:
                payload[name] = _jsonable(block)
        text = json.dumps(payload, indent=2) + "\n"
    _write(args.out, text)
    if fit is not None and args.fit_out:
        payload = {"meta": _meta(args), "fit": _jsonable(fit)}
        _write(args.fit_out, json.dumps(payload, indent=2) + "\n")


def cmd_amplitudes(args) -> None:
    from . import CavityParams, QubitBranch, output_amplitudes

    params = CavityParams.from_coupling_strength(
        args.eta_esc, args.cooperativity, args.lambda_dn
    )
    branches = [b for b in QubitBranch if args.branch in ("both", b.value)]
    amps = [output_amplitudes(params, branch, args.alpha_in) for branch in branches]
    columns = {"branch": [branch.value for branch in branches]}
    for name in ("r", "a", "m"):
        values = [getattr(amp, name) for amp in amps]
        columns[f"{name}_re"] = [value.real for value in values]
        columns[f"{name}_im"] = [value.imag for value in values]
    columns["energy_residual"] = [amp.energy_residual for amp in amps]
    _emit(args, columns)


def cmd_figure2(args) -> None:
    from . import sweep_loss_vs_coupling

    _emit(
        args,
        sweep_loss_vs_coupling(args.eta_esc, args.cooperativity, args.lambda_grid),
    )


def cmd_figure3(args) -> None:
    import numpy as np

    from . import pair_overlap_projected

    kx, projections = args.kx_grid, args.projections
    columns = {
        "kx": np.tile(kx, len(projections)),
        "projection": np.repeat(projections, kx.size),
        "v": np.concatenate([pair_overlap_projected(kx, p) for p in projections]),
    }
    _emit(args, columns)


def _cloud_config(args, **fields) -> MonteCarloConfig:
    """Monte Carlo configuration from the cloud options, plus ``fields``."""
    from . import MonteCarloConfig, Polarization

    return MonteCarloConfig(
        sigmas=args.sigmas,
        wavelength=args.wavelength,
        polarization=Polarization(_POLARIZATIONS[args.polarization]),
        seed=args.seed,
        isotropic=args.isotropic,
        workers=args.workers,
        **fields,
    )


def cmd_figure4(args) -> None:
    from . import power_law_study

    study = power_law_study(_cloud_config(args), args.n_grid, args.runs_budget)
    columns = {
        "n_atoms": study.n_atoms,
        "b_mean": study.b_mean,
        "b_sem": study.b_sem,
        "runs": study.runs,
    }
    fit = {"c3": study.c3, "c3_err": study.c3_err, "free_slope": study.free_slope}
    _emit(args, columns, fit=fit)


def cmd_headline(args) -> None:
    from . import CavityParams, loss_budget, max_photon_number, optimal_lambda

    cavity = CavityParams(args.eta_esc, args.cooperativity)
    if args.lambda_inf:
        eta = cavity.eta_esc * cavity.cooperativity / (cavity.cooperativity + 1.0)
        results = {
            "eta": eta,
            "l_gen": 1.0 - eta,
            "l_cav": 1.0 - eta**2,
            "l_ell": eta * (1.0 - eta),
        }
        _emit(args, results=results)
        return
    lambda_opt = optimal_lambda(cavity)
    params = CavityParams.from_coupling_strength(
        args.eta_esc, args.cooperativity, lambda_opt
    )
    budget = loss_budget(params)
    if params.eta_esc == 1.0 and params.cooperativity >= 1.0:
        alpha_sq: float | str = "unbounded"
    else:
        alpha_sq = max_photon_number(params, args.visibility_ratio)
    results = {
        "lambda_opt": lambda_opt,
        "l_gen": budget.l_gen,
        "l_cav": budget.l_cav,
        "alpha_out_sq_at_ratio": alpha_sq,
        "a_mode": budget.a_mode,
        "l_gen_ratio": budget.l_gen / (1.0 - budget.l_gen),
    }
    _emit(args, results=results)


def cmd_xcheck(args) -> None:
    from . import (
        CavityParams,
        DetuningSet,
        QubitBranch,
        convergence_study,
        output_amplitudes,
        solve_steady_state,
        spontaneous_amplitude,
    )

    params = CavityParams.from_coupling_strength(
        args.eta_esc, args.cooperativity, args.lambda_dn
    )
    study = convergence_study(params, args.finesse_grid)
    det = DetuningSet.resonant()
    steady_err = 0.0
    for branch in QubitBranch:
        exact = output_amplitudes(params, branch, 1.0)
        ss = solve_steady_state(params, det, branch, 1.0)
        steady_err = max(
            steady_err,
            abs(ss.e_out - exact.r),
            abs(ss.e_mirror - exact.m),
            abs(spontaneous_amplitude(ss) - abs(exact.a)),
        )
    columns = {
        "finesse": study.finesse,
        "semiclassical_error": study.max_error,
        "steady_state_error": [steady_err] * study.finesse.size,
    }
    _emit(args, columns, fit={"slope": study.slope})


def cmd_mc(args) -> None:
    from . import run_monte_carlo

    config = _cloud_config(args, n_atoms=args.n_atoms, n_runs=args.n_runs)
    result = run_monte_carlo(config)
    results = {
        "n_atoms": config.n_atoms,
        "n_runs": config.n_runs,
        "isotropic": config.isotropic,
        **result.summary(),
    }
    _emit(args, results=results)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=_seed_value, default=0)
    common.add_argument("--out", default=None)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--config", default=None, help=argparse.SUPPRESS)

    cavity = _Parser(add_help=False)
    cavity.add_argument("--eta-esc", type=float, default=0.9825)
    cavity.add_argument("--cooperativity", type=float, default=21.0)

    cloud = _Parser(add_help=False)
    cloud.add_argument("--sigmas", type=_float_triple, default="3.3,4.5,1.7")
    cloud.add_argument("--wavelength", type=float, default=0.78)
    cloud.add_argument(
        "--polarization", choices=sorted(_POLARIZATIONS), default="circular"
    )
    cloud.add_argument("--isotropic", action="store_true")
    cloud.add_argument("--workers", type=int, default=None, help=_WORKERS_HELP)

    parser = _Parser(prog="rydcat", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--config", action=_ConfigBeforeCommand, help=argparse.SUPPRESS
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("amplitudes", parents=[common, cavity])
    p.add_argument("--lambda-dn", type=float, default=21.0)
    p.add_argument("--alpha-in", type=complex, default=1.0 + 0.0j)
    p.add_argument("--branch", choices=("up", "dn", "both"), default="both")
    p.set_defaults(func=cmd_amplitudes)

    p = sub.add_parser("figure2", parents=[common, cavity])
    p.add_argument("--lambda-grid", type=_geom_grid, default="1:1000:400")
    p.set_defaults(func=cmd_figure2)

    p = sub.add_parser("figure3", parents=[common])
    p.add_argument("--kx-grid", type=_linear_grid, default="0:50:501")
    p.add_argument(
        "--projections", type=_float_list, default="0,0.7071067811865476,1"
    )
    p.set_defaults(func=cmd_figure3)

    p = sub.add_parser("figure4", parents=[common, cloud])
    p.add_argument("--n-grid", type=_int_grid, default="3:30")
    p.add_argument("--runs-budget", type=float, default=1e5)
    p.add_argument("--fit-out", default=None)
    p.set_defaults(func=cmd_figure4)

    p = sub.add_parser("headline", parents=[common, cavity])
    p.add_argument("--visibility-ratio", type=float, default=math.exp(-1.0))
    p.add_argument("--lambda-inf", action="store_true")
    p.set_defaults(func=cmd_headline)

    p = sub.add_parser("xcheck", parents=[common, cavity])
    p.add_argument("--lambda-dn", type=float, default=21.0)
    p.add_argument("--finesse-grid", type=_geom_grid, default="1e2:1e6:5")
    p.add_argument("--fit-out", default=None)
    p.set_defaults(func=cmd_xcheck)

    p = sub.add_parser("mc", parents=[common, cloud])
    p.add_argument("--n-atoms", type=int, default=260)
    p.add_argument("--n-runs", type=int, default=100)
    p.set_defaults(func=cmd_mc)
    return parser


def _config_tokens(args) -> list[str]:
    """Turn the key=value lines of the ``--config`` file into flag tokens.

    Keys are the command's long option names written with ``_``; a
    switch takes ``true`` or ``false``.
    """
    path = args.config
    known = set(vars(args)) - {"command", "config", "func"}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParameterError(f"cannot read config file: {exc}") from exc
    tokens: list[str] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(
                f"{path}:{lineno}: expected key=value, got {line!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if key.replace("-", "_") not in known:
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        option = "--" + key.replace("_", "-")
        lowered = value.lower()
        if lowered == "true":
            tokens.append(option)
        elif lowered != "false":
            tokens.extend([option, value])
    return tokens


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # The file's flags go between the command and the rest of the
            # command line, so that flags given there still win; the second
            # parse checks their types and choices like any other flag.
            rest = argv[argv.index(args.command) + 1:]
            args = parser.parse_args([args.command, *_config_tokens(args), *rest])
        args.func(args)
    except ParameterError as exc:
        print(f"rydcat: invalid parameter: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"rydcat: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"rydcat: out of memory: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
