import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from rydcat import NumericalError, __version__, cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# sha256 of the full stdout of each subcommand, captured before the
# cavity, steady-state and config plumbing were folded; a refactor must
# keep every byte.  mc and figure4 were captured again when the drive
# phase became rank 1, which moves their printed numbers by at most
# 1e-13 and 3e-11 relative, and again when the branch mismatch stopped
# being formed as 1 - Re c, which moves them by at most 4.3e-9 (mc,
# b_sem) and 3.7e-10 (figure4, b_sem at N = 6): the old mismatch was
# off by a few ulp of 1.  figure3, mc and figure4 were captured again when
# the Bessel kernel moved to one half-angle tangent, which moves them by
# at most 1.7e-13 relative (figure3, a value of 2e-5 near a zero of the
# kernel; 3.5e-18 absolute), 7.8e-16 (mc) and 1.4e-15 (figure4).  mc and
# figure4 were captured again when the drive phase left the pair kernel
# and the reductions became matrix products of the real kernels, which
# moves them by at most 1.4e-15 (mc) and 9.3e-16 (figure4).  Every
# xcheck pin was captured again when the round-trip model carried its
# mirror and medium losses as expm1 of their exponents, which moves its
# error column by at most 2.6e-6 relative (finesse 1e6) and the fitted
# slope by at most 2.2e-7.  mc and figure4 here, and the small-N mc and
# figure4 pins below, were captured again when each group of runs came
# to draw its clouds from one Philox stream keyed by its first run: every
# run after the first of a group draws a different cloud, so these are
# new samples of the same ensemble, not a rounding move.  numpy's
# float64 tan is a SIMD loop on AVX-512 hosts and libm elsewhere; both
# are within an ulp, but they can differ by one, and so can these bytes.
GOLDEN_SHA256 = {
    ("amplitudes", "csv"): "e3f6d9bac34c166d39b4d11b3cf4be069ee31d5756c302bc4a6f7e02c1aa9e27",
    ("amplitudes", "json"): "e1fc5978389c828059d33923933ac63cecd6b35824c8baa21b8dab598abce998",
    ("figure2", "csv"): "9fa13b825e9b9a8e1e9d7882e14cba93df2ec234b783ba362d78587ebfcaf751",
    ("figure2", "json"): "04c0693650a1704fbddb8cd651f848dc040477dcbed26e2e44a78b8e5f807159",
    ("figure3", "csv"): "3e4d146dc46aa4a844a8de2f0602abe7b4ec33e08a3f1280b10d8239e053d841",
    ("figure3", "json"): "d313c87a01ae3d3aaaf58832fd8e652b69582ec53423c44c00f07fa2d602e099",
    ("headline", "csv"): "12e965aa5893bcf1ce908b10b2e94ef834dee104ccd7aa24387de3ec1f69b605",
    ("headline", "json"): "b4b52d79f0adcae2daa8f46e604795e592513401d2ad2ccb5ee7cee4e87ee7e4",
    ("xcheck", "csv"): "859dfbcc9d38b29ba6507f9ae8f83b817fb1cc057b233dc8e81a04ffed56af51",
    ("xcheck", "json"): "42afd4ae032ea15439b3d1fad1bb917c251790609db3dc3944a794a47e62a725",
    ("mc", "csv"): "1e457fed86aa1d5a86fe8c6c8be2757b2562e2b83a30101472ef7c974b4f07c9",
    ("mc", "json"): "47e4a5f51e1d01fb61fc0f83305c036a045f5541024e252875679e42a14e76e0",
    ("figure4", "csv"): "f4a25f7458d915f65907de3f5d0620b8b5c8166705588186cc3bdbfd7d2326ca",
    ("figure4", "json"): "77a0ec84e506a56a9b77cc75259dc69cf04faf5675cfb00a4608bb7fb7220943",
}
# sha256 of the full stdout of further invocations, captured alongside
# GOLDEN_SHA256 before the CLI's tables became columns: single branches,
# the asymptotic and "unbounded" headline blocks, empty, one-point and
# one-projection grids, and small runs off the default geometry.
EXTRA_SHA256 = {
    ("amplitudes --branch up", "csv"):
        "9d3868044f2a65b8a4b432692fee1e0d1a6fc64d2b0e8dff5de3f73d6ba7d280",
    ("amplitudes --branch up", "json"):
        "b8e02c93464fc2da588a462674c75b0a6aaa74192ee821acdd1e3eb2d7a369a6",
    ("amplitudes --branch dn", "csv"):
        "0f0db0b6494377eb86689bb9ce5de0d2a0d20f1ffa482a5dd20d0e867f99d3fc",
    ("amplitudes --branch dn", "json"):
        "3460969c69d028537c960780e15ac6a769bee2c0ee3aad0b6fd6badb53ea534a",
    ("amplitudes --alpha-in 0.5+0.25j --cooperativity 3", "csv"):
        "df965cf3611f67a45f1ba67443b6e39d1021abf009e61cd6885ec8154a9d9c83",
    ("amplitudes --alpha-in 0.5+0.25j --cooperativity 3", "json"):
        "a4360804eed0c697c81dff6999b00c0d4e2873b062a18c351330d0308b83bdb6",
    ("headline --lambda-inf", "csv"):
        "de2c98cbb21e33d95dcc6518471206680eaf4a0dfe6f873261aa021dc1ef3cac",
    ("headline --lambda-inf", "json"):
        "01fd3ac23cec4fa66aaff98df638d052074b596c51d6dc9c3c1f0a973d9a5f9a",
    ("headline --eta-esc 1 --cooperativity 2", "csv"):
        "14a6eff663872eb7c29b8f6f84b9c6507b4e06f3905d9d0cedba14e735a70d5a",
    ("headline --eta-esc 1 --cooperativity 2", "json"):
        "48aecf218c5133d78d8e44a2cc1823e6b22bca746c31af95ba1a7d78146eafb4",
    ("figure2 --lambda-grid 1:100:5", "csv"):
        "ea116568e5132b70f8ff293cb411d0da29c88d651a8f4bca46cfa245f2bbf5e1",
    ("figure2 --lambda-grid 1:100:5", "json"):
        "fc4d2cce7d7fb827a965030e38069425e9461deb558eba83d15726252934e10f",
    ("figure2 --lambda-grid 3:3:1", "csv"):
        "c8bb0519048d4ea1bd39b69085c8dd8314fd5b24aa064ca19a46fa69cea2e193",
    ("figure2 --lambda-grid 3:3:1", "json"):
        "01ab1a820a166177bde7fd097b2a65d018f8a9ae345f08d2e1e9b2e4db2be6f8",
    ("figure3 --kx-grid 0:1:0", "csv"):
        "4144e513e533535a28eb05c760bd562ae979fc025e728f18f09bbd37d6c35fd3",
    ("figure3 --kx-grid 0:1:0", "json"):
        "de2a862867c805499c81de901638b08dc6ec61987009e9a6079dd201f328dbbf",
    ("figure3 --kx-grid 0:1:1", "csv"):
        "36296b7c79c94f35ebf5fff46ff45c5aa18c5f39ce2b215b5a92a1e78e82d434",
    ("figure3 --kx-grid 0:1:1", "json"):
        "2e555e28e2caf9c7c78d92c7d103da069336aa9ed3d7b5b5866d3b5a60374e37",
    ("figure3 --kx-grid 0:10:5 --projections 0.5", "csv"):
        "81a3716db3a411581dc3410eefa237bcc19b20e70b2303a067cecc7dafe2066a",
    ("figure3 --kx-grid 0:10:5 --projections 0.5", "json"):
        "a5f2b7174842bc7a47459d6963a294ba326dd2619c0f0bbfbcc0498f997ad6e6",
    ("figure4 --n-grid 4,7 --runs-budget 150 --polarization linear_x", "csv"):
        "37511d0b3df90422bbbdc9ac40ccb7e0c01dca39f8f4f7a7ca4ea2001a293f45",
    ("figure4 --n-grid 4,7 --runs-budget 150 --polarization linear_x", "json"):
        "0c3534edd31ccd55d3f0218a416204c0a48a1d061c4091d4f07d841c74e38768",
    ("xcheck --finesse-grid 1e2:1e4:3", "csv"):
        "ef324a5ce4580809658c1639c7d231bd6fde3f9a33b53b1dc4d9d121916cd575",
    ("xcheck --finesse-grid 1e2:1e4:3", "json"):
        "020a2c1813dab97e661740a97c915b644e8e0af201c2b0b119ad2103cae80665",
    ("xcheck --finesse-grid 3e2:3e5:2 --lambda-dn 40", "csv"):
        "918dbed124e34207956fa666fdfa456eb640f31fb5a4dc620b8f2973940da56a",
    ("xcheck --finesse-grid 3e2:3e5:2 --lambda-dn 40", "json"):
        "506aa6f1992ef25ba6d419b8cfee421b5570a292da41332b385e1dbb6327b906",
    ("mc --n-atoms 8 --n-runs 4 --isotropic", "csv"):
        "5f8ff098088f5574812b353633f67f9ce2fd8f6a81293e0b7fe6766e90ee6336",
    ("mc --n-atoms 8 --n-runs 4 --isotropic", "json"):
        "b2874fa7e62d86d06c7b78db56ba450871d6e38ac338a622140ae6899fd8ab58",
    ("mc --n-atoms 5 --n-runs 3 --polarization linear_z --seed 7", "csv"):
        "3c11ffd16dcb606d458eae8c6bfcf2bc199ca906f5be0e62bf15a7c9c7e681e2",
    ("mc --n-atoms 5 --n-runs 3 --polarization linear_z --seed 7", "json"):
        "53c29d095c3b6560e18aa5fa03514d1b7a304647800bf7e6dd43b2871db6b834",
}
# sha256 of the files written by --out and --fit-out (stdout stays empty).
FILE_SHA256 = {
    ("figure4 --n-grid 3:4 --runs-budget 100", "csv", "out"):
        "13a327abae29837b8170731381faf02ce2e539c48a832cdf52b1c54e6c64b389",
    ("figure4 --n-grid 3:4 --runs-budget 100", "csv", "fit-out"):
        "e806a5490cf853ec9712328803e8ba0b6810786c9f62c3683f0587a1bee796b1",
    ("figure4 --n-grid 3:4 --runs-budget 100", "json", "out"):
        "42eb3d76873f547d9445991ca065be7ec3fb0b5ec8486e8bc6c11aa7e79404bc",
    ("figure4 --n-grid 3:4 --runs-budget 100", "json", "fit-out"):
        "e806a5490cf853ec9712328803e8ba0b6810786c9f62c3683f0587a1bee796b1",
    ("xcheck --finesse-grid 1e2:1e4:3", "csv", "out"):
        "ef324a5ce4580809658c1639c7d231bd6fde3f9a33b53b1dc4d9d121916cd575",
    ("xcheck --finesse-grid 1e2:1e4:3", "csv", "fit-out"):
        "e10b2f58be411f3458412cd3742c498fcd8b7846b16a29a1d6efbc9476b64af8",
    ("xcheck --finesse-grid 1e2:1e4:3", "json", "out"):
        "020a2c1813dab97e661740a97c915b644e8e0af201c2b0b119ad2103cae80665",
    ("xcheck --finesse-grid 1e2:1e4:3", "json", "fit-out"):
        "e10b2f58be411f3458412cd3742c498fcd8b7846b16a29a1d6efbc9476b64af8",
}
GOLDEN_ARGS = {
    "mc": ("--n-atoms", "20", "--n-runs", "4"),
    "figure4": ("--n-grid", "3:6", "--runs-budget", "200"),
}


@pytest.mark.parametrize("command,fmt", sorted(GOLDEN_SHA256))
def test_golden_output(capsys, command, fmt):
    code, out = run_cli(capsys, command, *GOLDEN_ARGS.get(command, ()),
                        "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[command, fmt]


@pytest.mark.parametrize("argv,fmt", sorted(EXTRA_SHA256))
def test_extra_output_pinned(capsys, argv, fmt):
    code, out = run_cli(capsys, *argv.split(), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXTRA_SHA256[argv, fmt]


@pytest.mark.parametrize("argv,fmt", sorted({key[:2] for key in FILE_SHA256}))
def test_output_files_pinned(capsys, tmp_path, argv, fmt):
    paths = {"out": tmp_path / "out", "fit-out": tmp_path / "fit"}
    code, out = run_cli(capsys, *argv.split(), "--format", fmt,
                        "--out", str(paths["out"]),
                        "--fit-out", str(paths["fit-out"]))
    assert code == 0
    assert out == ""
    for which, path in paths.items():
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == FILE_SHA256[argv, fmt, which], which


class TestExitCodes:
    def test_success(self, capsys):
        assert cli.main(["headline"]) == 0

    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["headline", "--no-such-flag"])
        assert exc.value.code == 1

    def test_unknown_command_is_one(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1

    def test_parameter_error_is_two(self, capsys):
        assert cli.main(["headline", "--eta-esc", "1.5"]) == 2
        assert "eta_esc" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["mc", "--wavelength", "nan"],
        ["mc", "--sigmas", "inf,1,1"],
        ["mc", "--sigmas", "1,nan,1"],
        ["figure4", "--runs-budget", "nan"],
        ["figure4", "--runs-budget", "inf"],
        ["figure4", "--wavelength", "inf"],
        ["amplitudes", "--alpha-in", "nan"],
    ])
    def test_non_finite_value_is_two(self, capsys, argv):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid parameter" in captured.err

    @pytest.mark.parametrize("argv,message", [
        (["amplitudes", "--alpha-in", "1e160"], "alpha_in is too large"),
        (["amplitudes", "--alpha-in", "1e200"], "alpha_in is too large"),
        (["amplitudes", "--alpha-in", "1e308+1e308j"], "alpha_in is too large"),
        (["figure4", "--n-grid", "3,3"], "repeats the atom number 3"),
        (["figure4", "--n-grid", "3,4,3"], "repeats the atom number 3"),
        (["figure3", "--projections", "2"], "projection must be in [0, 1]"),
        (["figure3", "--projections", "0,1.5"], "projection must be in [0, 1]"),
        (["headline", "--lambda-inf", "--cooperativity", "0"],
         "loss budget needs cooperativity > 0"),
        (["amplitudes", "--lambda-dn", "1e200"], "lambda_dn is too large"),
        (["mc", "--n-runs", "100000000000000000000"],
         "run counts must fit in 32 bits"),
        (["figure4", "--runs-budget", "1e30"], "run counts must fit in 32 bits"),
        (["figure4", "--n-grid", "2,3"], "each atom number must be >= 3, got 2"),
    ])
    def test_out_of_range_value_is_one_line(self, capsys, argv, message):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert message in captured.err

    @pytest.mark.parametrize("argv", [
        ["figure3", "--kx-grid", "0:nan:3"],
        ["figure3", "--kx-grid", "0:inf:3"],
        ["figure3", "--kx-grid=-1.7e308:1.7e308:3"],
        ["figure3", "--projections", "0,nan"],
        ["figure3", "--projections", "inf"],
        ["figure2", "--lambda-grid", "1:inf:3"],
        ["xcheck", "--finesse-grid", "nan:1e6:5"],
    ])
    def test_non_finite_grid_is_one(self, capsys, argv):
        # A grid or list with a value that is not finite is malformed.
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv,code,message", [
        (["xcheck", "--finesse-grid", "1:1:2"], 2,
         "invalid parameter: finesse_grid repeats the finesse 1.0"),
        (["xcheck", "--cooperativity", "1.7e308"], 3,
         "numerical failure: round-trip error is 0.0 at finesse 100.0: no slope"),
        (["mc", "--n-atoms", "12", "--n-runs", "3", "--sigmas", "1e8,1e150,1e8",
          "--wavelength", "1e-20"], 3,
         "numerical failure: rms pair overlap underflows to 0: no standard error"),
        (["headline", "--eta-esc", "1e-300", "--cooperativity", "1e-300"], 2,
         "invalid parameter: l_gen / (1 - l_gen) overflows: "
         "eta_esc * cooperativity too small"),
    ])
    def test_degenerate_result_is_one_line(self, capsys, argv, code, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"rydcat: {message}"]

    def test_headline_ratio_where_l_gen_rounds_to_one(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["headline", "--eta-esc", "1e-300"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        results = dict(line.split(",") for line in captured.out.splitlines()[1:])
        assert float(results["l_gen_ratio"]) == pytest.approx(1e300, rel=1e-15)

    def test_non_finite_json_value_is_three(self, capsys, monkeypatch):
        # RFC 8259 has no NaN or Infinity: JSON output refuses them in one
        # line, where CSV prints them.
        import rydcat

        monkeypatch.setattr(rydcat, "sweep_loss_vs_coupling",
                            lambda *args: {"lambda_dn": [1.0], "l_gen": [math.nan]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["figure2", "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "rydcat: numerical failure: a result is NaN or infinite, "
            "which JSON cannot hold"
        ]
        assert cli.main(["figure2"]) == 0
        assert capsys.readouterr().out == "lambda_dn,l_gen\n1,nan\n"

    def test_cloud_too_wide_for_float64_is_three(self, capsys):
        # Squared separations (and at 1e300 the drive phase's split of
        # k.x) overflow to inf and NaN quietly; the branch reduction's
        # guards alone report it, in one line, instead of printing nan.
        for width in ("1e200", "1e300"):
            argv = ["mc", "--n-atoms", "3", "--n-runs", "2",
                    "--sigmas", ",".join([width] * 3)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                "rydcat: numerical failure: nonpositive or NaN normalization "
                "of the symmetric mode"
            ]

    def test_numerical_error_is_three(self, capsys, monkeypatch):
        def explode(args):
            raise NumericalError("synthetic")

        monkeypatch.setattr(cli, "cmd_headline", explode)
        assert cli.main(["headline"]) == 3

    @pytest.mark.parametrize("where", ["parent", "child"])
    def test_memory_error_is_three(self, capsys, monkeypatch, where):
        # N = 50,000 would ask for 9.31 GiB of pair rectangles; the
        # reduction is replaced, so nothing that large is allocated.  With
        # two workers the second run's group fails in a forked child.
        from rydcat import montecarlo

        parent = os.getpid()

        def no_memory(positions, *args):
            if where == "parent" or os.getpid() != parent:
                raise MemoryError("Unable to allocate 9.31 GiB")
            r = positions.shape[0]
            return {"b": np.zeros(r), "c_up_dn": np.ones(r, complex),
                    "s12": np.zeros(r, complex), "s12_sq": np.zeros(r),
                    "per_atom": None}

        monkeypatch.setattr(montecarlo, "collective_pairs", no_memory)
        # A forked span's shared store would be sized for the real call.
        monkeypatch.setattr(montecarlo, "store_cells", lambda n_atoms, clouds: 1)
        workers = "1" if where == "parent" else "2"
        code = cli.main(["mc", "--n-atoms", "50000", "--n-runs", "2",
                         "--workers", workers])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "rydcat: out of memory: runs of 50000 atoms (1 per group): "
            "Unable to allocate 9.31 GiB"
        ]


COMMANDS = ("amplitudes", "figure2", "figure3", "figure4", "headline",
            "xcheck", "mc")

# The option names and defaults of each subcommand, as parsed from an
# empty command line; grids appear as the arrays their defaults expand to.
COMMON_DEFAULTS = {"config": None, "seed": 0, "out": None, "format": "csv"}
CAVITY_DEFAULTS = {"eta_esc": 0.9825, "cooperativity": 21.0}
CLOUD_DEFAULTS = {"sigmas": (3.3, 4.5, 1.7), "wavelength": 0.78,
                  "polarization": "circular", "isotropic": False,
                  "workers": None}
OPTION_DEFAULTS = {
    "amplitudes": {**CAVITY_DEFAULTS, "lambda_dn": 21.0, "alpha_in": 1 + 0j,
                   "branch": "both"},
    "figure2": {**CAVITY_DEFAULTS,
                "lambda_grid": np.geomspace(1.0, 1000.0, 400).tolist()},
    "figure3": {"kx_grid": np.linspace(0.0, 50.0, 501).tolist(),
                "projections": [0.0, 0.7071067811865476, 1.0]},
    "figure4": {**CLOUD_DEFAULTS, "n_grid": list(range(3, 31)),
                "runs_budget": 100000.0, "fit_out": None},
    "headline": {**CAVITY_DEFAULTS, "visibility_ratio": 0.36787944117144233,
                 "lambda_inf": False},
    "xcheck": {**CAVITY_DEFAULTS, "lambda_dn": 21.0,
               "finesse_grid": [100.0, 1000.0, 10000.0, 100000.0, 1000000.0],
               "fit_out": None},
    "mc": {**CLOUD_DEFAULTS, "n_atoms": 260, "n_runs": 100},
}


class TestOptions:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_option_names_and_defaults(self, monkeypatch, command):
        # The handler is swapped for one that keeps the parsed namespace,
        # its last argument.
        seen = []
        monkeypatch.setattr(cli, f"cmd_{command}", lambda *a: seen.append(a[-1]))
        assert cli.main([command]) == 0
        parsed = vars(seen[0])
        del parsed["func"]
        got = {k: v.tolist() if isinstance(v, np.ndarray) else v
               for k, v in parsed.items()}
        want = {**COMMON_DEFAULTS, "command": command,
                **OPTION_DEFAULTS[command]}
        assert got == want

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: rydcat {command}")


class TestAmplitudes:
    def test_csv_header_and_branches(self, capsys):
        code, out = run_cli(capsys, "amplitudes")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "branch,r_re,r_im,a_re,a_im,m_re,m_im,energy_residual"
        assert lines[1].startswith("up,-0.91068181818181815,0,")
        assert lines[2].startswith("dn,0.87568181818181823,0,")

    def test_single_branch_selection(self, capsys):
        _, out = run_cli(capsys, "amplitudes", "--branch", "up")
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("up,")

    def test_json_carries_meta(self, capsys):
        _, out = run_cli(capsys, "amplitudes", "--format", "json")
        payload = json.loads(out)
        assert payload["meta"] == {
            "command": "amplitudes", "seed": 0, "version": __version__,
        }
        assert payload["columns"]["branch"] == ["up", "dn"]

    def test_rejects_bad_coupling(self, capsys):
        assert cli.main(["amplitudes", "--lambda-dn", "0.5"]) == 2


class TestByteStability:
    @pytest.mark.parametrize("argv", [
        ("headline",),
        ("figure2", "--lambda-grid", "1:100:5"),
        ("figure3", "--kx-grid", "0:10:3"),
        ("mc", "--n-atoms", "8", "--n-runs", "4"),
    ])
    def test_repeat_runs_identical(self, capsys, argv):
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


class TestHeadline:
    def test_kv_table_values(self, capsys):
        _, out = run_cli(capsys, "headline")
        rows = dict(line.split(",") for line in out.strip().split("\n")[1:])
        assert float(rows["lambda_opt"]) == 21.0
        assert float(rows["l_gen"]) == pytest.approx(0.0175, abs=1e-12)
        assert float(rows["l_cav"]) == pytest.approx(0.202226239669, rel=1e-9)
        assert float(rows["alpha_out_sq_at_ratio"]) == pytest.approx(
            28.0714285714, rel=1e-9
        )

    def test_asymptotic_block(self, capsys):
        _, out = run_cli(capsys, "headline", "--lambda-inf", "--format", "json")
        results = json.loads(out)["results"]
        assert results["l_gen"] == pytest.approx(0.062159090909090909)
        assert results["l_cav"] == pytest.approx(0.12045442923553719)
        assert results["l_ell"] == pytest.approx(0.058295338326446281)

    def test_unbounded_size_sentinel(self, capsys):
        _, out = run_cli(capsys, "headline", "--eta-esc", "1.0")
        assert "unbounded" in out


class TestFigureOutputs:
    def test_figure2_columns(self, capsys):
        _, out = run_cli(capsys, "figure2", "--lambda-grid", "1:100:4")
        lines = out.strip().split("\n")
        assert lines[0] == "lambda_dn,l_a,l_m,l_gen,a_up_over_in,a_dn_over_in"
        assert len(lines) == 5

    def test_figure3_long_format(self, capsys):
        _, out = run_cli(capsys, "figure3", "--kx-grid", "0:10:3")
        lines = out.strip().split("\n")
        assert lines[0] == "kx,projection,v"
        assert lines[1] == "0,0,1"
        assert lines[2].startswith("5,0,-0.2591504599751903")

    def test_figure4_fit_sidecar(self, capsys, tmp_path):
        fit_path = tmp_path / "fit.json"
        code, out = run_cli(
            capsys, "figure4", "--n-grid", "3:6",
            "--runs-budget", "200", "--fit-out", str(fit_path),
        )
        assert code == 0
        assert out.startswith("n_atoms,b_mean,b_sem,runs\n")
        fit = json.loads(fit_path.read_text())["fit"]
        assert set(fit) == {"c3", "c3_err", "free_slope"}
        assert fit["c3"] > 0.0

    def test_xcheck_convergence_table(self, capsys):
        _, out = run_cli(capsys, "xcheck", "--finesse-grid", "1e2:1e4:3")
        lines = out.strip().split("\n")
        assert lines[0] == "finesse,semiclassical_error,steady_state_error"
        assert len(lines) == 4

    def test_xcheck_reaches_finesse_1e8(self, capsys):
        # At 1e8 the error still follows the O(1/finesse) law of the
        # lumped model (0.393 / finesse), not the rounding of the mirrors.
        code, out = run_cli(capsys, "xcheck", "--finesse-grid", "1e2:1e8:7")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert [float(row.split(",")[0]) for row in rows] == [
            10.0**n for n in range(2, 9)]
        assert float(rows[-1].split(",")[1]) == pytest.approx(3.93e-9, rel=0.01)

    def test_xcheck_first_order_up_to_finesse_1e14(self, capsys):
        code, out = run_cli(capsys, "xcheck", "--finesse-grid", "1e2:1e14:13",
                            "--format", "json")
        assert code == 0
        table = json.loads(out)
        assert len(table["columns"]["finesse"]) == 13
        assert -1.05 <= table["fit"]["slope"] <= -0.95


class TestOutputFile:
    def test_out_writes_file_instead_of_stdout(self, capsys, tmp_path):
        target = tmp_path / "headline.csv"
        code, out = run_cli(capsys, "headline", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("key,value\n")

    def test_dash_means_stdout(self, capsys):
        _, out = run_cli(capsys, "headline", "--out", "-")
        assert out.startswith("key,value\n")

    @pytest.mark.parametrize("flag", ["--out", "--fit-out"])
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_path_is_two(self, capsys, tmp_path, flag, where):
        # One line on stderr and exit 2, as for an unreadable --config.
        path = tmp_path
        if where == "missing directory":
            path = tmp_path / "absent" / "x.json"
        argv = ["xcheck", "--finesse-grid", "1e2:1e4:3", "--out", "-",
                flag, str(path)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith("rydcat: invalid parameter: cannot write output file: ")


class TestConfigFile:
    def write_config(self, tmp_path, text):
        path = tmp_path / "run.conf"
        path.write_text(text)
        return str(path)

    def test_values_loaded(self, capsys, tmp_path):
        path = self.write_config(tmp_path, "n_atoms = 8\nn_runs = 4\n")
        _, from_config = run_cli(capsys, "mc", "--config", path)
        _, explicit = run_cli(capsys, "mc", "--n-atoms", "8", "--n-runs", "4")
        assert from_config == explicit

    def test_explicit_flags_win(self, capsys, tmp_path):
        path = self.write_config(tmp_path, "n_runs = 6\n")
        _, out = run_cli(capsys, "mc", "--config", path,
                         "--n-atoms", "8", "--n-runs", "4", "--format", "json")
        assert json.loads(out)["results"]["n_runs"] == 4

    def test_boolean_key(self, capsys, tmp_path):
        path = self.write_config(tmp_path, "isotropic = true\nn_atoms = 8\n"
                                           "n_runs = 4\n")
        _, out = run_cli(capsys, "mc", "--config", path, "--format", "json")
        assert json.loads(out)["results"]["isotropic"] is True

    def test_comments_and_blanks_ignored(self, capsys, tmp_path):
        path = self.write_config(
            tmp_path, "# comment\n\nn_atoms = 8  # trailing\nn_runs = 4\n"
        )
        code, _ = run_cli(capsys, "mc", "--config", path)
        assert code == 0

    def test_unknown_key_rejected(self, capsys, tmp_path):
        path = self.write_config(tmp_path, "no_such_option = 1\n")
        assert cli.main(["mc", "--config", path]) == 2

    def test_config_key_in_config_rejected(self, capsys, tmp_path):
        path = self.write_config(tmp_path, "config = other.conf\n")
        assert cli.main(["mc", "--config", path]) == 2

    def test_missing_file_rejected(self, capsys, tmp_path):
        assert cli.main(["mc", "--config", str(tmp_path / "absent.conf")]) == 2

    @pytest.mark.parametrize("text", [
        "n_atoms = eight\n",
        "polarization = sideways\n",
        "isotropic = maybe\n",
    ])
    def test_bad_value_is_usage_error(self, tmp_path, text):
        # argparse checks neither types nor choices of defaults, so the
        # file's values must go through the parser before they become ones
        path = self.write_config(tmp_path, text)
        with pytest.raises(SystemExit) as exc:
            cli.main(["mc", "--config", path])
        assert exc.value.code == 1

    def test_config_before_subcommand_is_usage_error(self, capsys, tmp_path):
        path = self.write_config(tmp_path, "n_atoms = 8\n")
        for argv in (["--config", path, "mc"], [f"--config={path}", "mc"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert "--config must follow the subcommand" in err

    def test_shared_option_keys(self, capsys, tmp_path):
        # Options declared once for several commands are config keys of each.
        path = self.write_config(tmp_path, "eta_esc = 0.9\ncooperativity = 5\n")
        _, from_config = run_cli(capsys, "headline", "--config", path)
        _, explicit = run_cli(capsys, "headline", "--eta-esc", "0.9",
                              "--cooperativity", "5")
        assert from_config == explicit

    def test_dashed_key_accepted(self, capsys, tmp_path):
        path = self.write_config(tmp_path, "n-atoms = 8\nn_runs = 4\n")
        _, from_config = run_cli(capsys, "mc", "--config", path)
        _, explicit = run_cli(capsys, "mc", "--n-atoms", "8", "--n-runs", "4")
        assert from_config == explicit


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rydcat.cli", "headline"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("key,value")


def test_import_leaves_scipy_out():
    # scipy is a test-only dependency; the package must not load it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rydcat, rydcat.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
