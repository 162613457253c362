import hashlib
import json
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
# moves them by at most 1.4e-15 (mc) and 9.3e-16 (figure4).  numpy's
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
    ("xcheck", "csv"): "dc41c0dad41f46e9d3933f4b83b714074a2acf6c229bba341eb641341685a117",
    ("xcheck", "json"): "0d5606ce23c85001aff1452509a3e9e4c389d8c30f64bb4ef32a8b7b8049399b",
    ("mc", "csv"): "56bf15ced589288d9c94208e87968ae544bf3289effdaaa0898ca3423fa707d0",
    ("mc", "json"): "3b9e8d639aabe06a9248a0d428fd26c4d7c9ee0af7cc40d09aaaa23385a791d3",
    ("figure4", "csv"): "d99a1cbf1cbad3c60e46e9bea0013f646329f24c46b1ca606895c98537eed07b",
    ("figure4", "json"): "9e4be2bba7f55bd1ea5f949cbd073c890543a64db6f08109bebca6cf2a5c6331",
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
