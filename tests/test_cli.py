"""End-to-end CLI behavior: output schemas, precedence, exit codes."""

import datetime
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sharpsphere import VerificationReport, cli
from sharpsphere.cli import main

PI = np.pi

SMALL_VERIFY = ["verify", "--n-t", "24", "--n-c", "18", "--n-r", "12", "--degree", "4"]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    # Tests control SEL_* explicitly; strip any ambient config.
    for key in list(os.environ):
        if key.startswith("SEL_"):
            monkeypatch.delenv(key)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def drop_timestamp(text):
    return "\n".join(line for line in text.splitlines() if '"timestamp"' not in line)


class TestSpectrum:
    def test_csv_schema_and_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, ["spectrum"])
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "k,lambda_closed,lambda_quadrature,abs_diff"
        assert len(lines) == 52   # header + k = 0..50
        k0 = lines[1].split(",")
        k1 = lines[2].split(",")
        assert float(k0[1]) == 8.0 / 3.0
        assert float(k1[1]) == -8.0 / 15.0
        for line in lines[1:]:
            assert float(line.split(",")[3]) <= 1e-10

    def test_degree_flag(self, capsys):
        code, out, _ = run_cli(capsys, ["spectrum", "--degree", "8"])
        assert code == 0
        assert len(out.splitlines()) == 10

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, ["spectrum", "--degree", "4", "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["max_degree"] == 4
        assert len(payload["rows"]) == 5
        assert set(payload["rows"][0]) == {"k", "lambda_closed",
                                           "lambda_quadrature", "abs_diff"}

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, ["spectrum"])
        _, second, _ = run_cli(capsys, ["spectrum"])
        assert first == second


class TestIdentity:
    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, ["identity", "--samples", "2000"])
        payload = json.loads(out)
        assert code == 0
        assert set(payload) == {"samples", "max_abs_deviation_from_4", "seed",
                                "timestamp"}
        assert payload["samples"] == 2000
        assert payload["seed"] == 1234
        assert payload["max_abs_deviation_from_4"] <= 1e-12
        datetime.datetime.fromisoformat(payload["timestamp"])

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, ["identity", "--samples", "500", "--csv"])
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "samples,max_abs_deviation_from_4,seed"
        assert len(lines) == 2

    def test_deterministic_up_to_timestamp(self, capsys):
        _, first, _ = run_cli(capsys, ["identity", "--samples", "2000"])
        _, second, _ = run_cli(capsys, ["identity", "--samples", "2000"])
        assert first != second   # timestamps differ
        assert drop_timestamp(first) == drop_timestamp(second)

    def test_default_sample_count(self, capsys):
        _, out, _ = run_cli(capsys, ["identity"])
        assert json.loads(out)["samples"] == 10_000


class TestConfigPrecedence:
    def test_env_used_without_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("SEL_SAMPLES", "777")
        _, out, _ = run_cli(capsys, ["identity"])
        assert json.loads(out)["samples"] == 777

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SEL_SAMPLES", "777")
        _, out, _ = run_cli(capsys, ["identity", "--samples", "333"])
        assert json.loads(out)["samples"] == 333

    def test_invalid_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SEL_SEED", "abc")
        with pytest.raises(SystemExit) as exc_info:
            main(["identity"])
        assert exc_info.value.code == 2
        assert "SEL_SEED" in capsys.readouterr().err


class TestSearch:
    def test_default_run_reaches_maximizer(self, capsys):
        code, out, _ = run_cli(capsys, ["search"])
        payload = json.loads(out)
        assert code == 0
        verdict = payload["verdict"]
        assert set(verdict) == {"converged", "reason", "at_known_maximizer",
                                "final_phi", "final_constancy_defect",
                                "iterations", "sharp_constant"}
        assert verdict["at_known_maximizer"] is True
        assert abs(verdict["final_phi"] - 2 * PI) <= 1e-4
        assert verdict["final_constancy_defect"] < 1e-3
        assert verdict["sharp_constant"] == 2 * PI
        assert payload["config"] == {"L": 8, "seed": 1234,
                                     "init": "perturbed-constant",
                                     "max_iter": 500, "tol": 1e-8}
        assert set(payload["trace"][0]) == {"iter", "phi", "grad_norm",
                                            "constancy_defect"}
        assert payload["trace"][-1]["iter"] == verdict["iterations"]

    def test_zonal_run_fails(self, capsys):
        # The odd invariant subspace caps the zonal start below 2*pi, so the
        # verdict must be an honest failure.
        code, out, _ = run_cli(capsys, ["search", "--init", "zonal",
                                        "--max-iter", "40"])
        payload = json.loads(out)
        assert code == 1
        assert payload["verdict"]["at_known_maximizer"] is False
        assert not payload["verdict"]["converged"]
        assert payload["verdict"]["final_phi"] < 2 * PI - 0.2

    @pytest.mark.parametrize("degree", ["1", "2"])
    def test_converged_off_the_maximizer_exits_1(self, capsys, degree):
        # degrees 1 and 2 start on the odd critical point, 2*pi - 0.268, where
        # the gradient vanishes: converged, but not at the maximizer family
        code, out, _ = run_cli(capsys, ["search", "--init", "zonal", "--degree", degree])
        verdict = json.loads(out)["verdict"]
        assert verdict["converged"] is True
        assert verdict["at_known_maximizer"] is False
        assert verdict["final_phi"] < 2 * PI - 0.2
        assert code == 1

    def test_random_start_converges(self, capsys):
        code, out, _ = run_cli(capsys, ["search", "--init", "random", "--seed", "5"])
        verdict = json.loads(out)["verdict"]
        assert code == 0
        assert verdict["converged"] is True
        assert verdict["at_known_maximizer"] is True

    def test_csv_trace(self, capsys):
        code, out, _ = run_cli(capsys, ["search", "--csv", "--init", "zonal",
                                        "--max-iter", "5"])
        lines = out.splitlines()
        assert code in (0, 1)
        assert lines[0] == "iter,phi,grad_norm,constancy_defect"
        assert len(lines) == 7   # header + initial state + 5 accepted steps


class TestVerifyCommand:
    def test_json_run_passes(self, capsys):
        code, out, err = run_cli(capsys, SMALL_VERIFY)
        payload = json.loads(out)
        assert code == 0
        assert payload["overall_pass"] is True
        assert "timestamp" in payload
        assert payload["config"] == {"n_t": 24, "n_c": 18, "n_r": 12,
                                     "L": 4, "seed": 1234}
        assert "pass  sphere_gram_identity_max_dev" in err
        assert "FAIL" not in err

    def test_csv_run(self, capsys):
        code, out, _ = run_cli(capsys, SMALL_VERIFY + ["--csv"])
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "name,expected,computed,tolerance,abs_or_rel,pass"
        assert len(lines) == 19   # header + 18 checks
        for line in lines[1:]:
            assert line.split(",")[5] == "True"


# every subcommand at small sizes
SMALL_RUNS = {
    "verify": ["verify", "--degree", "2"],
    "spectrum": ["spectrum", "--degree", "8"],
    "identity": ["identity", "--samples", "500"],
    "search": ["search", "--degree", "2", "--init", "random", "--max-iter", "5"],
    "convolution": ["convolution", "--points", "10"],
}


@pytest.mark.parametrize("fmt", ["--json", "--csv"])
@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_reruns_are_byte_identical_apart_from_the_timestamp(capsys, command, fmt):
    _, first, _ = run_cli(capsys, SMALL_RUNS[command] + [fmt])
    _, second, _ = run_cli(capsys, SMALL_RUNS[command] + [fmt])
    assert first
    assert drop_timestamp(first) == drop_timestamp(second)


def test_one_parser_serves_mixed_calls_as_fresh_processes_do(capsys, monkeypatch):
    # main builds its parser once per process; each call's report equals a
    # fresh process's apart from the timestamp, SEL_* values included
    built, build = [], cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_parser", cli.functools.cache(cli._parser.__wrapped__))
    calls = [(SMALL_RUNS["identity"], {}), (SMALL_RUNS["search"] + ["--csv"], {}),
             (SMALL_RUNS["spectrum"], {}), (SMALL_RUNS["identity"], {"SEL_SEED": "7"}),
             (SMALL_RUNS["convolution"] + ["--json"], {}), (SMALL_RUNS["verify"], {}),
             (SMALL_RUNS["search"], {"SEL_SEED": "3"})]
    src = str(Path(cli.__file__).resolve().parents[1])
    for argv, env in calls:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        code, out, _ = run_cli(capsys, argv)
        proc = subprocess.run([sys.executable, "-m", "sharpsphere.cli"] + argv,
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert code == proc.returncode
        assert drop_timestamp(out) == drop_timestamp(proc.stdout)
        if argv[0] == "identity":
            assert json.loads(out)["seed"] == int(env.get("SEL_SEED", cli.DEFAULTS["seed"]))
        for key in env:
            monkeypatch.delenv(key)
    assert len(built) == 1


class TestVerifyGridPlan:
    def test_degree_alone_takes_the_exact_plan(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--degree", "4"])
        assert code == 0
        assert json.loads(out)["config"] == {"n_t": 9, "n_c": 18, "n_r": 10,
                                             "L": 4, "seed": 1234}

    def test_flags_and_env_override_the_plan(self, capsys, monkeypatch):
        seen = []

        def record(config):
            seen.append(config)
            return VerificationReport(suite_name="stub", config=config.as_dict())

        monkeypatch.setattr(cli, "run_verification", record)
        monkeypatch.setenv("SEL_N_R", "14")
        code, _, _ = run_cli(capsys, ["verify", "--degree", "4", "--n-c", "20"])
        assert code == 0
        assert seen[0].as_dict() == {"n_t": 9, "n_c": 20, "n_r": 14, "L": 4,
                                     "seed": 1234}


class TestConvolutionCommand:
    def test_csv_profile(self, capsys):
        code, out, _ = run_cli(capsys, ["convolution", "--points", "10",
                                        "--n-c", "32"])
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "r,conv_value_real,conv_value_imag,closed_form,abs_diff"
        assert len(lines) == 11
        for line in lines[1:]:
            r, real, imag, closed, diff = map(float, line.split(","))
            assert closed == pytest.approx(2 * PI / r, rel=1e-15)
            assert imag == 0.0
            assert diff <= 1e-10
        assert float(lines[-1].split(",")[0]) == 2.0

    def test_json_profile(self, capsys):
        code, out, _ = run_cli(capsys, ["convolution", "--points", "3", "--json"])
        payload = json.loads(out)
        assert code == 0
        assert len(payload["rows"]) == 3
        assert set(payload["rows"][0]) == {"r", "conv_value_real",
                                           "conv_value_imag", "closed_form",
                                           "abs_diff"}


class TestOutputFile:
    def test_out_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "spectrum.csv"
        code, out, _ = run_cli(capsys, ["spectrum", "--out", str(target)])
        assert code == 0
        assert out == ""
        _, stdout_text, _ = run_cli(capsys, ["spectrum"])
        assert target.read_text(encoding="utf-8") == stdout_text

    def test_unwritable_path_is_io_error(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("occupied")
        with pytest.raises(SystemExit) as exc_info:
            main(["spectrum", "--out", str(blocker / "x.csv")])
        assert exc_info.value.code == 3
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_unwritable_path_stops_before_stderr_lines(self, capsys, tmp_path, command):
        # the report is written first, so verify prints no check lines
        blocker = tmp_path / "blocker"
        blocker.write_text("occupied")
        with pytest.raises(SystemExit) as exc_info:
            main(SMALL_RUNS[command] + ["--out", str(blocker / "report")])
        assert exc_info.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and err.count("\n") == 1


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 2

    def test_json_csv_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["spectrum", "--json", "--csv"])
        assert exc_info.value.code == 2

    def test_command_required(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["search", "--degree", "-1"],
        ["verify", "--n-t", "0"],
        ["identity", "--samples", "0"],
        ["search", "--tol", "nan"],
    ])
    def test_out_of_range_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument " + argv[1] in err
        assert "Traceback" not in err

    def test_degree_too_large_for_memory_is_usage_error(self, capsys):
        # the 100000008-node rule needs a 71 PiB matrix, refused at once
        code, out, err = run_cli(capsys, ["spectrum", "--degree", "100000000"])
        assert code == 2 and out == ""
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1

    def test_out_of_range_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SEL_DEGREE", "-1")
        with pytest.raises(SystemExit) as exc_info:
            main(["search"])
        assert exc_info.value.code == 2
        assert "SEL_DEGREE" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["search", "--init", "zonal", "--degree", "0"],
        ["verify", "--n-t", "2", "--degree", "8"],
    ])
    def test_inconsistent_flags_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")
