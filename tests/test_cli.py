import json
from pathlib import Path

import numpy as np
import pytest

from hardywaves.cli import main


def run_cli(args):
    return main(args)


def read_json(path):
    return json.loads(Path(path).read_text())


SMALL_GRID = ["--n", "512", "--r-min", "1e-4", "--r-max", "30"]


def test_ground_state_command(tmp_path):
    out = tmp_path / "gs"
    code = run_cli(["ground-state", *SMALL_GRID, "--tol", "1e-8", "--outdir", str(out)])
    assert code == 0
    summary = read_json(out / "ground_state_summary.json")
    assert summary["residual"] < 1e-8
    assert summary["v0"] > 0.0
    assert len(summary["config_sha256"]) == 64
    assert summary["version"]
    profile = (out / "ground_state_profile.csv").read_text().splitlines()
    assert profile[0].startswith("# config_sha256=")
    assert profile[1] == "r,v,u"
    assert len(profile) == 2 + 512


def test_cli_determinism_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["check", "hardy", "--samples", "20", "--seed", "42",
                        "--n", "1024", "--outdir", str(out)]) == 0
        outs.append((out / "check_hardy.json").read_bytes())
    assert outs[0] == outs[1]


def test_cli_ground_state_determinism(tmp_path):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["ground-state", *SMALL_GRID, "--outdir", str(out)]) == 0
        blobs.append(
            (out / "ground_state_summary.json").read_bytes()
            + (out / "ground_state_profile.csv").read_bytes()
        )
    assert blobs[0] == blobs[1]


def test_malformed_config_exit_1(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"mass_target": 2.0}))
    code = run_cli(["ground-state", "--config", str(cfg), "--outdir", str(tmp_path)])
    assert code == 1
    assert "mass_target" in capsys.readouterr().err


def test_invalid_json_config_exit_1(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code = run_cli(["evolve", "--config", str(cfg), "--outdir", str(tmp_path)])
    assert code == 1
    assert "JSON" in capsys.readouterr().err


def test_out_of_range_q_for_stability_exit_1(tmp_path, capsys):
    code = run_cli(["stability", "--q", "5", "--outdir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "q" in err


def test_check_determinism_with_seed(tmp_path):
    paths = []
    for name in ("x", "y"):
        out = tmp_path / name
        assert run_cli(["check", "ckn", "--samples", "10", "--seed", "42",
                        "--n", "1024", "--outdir", str(out)]) == 0
        paths.append((out / "check_ckn.json").read_bytes())
    assert paths[0] == paths[1]


def test_check_weight_command(tmp_path):
    out = tmp_path / "w"
    assert run_cli(["check", "weight", "--omega-zero", "0", "--omega-inf", "-2",
                    "--outdir", str(out)]) == 0
    payload = read_json(out / "check_weight.json")
    assert payload["admissible"] is True
    assert payload["threshold"] == -1.5


def test_evolve_linear_final_error(tmp_path):
    out = tmp_path / "ev"
    assert run_cli(["evolve", "--linear", "--n", "2048", "--steps", "250",
                    "--dt", "1e-3", "--outdir", str(out)]) == 0
    summary = read_json(out / "evolve_summary.json")
    assert summary["final_error"] < 1e-3
    assert summary["charge_drift"] < 1e-10


def test_stability_delta_zero_control(tmp_path):
    out = tmp_path / "st"
    assert run_cli(["stability", "--delta", "0", "--T", "2", "--dt", "1e-3",
                    "--n", "1024", "--r-min", "1e-5", "--tol", "1e-8",
                    "--outdir", str(out)]) == 0
    rows = (out / "stability_run_0.csv").read_text().splitlines()[2:]
    distances = np.array([float(r.split(",")[1]) for r in rows])
    assert distances.max() < 1e-6
    summary = read_json(out / "stability_summary.json")
    assert summary["runs"][0]["max_distance"] < 1e-6


def test_numerical_failure_writes_error_json(tmp_path):
    out = tmp_path / "fail"
    code = run_cli(["ground-state", *SMALL_GRID, "--tol", "1e-30",
                    "--max-iter", "30", "--outdir", str(out)])
    assert code == 2
    payload = read_json(out / "error.json")
    assert payload["error"] == "ConvergenceError"
    assert "residual" in payload["diagnostics"]


def test_numerical_failure_error_json_in_config_outdir(tmp_path, monkeypatch):
    # an outdir given only in the config file receives error.json too
    out = tmp_path / "from_config"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"outdir": str(out)}))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.delenv("HARDYWAVES_OUTDIR", raising=False)
    code = run_cli(["ground-state", *SMALL_GRID, "--tol", "1e-30",
                    "--max-iter", "30", "--config", str(config)])
    assert code == 2
    assert read_json(out / "error.json")["error"] == "ConvergenceError"
    assert not (cwd / "error.json").exists()


def test_default_config_ground_state(tmp_path):
    # the out-of-the-box run: default grid, tol 1e-6
    out = tmp_path / "default"
    assert run_cli(["ground-state", "--outdir", str(out)]) == 0
    summary = read_json(out / "ground_state_summary.json")
    assert summary["residual"] < 1e-6
    assert abs(summary["origin_exponent"] + 0.5) < 0.05


def test_unknown_subcommand_exit_1(capsys):
    assert run_cli(["frobnicate"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_seventeen_digit_floats(tmp_path):
    out = tmp_path / "digits"
    assert run_cli(["check", "weight", "--omega-zero", "0.1", "--omega-inf", "-2.3",
                    "--outdir", str(out)]) == 0
    text = (out / "check_weight.json").read_text()
    payload = json.loads(text)  # valid JSON with plain numbers
    assert isinstance(payload["threshold"], float)
    # a 17-significant-digit rendering of 1/3-like values appears verbatim
    assert format(payload["lq_quadrature"], ".17g") in text


def test_invalid_solver_wave_is_numerical_failure(tmp_path, monkeypatch, capsys):
    # a flow result with a nonpositive origin value breaks a StandingWave
    # invariant: exit 2 with error.json, not the exit 1 of a config error
    import hardywaves.groundstate as groundstate

    monkeypatch.setattr(groundstate, "_origin_value", lambda v, grid, N: -1.0)
    out = tmp_path / "bad_wave"
    code = run_cli(["ground-state", *SMALL_GRID, "--tol", "1e-8", "--outdir", str(out)])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err
    payload = read_json(out / "error.json")
    assert payload["error"] == "ConvergenceError"
    assert payload["diagnostics"]["v0"] == -1.0
