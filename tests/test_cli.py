import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hardywaves
from hardywaves import cli, errors, stability, unit_ball_volume
from hardywaves.cli import main


def run_cli(args):
    return main(args)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def read_json(path):
    # strict: NaN and Infinity are Python's extension, not JSON
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


SMALL_GRID = ["--n", "512", "--r-min", "1e-4", "--r-max", "30"]


def test_ground_state_command(tmp_path):
    out = tmp_path / "gs"
    code = run_cli(["ground-state", *SMALL_GRID, "--tol", "1e-8", "--outdir", str(out)])
    assert code == 0
    summary = read_json(out / "ground_state_summary.json")
    assert summary["residual"] < 1e-8
    assert summary["v0"] > 0.0
    # the written v0 is the one Lambda_origin is computed from, bit for bit
    N = 3
    lam_origin = 0.5 * N * (N - 2) * unit_ball_volume(N) * summary["v0"] ** 2
    assert summary["Lambda_origin"] == lam_origin
    assert len(summary["config_sha256"]) == 64
    assert summary["version"]
    profile = (out / "ground_state_profile.csv").read_text().splitlines()
    assert profile[0].startswith("# config_sha256=")
    assert profile[1] == "r,v,u"
    assert len(profile) == 2 + 512


def test_ground_state_summary_keys_are_the_documented_ones(tmp_path):
    # the energy block is written from the energy report's fields, so a
    # field added there would change the file: pin the keys to FORMATS.md
    text = (Path(__file__).resolve().parents[1] / "FORMATS.md").read_text(encoding="utf-8")
    paragraph = re.search(r"`ground_state_summary.json`: keys: (.*?)\n\n", text, re.S)[1]
    assert run_cli(["ground-state", *SMALL_GRID, "--outdir", str(tmp_path)]) == 0
    summary = read_json(tmp_path / "ground_state_summary.json")
    assert set(summary) == set(re.findall(r"`(\w+)`", paragraph))


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


@pytest.mark.parametrize("write, message", [
    (None, "not found"),
    ("[1, 2]", "JSON object"),
], ids=["missing", "not-an-object"])
def test_missing_or_non_object_config_exit_1(write, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if write is not None:
        cfg.write_text(write)
    out = tmp_path / "out"
    assert run_cli(["check", "weight", "--config", str(cfg), "--outdir", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_directory_exit_1(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(["check", "weight", "--config", str(tmp_path), "--outdir", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_non_utf8_config_exit_1(tmp_path, capsys):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes('{"N": 3, "note": "\u00e9"}'.encode("latin-1"))
    out = tmp_path / "out"
    code = run_cli(["check", "weight", "--config", str(cfg), "--outdir", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_outdir_naming_a_file_exit_1(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("keep")
    code = run_cli(["check", "weight", "--outdir", str(target)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"] and target.read_text() == "keep"


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


def test_evolve_linear_conserves_its_energy(tmp_path):
    # a --linear run is the g == 0 problem, whose energy D/2 Crank-Nicolson
    # conserves to roundoff
    out = tmp_path / "ev"
    assert run_cli(["evolve", "--linear", "--n", "2048", "--steps", "1000",
                    "--dt", "1e-3", "--outdir", str(out)]) == 0
    assert read_json(out / "evolve_summary.json")["energy_drift"] < 1e-10


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


def test_stability_empty_delta_list_is_config_error(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"delta": []}))
    out = tmp_path / "st"
    code = run_cli(["stability", "--config", str(config), *SMALL_GRID, "--outdir", str(out)])
    assert code == 1
    assert "delta" in capsys.readouterr().err
    assert not (out / "stability_summary.json").exists()


def test_stability_negative_delta_is_rejected_before_any_run(tmp_path, capsys):
    # the list is checked before the ground-state solve, so the valid first
    # delta does not run and leave a partial output directory
    out = tmp_path / "st"
    code = run_cli(["stability", "--delta", "1e-2", "-1", "--T", "0.01", *SMALL_GRID,
                    "--outdir", str(out)])
    assert code == 1
    assert "delta" in capsys.readouterr().err
    assert list(out.glob("stability_run_*.csv")) == []


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

    monkeypatch.setattr(groundstate, "origin_intercept", lambda v, grid, N: -1.0)
    out = tmp_path / "bad_wave"
    code = run_cli(["ground-state", *SMALL_GRID, "--tol", "1e-8", "--outdir", str(out)])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err
    payload = read_json(out / "error.json")
    assert payload["error"] == "ConvergenceError"
    assert payload["diagnostics"]["v0"] == -1.0


def _flag_value(key, default):
    """(flag arguments, expected config value) for a value other than the default."""
    if isinstance(default, bool):
        return [], True
    if isinstance(default, list):
        return ["0.5", "0.25"], [0.5, 0.25]
    if key in cli._CHOICES:
        # a key with a single choice can only take that one
        value = next((c for c in reversed(cli._CHOICES[key]) if c != default), default)
        return [value], value
    if default is None:
        return ["somewhere"], "somewhere"
    value = default + type(default)(1)
    return [repr(value)], value


TABLE = [(name, key) for name, (_, defaults) in cli._COMMANDS.items() for key in defaults]


def _command_args(name):
    return [name, "hardy"] if name == "check" else [name]


@pytest.mark.parametrize("name,key", TABLE)
def test_every_table_key_is_a_flag(name, key):
    defaults = cli._COMMANDS[name][1]
    extra, expected = _flag_value(key, defaults[key])
    flag = "--" + key.replace("_", "-")
    args = cli.build_parser().parse_args([*_command_args(name), flag, *extra])
    assert cli._resolve(args, defaults)[key] == expected


@pytest.mark.parametrize("name,key", TABLE)
def test_every_table_key_is_a_config_field(name, key, tmp_path):
    defaults = cli._COMMANDS[name][1]
    _, expected = _flag_value(key, defaults[key])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: expected}))
    args = cli.build_parser().parse_args([*_command_args(name), "--config", str(config)])
    assert cli._resolve(args, defaults)[key] == expected


# config_sha256 of each command's defaults: every artifact carries it, so a
# drift in the keys, their values or the canonical JSON shows here
DEFAULT_HASHES = {
    "ground-state": "f7492db529a72fc7bcc7d04748eed27df01e4944870f5249ff851f727f3cba37",
    "evolve": "03f866f32b4ac90cdb2d9e4fa272889bcf97b9224e48f212af67799ad981fc78",
    "stability": "9e3e66024b75ea65d485af147516a879c247c97b71ada738a1d21b944f1f6c73",
    "check": "27e73ab6c9378fd3e670d662db7ff8175e6a1613ef31e5d4d7bdb61a764d4034",
    "kelvin-verify": "8c5f29acc2821962337118f00ea10eae5a141765bb728d410ef6202f2a9c3626",
}


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_default_config_hash_is_pinned(name):
    assert cli.config_hash(cli._COMMANDS[name][1]) == DEFAULT_HASHES[name]


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_other_commands_key_is_rejected(name, tmp_path, capsys):
    defaults = cli._COMMANDS[name][1]
    foreign = min(cli._KNOWN_KEYS - set(defaults) - {"which"})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({foreign: 1}))
    assert run_cli([*_command_args(name), "--config", str(config),
                    "--outdir", str(tmp_path / "out")]) == 1
    assert "not applicable" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_kelvin_verify_grading_flag(tmp_path):
    out = tmp_path / "kv"
    assert run_cli(["kelvin-verify", "--n", "256", "--samples", "2", "--grading", "log",
                    "--outdir", str(out)]) == 0
    assert read_json(out / "kelvin_verify.json")["passed"] is True


def _csv_reference(path, header, columns, meta):
    """The row-at-a-time writer: csv.writer rows of _fmt-formatted floats."""
    import csv

    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_sha256={meta['config_sha256']} version={meta['version']}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([cli._fmt(x) for x in row])


@pytest.mark.parametrize("rows", [1, 1023, 1024, 1025])
def test_write_csv_matches_csv_writer_reference(rows, tmp_path):
    # block edges of the writer, and values whose spelling is easy to get wrong
    rng = np.random.default_rng(rows)
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 1.0 / 3.0, -2.5e-17]
    columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
               for _ in range(3)]
    for k, col in enumerate(columns):
        idx = rng.integers(0, rows, len(special))
        col[idx] = np.roll(special, k)
    columns.append(np.arange(rows, dtype=float))
    meta = {"config_sha256": "0" * 64, "version": "test"}
    header = ["a", "b", "c", "index"]
    cli._write_csv(tmp_path / "fast.csv", header, columns, meta)
    _csv_reference(tmp_path / "ref.csv", header, columns, meta)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


# exact ties, carries into an 18th digit, the %g switch points, the ends of the
# kernel's range and the values it leaves to Python's formatter
EDGE_VALUES = np.concatenate([
    [2.0**-25, 3 * 2.0**-25, 9.9999999999999999e22, 99999999999999999.0, 1e-14, 1e98],
    _neighbours([1e-5, 1e-4, 1e16, 1e17, 1e-280, 1e280]),
    [5e-324, 0.0, -0.0, np.nan, np.inf, -np.inf],
])


def _write_both(tmp_path, columns):
    meta = {"config_sha256": "0" * 64, "version": "test"}
    header = [f"c{k}" for k in range(len(columns))]
    cli._write_csv(tmp_path / "fast.csv", header, columns, meta)
    _csv_reference(tmp_path / "ref.csv", header, columns, meta)
    return (tmp_path / "fast.csv").read_bytes(), (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("rows", [2047, 2048, 2049])
def test_write_csv_edge_values_match_reference(rows, tmp_path):
    # random bit patterns cover every exponent, nan payloads and subnormals
    rng = np.random.default_rng(rows)
    table = rng.integers(0, 2**64, (rows, 3), dtype=np.uint64).view(np.float64)
    edges = np.concatenate([EDGE_VALUES, -EDGE_VALUES])
    table.ravel()[rng.choice(table.size, len(edges), replace=False)] = edges
    fast, ref = _write_both(tmp_path, list(table.T))
    assert fast == ref


def test_write_csv_edge_spellings(tmp_path):
    spelled = {
        2.0**-25: b"2.9802322387695312e-08",  # exact ties, rounded half-even
        3 * 2.0**-25: b"8.9406967163085938e-08",
        9.9999999999999999e22: b"9.9999999999999992e+22",
        99999999999999999.0: b"1e+17",
        1e-14: b"1e-14",  # these two lie just below 10**k: 17 nines round up, a carry
        1e98: b"1e+98",
        1e-5: b"1.0000000000000001e-05",
        1e-4: b"0.0001",
        1e16: b"10000000000000000",
        -1e17: b"-1e+17",
        1e-280: b"9.9999999999999996e-281",
        1e280: b"1e+280",
    }
    fast, ref = _write_both(tmp_path, [np.array(list(spelled))])
    assert fast == ref
    assert fast.split(b"\r\n")[1:-1] == list(spelled.values())


def test_write_csv_fallback_row_leaves_its_block_alone(tmp_path):
    # one row of a full block falls back to Python's formatter (an exact tie);
    # every other row keeps the bytes it has without it
    rng = np.random.default_rng(5)
    columns = [rng.standard_normal(2048) * 10.0 ** rng.integers(-20, 20, 2048) for _ in range(3)]
    before, _ = _write_both(tmp_path, columns)
    columns[1][1000] = 2.0**-25
    after, ref = _write_both(tmp_path, columns)
    assert after == ref
    lines_before, lines_after = before.split(b"\r\n"), after.split(b"\r\n")
    changed = [k for k, (a, b) in enumerate(zip(lines_before, lines_after)) if a != b]
    assert changed == [1001]  # the header is line 0 after the comment line
    assert b",2.9802322387695312e-08," in lines_after[1001]


def _spy_on_csv(monkeypatch):
    calls = []
    write = cli._write_csv

    def spy(path, header, columns, meta):
        calls.append((path, header, [np.array(c, dtype=float) for c in columns], meta))
        write(path, header, columns, meta)

    monkeypatch.setattr(cli, "_write_csv", spy)
    return calls


@pytest.mark.parametrize("argv", [
    ["ground-state", "--n", "2100", "--r-min", "1e-4", "--r-max", "30", "--tol", "1e-8"],
    ["evolve", "--linear", *SMALL_GRID, "--steps", "40"],
], ids=["ground-state", "evolve-linear"])
def test_cli_csv_equals_reference_writer(argv, tmp_path, monkeypatch):
    calls = _spy_on_csv(monkeypatch)
    assert run_cli([*argv, "--outdir", str(tmp_path / "out")]) == 0
    [(path, header, columns, meta)] = calls
    _csv_reference(tmp_path / "ref.csv", header, columns, meta)
    written = path.read_bytes()
    assert written == (tmp_path / "ref.csv").read_bytes()
    if argv[0] == "evolve":  # the t = 0 row: t and both drifts are exact zeros
        first = written.split(b"\r\n")[1]
        assert first.startswith(b"0,") and first.endswith(b",0,0")


def test_main_reuses_one_parser_across_commands(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    weight = ["check", "weight", "--outdir"]
    assert run_cli([*weight, str(tmp_path / "a")]) == 0
    assert run_cli([*weight, str(tmp_path / "b"), "--omega-zero", "0.1"]) == 0
    assert run_cli(["kelvin-verify", "--n", "256", "--samples", "2",
                    "--outdir", str(tmp_path / "kv")]) == 0
    assert run_cli([*weight, str(tmp_path / "c")]) == 0
    # no flag of an earlier call carries over into a later one
    first, second, third = (
        (tmp_path / d / "check_weight.json").read_bytes() for d in "abc")
    assert first == third != second
    assert read_json(tmp_path / "kv" / "kelvin_verify.json")["passed"] is True
    # a usage error after successful calls is still exit 1, and the parser still works
    assert run_cli(["evolve", "--no-such-flag"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert run_cli([*weight, str(tmp_path / "d")]) == 0
    assert (tmp_path / "d" / "check_weight.json").read_bytes() == first


def test_write_csv_spells_every_special_value(tmp_path):
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300])
    meta = {"config_sha256": "0" * 64, "version": "test"}
    cli._write_csv(tmp_path / "fast.csv", ["x"], [values], meta)
    _csv_reference(tmp_path / "ref.csv", ["x"], [values], meta)
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "ref.csv").read_bytes()
    assert fast.split(b"\n", 1)[1] == (b"x\r\nnan\r\ninf\r\n-inf\r\n-0\r\n"
                                         b"4.9406564584124654e-324\r\n1.0000000000000001e+300\r\n")


@pytest.mark.parametrize("which, argv", [
    *((which, ["--N", "2"]) for which in ("hardy", "ckn", "ihs", "weight")),
    # weight reads no grid, but a bad one is still a config error
    ("weight", ["--n", "8"]),
    ("weight", ["--r-min", "5", "--r-max", "1"]),
    # a non-finite exponent has no weight
    ("weight", ["--omega-zero", "nan"]),
    ("weight", ["--omega-inf", "inf"]),
], ids=["hardy", "ckn", "ihs", "weight", "weight-n-8", "weight-r-min-above-r-max",
        "weight-omega-zero-nan", "weight-omega-inf-inf"])
def test_check_rejects_bad_dimension(which, argv, tmp_path, capsys):
    # N = 2 used to reach critical_exponent and divide by zero in ihs and weight
    out = tmp_path / "check"
    assert run_cli(["check", which, "--n", "256", "--samples", "2", *argv,
                    "--outdir", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (out / f"check_{which}.json").exists()


@pytest.mark.parametrize("N", ["1", "2"])
def test_kelvin_verify_rejects_bad_dimension(N, tmp_path, capsys):
    out = tmp_path / "kv"
    assert run_cli(["kelvin-verify", "--N", N, "--n", "256", "--samples", "2",
                    "--outdir", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (out / "kelvin_verify.json").exists()


def test_strang_scheme_flag_is_rejected(tmp_path, capsys):
    out = tmp_path / "ev"
    assert run_cli(["evolve", *SMALL_GRID, "--steps", "4", "--scheme", "strang-splitting",
                    "--outdir", str(out)]) == 1
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,fields", [
    (["evolve", "--steps", "4"], {"scheme": "strang-splitting"}),
    # at delta = 0 no perturbation is built, so nothing else looks at the kind
    (["stability", "--T", "0.01"], {"kind": "no-such-kind", "delta": [0.0]}),
    (["ground-state"], {"grading": "cubic"}),
], ids=["scheme", "kind", "grading"])
def test_config_file_choice_is_checked(command, fields, tmp_path, capsys):
    # only argparse checked the choices of flags; a file value went through
    config = tmp_path / "config.json"
    config.write_text(json.dumps(fields))
    out = tmp_path / "out"
    assert run_cli([*command, *SMALL_GRID, "--config", str(config), "--outdir", str(out)]) == 1
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,fields", [
    (["evolve"], {"steps": 100.0}),
    (["ground-state"], {"n": 256.0}),
    (["check", "hardy"], {"samples": 3.0}),
    (["ground-state"], {"N": 3.0}),
    (["ground-state"], {"max_iter": 5e4}),
    (["evolve", "--steps", "4"], {"linear": 1}),
    (["check", "weight"], {"q": True}),
    (["stability", "--T", "0.01"], {"delta": [0.0, "0.01"]}),
    (["evolve", "--steps", "4"], {"outdir": 7}),
], ids=["steps", "n", "samples", "N", "max_iter", "linear", "bool-q", "delta", "outdir"])
def test_config_file_value_type_is_checked(command, fields, tmp_path, capsys):
    # flags were typed by argparse, file values went through as they came
    config = tmp_path / "config.json"
    config.write_text(json.dumps(fields))
    out = tmp_path / "out"
    assert run_cli([*command, *SMALL_GRID, "--config", str(config), "--outdir", str(out)]) == 1
    assert "wrong type" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_numbers_are_kept_uncoerced(tmp_path):
    # an int where a float is expected, and a bare number for delta, are accepted as is
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gamma": 2, "delta": 0}))
    args = cli.build_parser().parse_args(["stability", "--config", str(config)])
    cfg = cli._resolve(args, cli._COMMANDS["stability"][1])
    assert type(cfg["gamma"]) is int and type(cfg["delta"]) is int


def test_evolve_checkpoints_with_remainder_chunk(tmp_path):
    # 207 steps: 20 chunks of 10 and a remainder of 7, after the t = 0 row
    out = tmp_path / "ev"
    assert run_cli(["evolve", *SMALL_GRID, "--steps", "207", "--dt", "2e-3",
                    "--outdir", str(out)]) == 0
    lines = (out / "evolve_trajectory.csv").read_text().splitlines()
    assert lines[1] == "t,charge,energy,charge_drift,energy_drift"
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    assert rows.shape == (22, 5)
    steps = np.r_[0, np.arange(10, 201, 10), 207]
    assert rows[:, 0] == pytest.approx(2e-3 * steps, rel=1e-12, abs=0.0)
    assert rows[0, 3] == 0.0 and rows[0, 4] == 0.0
    summary = read_json(out / "evolve_summary.json")
    assert summary["final_time"] == rows[-1, 0]
    assert summary["charge_drift"] == np.max(rows[:, 3])
    assert summary["energy_drift"] == np.max(rows[:, 4])


@pytest.mark.parametrize("command", [["check", "hardy"], ["kelvin-verify"]],
                         ids=["check-hardy", "kelvin-verify"])
def test_empty_sample_support_is_config_error(command, tmp_path, capsys):
    # bumps are centred in [10 r_min, r_max / 10], empty when r_max / r_min < 100
    out = tmp_path / "out"
    assert run_cli([*command, "--r-min", "0.5", "--r-max", "2", "--n", "256",
                    "--samples", "2", "--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "r_max / r_min >= 100" in err
    assert not list(out.glob("*.json"))


@pytest.mark.parametrize("command", [
    ["ground-state"], ["evolve"], ["stability"], ["check", "hardy"], ["kelvin-verify"],
], ids=["ground-state", "evolve", "stability", "check", "kelvin-verify"])
def test_uniform_grading_is_invalid_choice(command, tmp_path, capsys):
    # grids are uniform in log r only: "uniform" is no choice, as a flag or
    # in a config file
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grading": "uniform"}))
    for source in (["--grading", "uniform"], ["--config", str(config)]):
        out = tmp_path / "out"
        assert run_cli([*command, *source, "--outdir", str(out)]) == 1
        assert "invalid choice" in capsys.readouterr().err
        assert not out.exists()


def test_linear_evolve_factors_the_cayley_matrix_once(tmp_path, monkeypatch):
    # the operator rides on the evolution state, so the checkpoint chunks of
    # one run share its factored linear stage
    from hardywaves import operators

    factor = operators._ZGTTRF
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(operators, "_ZGTTRF", counted)
    assert run_cli(["evolve", "--linear", *SMALL_GRID, "--steps", "45", "--dt", "1e-3",
                    "--outdir", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_dumps_json_spells_non_finite_values_as_strings():
    text = cli.dumps_json({"a": float("nan"), "b": np.inf, "c": [-np.inf, 0.1]})
    assert json.loads(text, parse_constant=_reject_constant) == {
        "a": "nan", "b": "inf", "c": ["-inf", 0.1]
    }


def test_non_finite_step_error_writes_valid_json(tmp_path, monkeypatch):
    # a Cayley solve that returns NaN leaves the midpoint iteration with a
    # NaN update and contraction ratio, which error.json must still hold
    from hardywaves.operators import RadialOperator

    monkeypatch.setattr(RadialOperator, "solve_cayley",
                        lambda self, factors, rhs: np.full_like(rhs, np.nan))
    out = tmp_path / "nan"
    assert run_cli(["evolve", *SMALL_GRID, "--steps", "1", "--outdir", str(out)]) == 2
    payload = read_json(out / "error.json")
    assert payload["error"] == "StepError"
    assert payload["diagnostics"]["last_update"] == "nan"
    assert payload["diagnostics"]["theta"] == "nan"
    assert payload["diagnostics"]["dt"] == 1e-3


@pytest.mark.parametrize("command", [
    ["check", "hardy"], ["check", "ckn"], ["check", "ihs"], ["kelvin-verify"],
], ids=["check-hardy", "check-ckn", "check-ihs", "kelvin-verify"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_empty_sample_count_is_config_error(command, samples, tmp_path, capsys):
    # no check can pass or fail on no samples
    out = tmp_path / "out"
    assert run_cli([*command, "--n", "256", "--samples", samples, "--outdir", str(out)]) == 1
    assert "sample count" in capsys.readouterr().err
    assert not list(out.glob("*.json"))


@pytest.mark.parametrize("argv", [
    ["ground-state", "--tol", "nan"],
    ["ground-state", "--tol", "-1"],
    ["ground-state", "--max-iter", "0"],
    ["ground-state", "--max-iter", "-3"],
    ["evolve", "--dt", "inf"],
    ["evolve", "--dt", "nan"],
    ["evolve", "--steps", "0"],
    ["evolve", "--steps", "-5"],
    ["stability", "--T", "nan", "--tol", "1e-8"],
    ["stability", "--T", "-1", "--tol", "1e-8"],
    ["stability", "--dt", "inf", "--tol", "1e-8"],
    ["stability", "--dt", "0", "--tol", "1e-8"],
    ["stability", "--dt", "nan", "--tol", "1e-8"],
], ids=lambda argv: " ".join(argv))
def test_bad_numeric_input_is_config_error(argv, tmp_path, monkeypatch, capsys):
    _fail_if_solved(monkeypatch)  # stability checks T and dt before its solve
    out = tmp_path / "out"
    assert run_cli([*argv, *SMALL_GRID, "--outdir", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not list(out.glob("*_summary.json")) and not list(out.glob("*.csv"))
    assert not (out / "error.json").exists()


@pytest.mark.parametrize("error, code", [
    (errors.ParameterError, 1),
    (errors.DomainError, 1),
    (errors.ShapeError, 1),
    (errors.DegenerateInputError, 1),
    (errors.ConvergenceError, 2),
    (errors.StepError, 2),
    (errors.BlowupError, 2),
], ids=lambda value: getattr(value, "__name__", str(value)))
def test_error_class_decides_exit_code(error, code, tmp_path, monkeypatch):
    # a package error that is a ValueError is bad input (exit 1, no
    # error.json); a RuntimeError one is a numerical failure (exit 2)
    def handler(cfg):
        raise error("raised by the handler")

    _, defaults = cli._COMMANDS["ground-state"]
    monkeypatch.setitem(cli._COMMANDS, "ground-state", (handler, defaults))
    out = tmp_path / "out"
    assert run_cli(["ground-state", "--outdir", str(out)]) == code
    assert (out / "error.json").exists() == (code == 2)


def _fail_if_solved(monkeypatch):
    # the solve starts by assembling the operator
    from hardywaves import groundstate

    def assemble(*args):
        raise AssertionError("the solver ran on a grid it cannot use")

    monkeypatch.setattr(groundstate, "RadialOperator", assemble)


@pytest.mark.parametrize("command, argv", [
    (["ground-state"], ["--r-min", "2", "--n", "512"]),
    (["ground-state"], ["--n", "512", "--r-min", "0.5", "--r-max", "3"]),
    (["ground-state"], ["--n", "16", "--r-min", "0.9", "--r-max", "1e4"]),
    (["stability"], ["--r-min", "2", "--n", "512"]),
], ids=["r-min-above-1", "short-fit-window", "third-node-above-1", "stability-r-min-above-1"])
def test_ground_state_input_without_origin_fit_is_config_error(command, argv, tmp_path,
                                                               monkeypatch, capsys):
    # fewer than three grid nodes below r = 1, or fewer than 4 nodes in the
    # origin fit window [10 r_min, 1000 r_min]: found before the solve
    _fail_if_solved(monkeypatch)
    out = tmp_path / "out"
    assert run_cli([*command, *argv, "--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and ("below r = 1" in err or "fit window" in err)
    assert not (out / "error.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["check", "ihs", "--n", "2048", "--r-min", "1e-200", "--r-max", "50", "--samples", "3"],
     "normal doubles"),
    (["check", "ihs", "--n", "2048", "--r-min", "1e-6", "--r-max", "1e160", "--samples", "3"],
     "normal doubles"),
    (["ground-state", "--N", "400", "--q", "2.005", "--n", "256", "--r-min", "1e-4",
      "--r-max", "30"], "unit-ball volume"),
], ids=["weights-underflow", "weights-overflow", "unit-ball-overflow"])
def test_unrepresentable_input_is_config_error(argv, message, tmp_path, capsys):
    # grid weights that are not normal doubles made every integral read 0 or
    # nan, so check ihs passed with min_ratio inf; N = 400 overflowed
    # math.gamma and raised out of main
    out = tmp_path / "out"
    assert run_cli([*argv, "--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not list(out.rglob("*"))


def test_error_json_carries_the_stamp(tmp_path):
    # error.json is stamped like every other file, so identical failing runs
    # write identical bytes
    written = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["ground-state", *SMALL_GRID, "--tol", "1e-30", "--max-iter", "3",
                        "--outdir", str(out)]) == 2
        written.append((out / "error.json").read_bytes())
    payload = read_json(tmp_path / "a" / "error.json")
    assert re.fullmatch("[0-9a-f]{64}", payload["config_sha256"])
    assert payload["version"] == hardywaves.__version__
    assert written[0] == written[1]


def test_failed_run_leaves_only_error_json(tmp_path, monkeypatch):
    # the delta = 0.02 run fails, in a worker process or here: the first
    # run's CSV is not written either, and error.json carries the failing
    # run's diagnostics
    run = stability.stability_experiment

    def fails_at_002(sw, delta, **kwargs):
        if delta == 0.02:
            raise errors.StepError("the 0.02 run failed", diagnostics={"delta": delta})
        return run(sw, delta, **kwargs)

    monkeypatch.setattr(stability, "stability_experiment", fails_at_002)
    out = tmp_path / "out"
    assert run_cli(["stability", *SMALL_GRID, "--delta", "0.01", "0.02", "--T", "0.02",
                    "--dt", "2e-3", "--outdir", str(out)]) == 2
    assert [p.name for p in out.iterdir()] == ["error.json"]
    payload = read_json(out / "error.json")
    assert payload["error"] == "StepError" and payload["message"] == "the 0.02 run failed"
    assert payload["diagnostics"] == {"delta": 0.02}


@pytest.mark.parametrize("code, argv, err", [
    (0, ["--T", "0.02", "--dt", "2e-3", "--delta", "0.01", "0.02"], ""),
    (1, ["--T", "0.02", "--dt", "2e-3", "--delta", "0.01", "1e160"],
     "config error: delta = 1e+160 gives the perturbed field mass inf\n"),
    (2, ["--T", "1", "--dt", "100", "--delta", "0.5", "1"],
     "numerical failure: Crank-Nicolson midpoint iteration did not converge\n"),
], ids=["exit-0", "exit-1", "exit-2"])
def test_stability_leaves_no_process_or_output_behind(code, argv, err, tmp_path, capfd):
    # the delta runs may go to worker processes: whatever the exit code,
    # every one has been reaped, and nothing but main's line is printed
    import multiprocessing

    assert run_cli(["stability", "--n", "256", "--r-min", "1e-4", "--r-max", "30", *argv,
                    "--outdir", str(tmp_path)]) == code
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert tuple(capfd.readouterr()) == ("", err)


def test_step_count_above_bound_is_config_error(tmp_path, monkeypatch, capsys):
    # T / dt = 1e203 is finite, and the run went on for practical eternity
    _fail_if_solved(monkeypatch)
    out = tmp_path / "out"
    assert run_cli(["stability", "--n", "256", "--r-min", "1e-4", "--r-max", "30",
                    "--T", "1e200", "--dt", "1e-3", "--outdir", str(out)]) == 1
    assert "config error: T / dt must be finite and at most 1e+09" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_evolve_step_count_above_bound_is_config_error(tmp_path, monkeypatch, capsys):
    # 1e14 steps had no bound and ran for practical eternity
    from hardywaves import evolve

    def propagate(*args, **kwargs):
        raise AssertionError("evolve propagated a step count it cannot finish")

    monkeypatch.setattr(evolve, "propagate", propagate)
    out = tmp_path / "out"
    assert run_cli(["evolve", "--n", "256", "--r-min", "1e-4", "--r-max", "30", "--linear",
                    "--steps", "100000000000000", "--dt", "1e-3", "--outdir", str(out)]) == 1
    assert "config error: steps must be between 1 and 1e+09" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_overflowing_step_count_is_config_error(tmp_path, monkeypatch, capsys):
    # T / (100 dt) = inf used to overflow the step count after the solve
    _fail_if_solved(monkeypatch)
    out = tmp_path / "out"
    assert run_cli(["stability", *SMALL_GRID, "--T", "1e308", "--dt", "1e-10",
                    "--outdir", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_overflowing_delta_is_config_error(tmp_path, capsys):
    # a perturbed mass of inf used to renormalise the field to zero and end
    # in a ZeroDivisionError, after the first run's file was written
    out = tmp_path / "out"
    assert run_cli(["stability", *SMALL_GRID, "--delta", "0.01", "1e160", "--T", "0.02",
                    "--dt", "2e-3", "--outdir", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_log_weight_support_message_names_its_bound(tmp_path, capsys):
    # r_max / r_min = 500 clears the ensemble's 100 but not the log-weight
    # support's 100 e^2
    out = tmp_path / "out"
    assert run_cli(["check", "ihs", "--h-kind", "log-weight", "--r-min", "1e-3",
                    "--r-max", "0.5", "--n", "256", "--samples", "2",
                    "--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "r_max / r_min >= 738.9" in err
    assert not list(out.glob("*.json"))


# one small run of each command in a fresh interpreter, then the scipy
# packages that would double a process's start-up, and the process pool's
# modules, which only a multi-delta stability call needs, must still be unloaded
_EVERY_COMMAND = """
import json, sys
from hardywaves import cli
out = sys.argv[1]
grid = ["--n", "256", "--r-min", "1e-4", "--r-max", "30"]
for k, argv in enumerate([
    ["ground-state", *grid],
    ["evolve", "--linear", *grid, "--steps", "5", "--dt", "1e-3"],
    ["stability", *grid, "--delta", "1e-2", "--T", "0.1", "--dt", "1e-3"],
    ["check", "hardy", *grid, "--samples", "2"],
    ["kelvin-verify", "--n", "256", "--samples", "2"],
]):
    assert cli.main([*argv, "--outdir", f"{out}/{k}"]) == 0, argv
unloaded = ("scipy.linalg", "scipy._lib._array_api", "concurrent.futures", "multiprocessing")
print(json.dumps([m for m in unloaded if m in sys.modules]))
"""


def test_commands_do_not_import_scipy_linalg(tmp_path):
    src = str(Path(hardywaves.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _EVERY_COMMAND, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
