"""Batch command-line surface.

Subcommands: ground-state, evolve, stability, check {hardy|ckn|weight|ihs},
kelvin-verify.  A run is configured by a JSON document (--config) plus flag
overrides; the resolved configuration is hashed (sha256) and embedded,
together with the package version, in every output file.  Scalars go to
JSON, array data to CSV, all floats with 17 significant digits, so repeated
runs with identical configurations are byte-identical.  The CSV writer
computes those 17 digits itself, exactly, and hands any value it cannot
settle to Python's formatter.

Each command maps the resolved configuration to its files; ``main`` alone
writes them, stamp included, and only once the command has succeeded.

Exit codes: 0 success, 1 configuration or usage error (a package error that
is a ValueError counts as one; no file is written), 2 numerical failure (only
an error JSON with diagnostics is written in the output directory).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .checks import WeightSpec, check_ckn, check_hardy, check_ihs, check_weight_condition
from .csvrows import BLOCK_ROWS, csv_rows
from .errors import HardyWavesError, ParameterError
from .evolve import _MAX_STEPS, _checkpoints, initial_state
from .groundstate import fit_origin, normalized_gradient_flow, origin_fit_window
from .kelvin import kelvin_verify
from .radial import Field, Params, build_grid, check_dimension, to_u
from .stability import PERTURBATION_KINDS, _experiments, check_run

OUTDIR_ENV = "HARDYWAVES_OUTDIR"


class CLIUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); our contract says 1
        raise CLIUsageError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


_FLOAT_MARK = "\x00f:"


def _mark_floats(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        # JSON has no non-finite numbers: they become the strings "nan", "inf", "-inf"
        return f"{_FLOAT_MARK}{_fmt(obj)}\x00" if np.isfinite(obj) else _fmt(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _mark_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_mark_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_mark_floats(v) for v in obj.tolist()]
    return obj


def dumps_json(obj) -> str:
    """Deterministic JSON with finite floats at 17 significant digits."""
    text = json.dumps(_mark_floats(obj), sort_keys=True, indent=2)
    # json.dumps escapes the NUL marker bytes with unicode escapes
    return re.sub(r'"\\u0000f:([^"\\]*)\\u0000"', r"\1", text) + "\n"


def config_hash(config: dict) -> str:
    """Hash of the resolved scientific configuration (output path excluded)."""
    payload = {k: v for k, v in config.items() if k != "outdir"}
    return hashlib.sha256(dumps_json(payload).encode()).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(dumps_json(payload), encoding="utf-8")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray], meta: dict) -> None:
    # rows end in \r\n as csv.writer's do; every float is spelled "%.17g" % x, i.e. _fmt(x)
    table = np.column_stack(columns).astype(float, copy=False)
    with path.open("wb") as fh:
        fh.write(f"# config_sha256={meta['config_sha256']} version={meta['version']}\n".encode())
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, len(table), BLOCK_ROWS):
            fh.write(csv_rows(table[start:start + BLOCK_ROWS]))


# ---------------------------------------------------------------------------
# configuration plumbing


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CLIUsageError(f"config file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise CLIUsageError(f"config file cannot be read: {exc}")
    except json.JSONDecodeError as exc:
        raise CLIUsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise CLIUsageError("config file must contain a JSON object")
    return raw


def _has_default_type(val, default) -> bool:
    """Whether a config-file value, uncoerced, has the type of its key's default."""
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    if isinstance(default, bool):
        return isinstance(val, bool)
    if isinstance(default, int):
        return number and isinstance(val, int)
    if isinstance(default, float):
        return number
    if isinstance(default, list):
        return number or (isinstance(val, list) and all(_has_default_type(x, 0.0) for x in val))
    return isinstance(val, str)  # string keys, and outdir (default None)


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults <- config file <- explicit flags; reject unknown keys.

    The output directory is --outdir, else the config file's ``outdir``,
    else $HARDYWAVES_OUTDIR, else the working directory.
    """
    file_cfg = _load_config_file(args.config)
    for key in file_cfg:
        if key not in _KNOWN_KEYS:
            raise CLIUsageError(f"unknown config field: {key}")
    cfg = dict(defaults)
    cfg.update({k: v for k, v in file_cfg.items() if k in defaults})
    extra = set(file_cfg) - set(defaults)
    if extra:
        raise CLIUsageError(
            f"config field(s) {sorted(extra)} not applicable to this command"
        )
    for key, val in file_cfg.items():
        if key in _CHOICES and val not in _CHOICES[key]:
            raise CLIUsageError(f"invalid choice {val!r} for {key}; choose from {_CHOICES[key]}")
        if not _has_default_type(val, defaults[key]):
            raise CLIUsageError(f"config field {key} has the wrong type: {val!r}")
    for key in defaults:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    if cfg.get("outdir") is None:
        cfg["outdir"] = os.environ.get(OUTDIR_ENV, ".")
    return cfg


def _params_from(cfg: dict) -> Params:
    return Params(N=cfg["N"], q=cfg["q"], gamma=cfg["gamma"])


def _grid_from(cfg: dict):
    return build_grid(cfg["n"], cfg["r_min"], cfg["r_max"])


# ---------------------------------------------------------------------------
# subcommands: each maps the resolved config to its files, by name, with a
# dict for a JSON file and a (header, columns) pair for a CSV one; main writes
# them.  A handler's docstring is its --help line


def _cmd_ground_state(cfg: dict) -> dict:
    """solve the constrained minimisation"""
    params = _params_from(cfg)
    grid = _grid_from(cfg)
    origin_fit_window(grid)  # checked before the solve, so bad input fails at once
    sw = normalized_gradient_flow(params, grid, tol=cfg["tol"], max_iter=cfg["max_iter"])
    u = to_u(sw.v, params.N)
    profile = (["r", "v", "u"], [grid.nodes, np.real(sw.v.values), np.real(u.values)])
    summary = {
        "gamma": sw.gamma,
        "lambda": sw.lam,
        **asdict(sw.energies),
        "residual": sw.residual,
        "iterations": sw.iterations,
        "v0": sw.v0,
        "origin_exponent": fit_origin(u, params.N)[0],
        "Lambda_origin": sw.Lambda_origin,
    }
    return {"ground_state_profile.csv": profile, "ground_state_summary.json": summary}


def _free_gaussian(grid, t: float) -> np.ndarray:
    z = 1.0 + 2.0j * t
    return np.exp(-grid.nodes**2 / (2.0 * z)) / z


def _cmd_evolve(cfg: dict) -> dict:
    """propagate a Gaussian in the transformed variable"""
    steps = cfg["steps"]
    if not 1 <= steps <= _MAX_STEPS:
        raise ParameterError(f"steps must be between 1 and {_MAX_STEPS:.0e}, got {steps}")
    grid = _grid_from(cfg)
    v0 = Field(values=np.exp(-grid.nodes**2 / 2.0).astype(complex), grid=grid)
    params = _params_from(cfg)
    if cfg["linear"]:  # the g == 0 problem, whose energy D/2 the scheme conserves
        params = replace(params, weight=np.zeros_like)
    state = initial_state(v0, params)
    chunk = max(steps // 20, 1)  # 20 checkpoints, and one more for a remainder
    chunks = [min(chunk, steps - done) for done in range(0, steps, chunk)]
    rows = [(0.0, state.charge0, state.energy0, 0.0, 0.0)]
    for state, *values in _checkpoints(state, cfg["dt"], chunks):
        rows.append((state.time, *values))
    columns = list(np.array(rows).T)
    summary = {
        "final_time": state.time,
        "charge_drift": float(np.max(columns[3])),
        "energy_drift": float(np.max(columns[4])),
        "scheme": cfg["scheme"],
        "linear": cfg["linear"],
    }
    if cfg["linear"]:
        exact = _free_gaussian(grid, state.time)
        summary["final_error"] = float(np.max(np.abs(state.v.values - exact)))
    header = ["t", "charge", "energy", "charge_drift", "energy_drift"]
    return {"evolve_trajectory.csv": (header, columns), "evolve_summary.json": summary}


def _cmd_stability(cfg: dict) -> dict:
    """perturb a standing wave and track orbit distance"""
    params = _params_from(cfg)
    params.require_subcritical("the stability command")
    deltas = cfg["delta"] if isinstance(cfg["delta"], (list, tuple)) else [cfg["delta"]]
    check_run(deltas, cfg["T"], cfg["dt"])  # before the ground-state solve, so it fails at once
    grid = _grid_from(cfg)
    sw = normalized_gradient_flow(params, grid, tol=cfg["tol"])
    runs = _experiments(sw, [float(delta) for delta in deltas], cfg["kind"], cfg["T"], cfg["dt"])
    files, per_delta = {}, []
    for idx, run in enumerate(runs):
        files[f"stability_run_{idx}.csv"] = (
            ["t", "distance", "charge_drift", "energy_drift"],
            [run.times, run.distances, run.charge_drift, run.energy_drift],
        )
        per_delta.append(
            {
                "delta": run.delta,
                "max_distance": run.max_distance,
                "ratio": run.max_distance / run.delta if run.delta > 0 else None,
                "max_charge_drift": float(np.max(run.charge_drift)),
                "max_energy_drift": float(np.max(run.energy_drift)),
            }
        )
    files["stability_summary.json"] = {
        "runs": per_delta, "kind": cfg["kind"], "T": cfg["T"], "lambda": sw.lam
    }
    return files


# check's positional ``which`` -> the check, called with the resolved config
# and the grid; each returns its FORMATS.md payload, verdict included
_CHECKS = {
    "hardy": lambda cfg, grid: check_hardy(cfg["samples"], cfg["seed"], cfg["N"], grid=grid),
    "ckn": lambda cfg, grid: check_ckn(cfg["samples"], cfg["seed"], _params_from(cfg), grid=grid),
    "weight": lambda cfg, grid: check_weight_condition(
        WeightSpec(cfg["omega_zero"], cfg["omega_inf"]), cfg["N"], cfg["q"]
    ),
    "ihs": lambda cfg, grid: check_ihs(
        cfg["samples"], cfg["seed"], cfg["N"], h_kind=cfg["h_kind"], grid=grid
    ),
}


def _cmd_check(cfg: dict) -> dict:
    """run an inequality or weight-condition check"""
    check_dimension(cfg["N"])
    grid = _grid_from(cfg)  # built for weight too, so a bad grid is an error there as well
    return {f"check_{cfg['which']}.json": _CHECKS[cfg["which"]](cfg, grid)}


def _cmd_kelvin_verify(cfg: dict) -> dict:
    """involution and norm-equivalence checks"""
    check_dimension(cfg["N"])
    grid = _grid_from(cfg)
    return {"kelvin_verify.json": kelvin_verify(grid, cfg["N"], cfg["samples"], cfg["seed"])}


# ---------------------------------------------------------------------------
# command table


_SHARED_DEFAULTS = dict(N=3, q=3.0, gamma=1.0, seed=0, outdir=None,
                        n=8192, r_min=1e-6, r_max=50.0, grading="log")

# command -> (handler, defaults).  Every default key is a config field and a
# flag --key (with "_" -> "-"); the values are the ones FORMATS.md lists.
_COMMANDS = {
    "ground-state": (_cmd_ground_state, dict(_SHARED_DEFAULTS, tol=1e-6, max_iter=50000)),
    "evolve": (_cmd_evolve, dict(_SHARED_DEFAULTS, dt=1e-3, steps=1000,
                                 scheme="crank-nicolson", linear=False)),
    "stability": (_cmd_stability, dict(_SHARED_DEFAULTS, delta=[1e-2], kind="radial-bump",
                                       T=20.0, dt=1e-3, tol=1e-6)),
    "check": (_cmd_check, dict(_SHARED_DEFAULTS, seed=42, samples=1000,
                               h_kind="piecewise-quadratic", omega_zero=0.0, omega_inf=-2.0)),
    "kelvin-verify": (_cmd_kelvin_verify, dict(N=3, seed=7, samples=100, n=4096, r_min=1e-5,
                                               r_max=1e5, grading="log", outdir=None)),
}

# fixed choices of config keys
_CHOICES = {
    "grading": ("log",),  # the Hardy cells, stiffness 1/h and Kelvin dual are exact in log r
    # one scheme: Strang splitting lets the energy blow up at the singular weight
    "scheme": ("crank-nicolson",),
    "kind": PERTURBATION_KINDS,
    "h_kind": ("piecewise-quadratic", "log-weight"),
}

_KNOWN_KEYS = {"which"}.union(*(defaults for _, defaults in _COMMANDS.values()))


def _add_flag(p: _Parser, key: str, default) -> None:
    """--key, typed by the key's default; None marks an unset flag."""
    flag = "--" + key.replace("_", "-")
    if isinstance(default, bool):
        p.add_argument(flag, action="store_const", const=True)
    elif isinstance(default, list):
        p.add_argument(flag, type=float, nargs="+")
    elif key in _CHOICES:
        p.add_argument(flag, choices=_CHOICES[key])
    else:
        p.add_argument(flag, type=str if default is None else type(default))


def build_parser() -> _Parser:
    parser = _Parser(prog="hardywaves", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        if name == "check":
            p.add_argument("which", choices=tuple(_CHECKS))
        p.add_argument("--config", help="JSON config document")
        for key, default in defaults.items():
            _add_flag(p, key, default)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The one parser main uses; parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        handler, defaults = _COMMANDS[args.command]
        cfg = _resolve(args, defaults)
        if "which" in args:
            cfg["which"] = args.which
        meta = {"config_sha256": config_hash(cfg), "version": __version__}
        outdir = Path(cfg["outdir"])
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CLIUsageError(f"output directory cannot be made: {exc}")
        for name, content in handler(cfg).items():  # none written unless the command succeeded
            if isinstance(content, dict):
                _write_json(outdir / name, {**content, **meta})
            else:
                _write_csv(outdir / name, *content, meta)
        return 0
    except CLIUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HardyWavesError as exc:  # raised by a handler, so outdir exists
        if isinstance(exc, ValueError):  # Parameter, Domain, Shape, DegenerateInput
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        payload = {
            "error": type(exc).__name__,
            "message": str(exc),
            "diagnostics": exc.diagnostics,
            **meta,
        }
        _write_json(outdir / "error.json", payload)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
