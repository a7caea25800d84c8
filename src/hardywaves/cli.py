"""Batch command-line surface.

Subcommands: ground-state, evolve, stability, check {hardy|ckn|weight|ihs},
kelvin-verify.  A run is configured by a JSON document (--config) plus flag
overrides; the resolved configuration is hashed (sha256) and embedded,
together with the package version, in every output file.  Scalars go to
JSON, array data to CSV, all floats with 17 significant digits, so repeated
runs with identical configurations are byte-identical.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical failure
(an error JSON with diagnostics is written in the output directory).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .checks import WeightSpec, check_ckn, check_hardy, check_ihs, check_weight_condition
from .errors import HardyWavesError, ParameterError
from .evolve import _checkpoints, initial_state
from .groundstate import normalized_gradient_flow, origin_behavior
from .kelvin import kelvin_verify
from .radial import Field, Params, build_grid, check_dimension, to_u
from .stability import PERTURBATION_KINDS, stability_experiment

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
        return f"{_FLOAT_MARK}{_fmt(obj)}\x00"
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
    """Deterministic JSON with floats at 17 significant digits."""
    text = json.dumps(_mark_floats(obj), sort_keys=True, indent=2)
    # json.dumps escapes the NUL marker bytes with unicode escapes
    return re.sub(r'"\\u0000f:([^"\\]*)\\u0000"', r"\1", text) + "\n"


def config_hash(config: dict) -> str:
    """Hash of the resolved scientific configuration (output path excluded)."""
    payload = {k: v for k, v in config.items() if k != "outdir"}
    return hashlib.sha256(dumps_json(payload).encode()).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(dumps_json(payload), encoding="utf-8")


_CSV_BLOCK = 1024  # rows formatted by one template


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray], meta: dict) -> None:
    # rows end in \r\n as csv.writer's do; "%.17g" % x spells _fmt(x)
    table = np.column_stack(columns).astype(float, copy=False)
    row = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_sha256={meta['config_sha256']} version={meta['version']}\n")
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(table), _CSV_BLOCK):
            block = table[start:start + _CSV_BLOCK]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# configuration plumbing


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CLIUsageError(f"config file not found: {path}")
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
    return build_grid(cfg["n"], cfg["r_min"], cfg["r_max"], cfg["grading"])


# ---------------------------------------------------------------------------
# subcommands: each gets the resolved config, the output directory and the
# hash/version stamp; its docstring is its --help line


def _cmd_ground_state(cfg: dict, outdir: Path, meta: dict) -> int:
    """solve the constrained minimisation"""
    params = _params_from(cfg)
    grid = _grid_from(cfg)
    sw = normalized_gradient_flow(params, grid, tol=cfg["tol"], max_iter=cfg["max_iter"])
    exponent, v0 = origin_behavior(sw)
    u = to_u(sw.v, params.N)
    _write_csv(
        outdir / "ground_state_profile.csv",
        ["r", "v", "u"],
        [grid.nodes, np.real(sw.v.values), np.real(u.values)],
        meta,
    )
    summary = {
        "gamma": sw.gamma,
        "lambda": sw.lam,
        "E": sw.energies.E,
        "J": sw.energies.J,
        "dirichlet_mu": sw.energies.dirichlet_mu,
        "mass_mu": sw.energies.mass_mu,
        "nonlinear": sw.energies.nonlinear,
        "residual": sw.residual,
        "iterations": sw.iterations,
        "v0": v0,
        "origin_exponent": exponent,
        "Lambda_origin": sw.Lambda_origin,
        **meta,
    }
    _write_json(outdir / "ground_state_summary.json", summary)
    return 0


def _free_gaussian(grid, t: float) -> np.ndarray:
    z = 1.0 + 2.0j * t
    return np.exp(-grid.nodes**2 / (2.0 * z)) / z


def _cmd_evolve(cfg: dict, outdir: Path, meta: dict) -> int:
    """propagate a Gaussian in the transformed variable"""
    params = _params_from(cfg)
    grid = _grid_from(cfg)
    v0 = Field(values=np.exp(-grid.nodes**2 / 2.0).astype(complex), grid=grid)
    state = initial_state(v0, params)
    steps = cfg["steps"]
    chunk = max(steps // 20, 1)  # 20 checkpoints, and one more for a remainder
    chunks = [min(chunk, steps - done) for done in range(0, steps, chunk)]
    rows = [(0.0, state.charge0, state.energy0, 0.0, 0.0)]
    for state, *values in _checkpoints(state, params, cfg["dt"], chunks, not cfg["linear"]):
        rows.append((state.time, *values))
    columns = list(np.array(rows).T)
    _write_csv(
        outdir / "evolve_trajectory.csv",
        ["t", "charge", "energy", "charge_drift", "energy_drift"],
        columns,
        meta,
    )
    summary = {
        "final_time": state.time,
        "charge_drift": float(np.max(columns[3])),
        "energy_drift": float(np.max(columns[4])),
        "scheme": cfg["scheme"],
        "linear": cfg["linear"],
        **meta,
    }
    if cfg["linear"]:
        exact = _free_gaussian(grid, state.time)
        summary["final_error"] = float(np.max(np.abs(state.v.values - exact)))
    _write_json(outdir / "evolve_summary.json", summary)
    return 0


def _cmd_stability(cfg: dict, outdir: Path, meta: dict) -> int:
    """perturb a standing wave and track orbit distance"""
    params = _params_from(cfg)
    params.require_subcritical("the stability command")
    deltas = cfg["delta"] if isinstance(cfg["delta"], (list, tuple)) else [cfg["delta"]]
    # checked before the ground-state solve, so a bad list writes no run files
    if not deltas or not all(delta >= 0.0 for delta in deltas):
        raise ParameterError(f"delta must be a nonempty list of numbers >= 0, got {deltas}")
    grid = _grid_from(cfg)
    sw = normalized_gradient_flow(params, grid, tol=cfg["tol"])
    per_delta = []
    for idx, delta in enumerate(deltas):
        run = stability_experiment(
            params, sw, float(delta), perturbation_kind=cfg["kind"], T=cfg["T"], dt=cfg["dt"]
        )
        _write_csv(
            outdir / f"stability_run_{idx}.csv",
            ["t", "distance", "charge_drift", "energy_drift"],
            [run.times, run.distances, run.charge_drift, run.energy_drift],
            meta,
        )
        per_delta.append(
            {
                "delta": float(delta),
                "max_distance": run.max_distance,
                "ratio": run.max_distance / delta if delta > 0 else None,
                "max_charge_drift": float(np.max(run.charge_drift)),
                "max_energy_drift": float(np.max(run.energy_drift)),
            }
        )
    _write_json(
        outdir / "stability_summary.json",
        {"runs": per_delta, "kind": cfg["kind"], "T": cfg["T"], "lambda": sw.lam, **meta},
    )
    return 0


def _cmd_check(cfg: dict, outdir: Path, meta: dict) -> int:
    """run an inequality or weight-condition check"""
    which = cfg["which"]
    check_dimension(cfg["N"])
    grid = _grid_from(cfg)
    if which == "hardy":
        report = check_hardy(cfg["samples"], cfg["seed"], cfg["N"], grid=grid)
        payload = {
            "min_hardy_functional": report.min_ratio,
            "max_identity_mismatch": report.empirical_constant,
            "passed": report.min_ratio >= -1e-8,
        }
    elif which == "ckn":
        report = check_ckn(cfg["samples"], cfg["seed"], _params_from(cfg), grid=grid)
        payload = {
            "empirical_constant": report.empirical_constant,
            "min_ratio": report.min_ratio,
            "passed": bool(np.isfinite(report.empirical_constant)),
        }
    elif which == "weight":
        spec = WeightSpec.from_exponents(cfg["omega_zero"], cfg["omega_inf"])
        report = check_weight_condition(spec, cfg["N"], cfg["q"])
        payload = {
            "threshold": report.threshold,
            "admissible": report.admissible,
            "admissible_zero": report.admissible_zero,
            "admissible_inf": report.admissible_inf,
            "l1_quadrature": report.l1_quadrature,
            "lq_quadrature": report.lq_quadrature,
            "integrable_sufficient": report.integrable_sufficient,
            "passed": report.admissible,
        }
        _write_json(outdir / "check_weight.json", {**payload, "n_samples": 0, **meta})
        return 0
    else:  # ihs; argparse restricts the choices
        report = check_ihs(cfg["samples"], cfg["seed"], cfg["N"], h_kind=cfg["h_kind"], grid=grid)
        payload = {
            "min_ratio": report.min_ratio,
            "empirical_constant": report.empirical_constant,
            "passed": report.min_ratio > 0.0,
        }
    payload["n_samples"] = cfg["samples"]
    if getattr(report, "violating_sample", None) is not None:
        payload["violating_sample"] = report.violating_sample
    _write_json(outdir / f"check_{which}.json", {**payload, **meta})
    return 0


def _cmd_kelvin_verify(cfg: dict, outdir: Path, meta: dict) -> int:
    """involution and norm-equivalence checks"""
    check_dimension(cfg["N"])
    if cfg["grading"] != "log":
        raise ParameterError("kelvin-verify needs grading 'log' to resolve its log-r bumps")
    grid = _grid_from(cfg)
    report = kelvin_verify(grid, cfg["N"], cfg["samples"], cfg["seed"])
    report["passed"] = (
        report["max_involution_error"] < 1e-12 and report["max_norm_mismatch"] < 1e-6
    )
    _write_json(outdir / "kelvin_verify.json", {**report, **meta})
    return 0


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

# fixed choices of config keys, and of check's positional ``which``
_CHOICES = {
    "grading": ("log", "uniform"),
    # one scheme: Strang splitting lets the energy blow up at the singular weight
    "scheme": ("crank-nicolson",),
    "kind": PERTURBATION_KINDS,
    "h_kind": ("piecewise-quadratic", "log-weight"),
    "which": ("hardy", "ckn", "weight", "ihs"),
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
            p.add_argument("which", choices=_CHOICES["which"])
        p.add_argument("--config", help="JSON config document")
        for key, default in defaults.items():
            _add_flag(p, key, default)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        handler, defaults = _COMMANDS[args.command]
        cfg = _resolve(args, defaults)
        if "which" in args:
            cfg["which"] = args.which
        meta = {"config_sha256": config_hash(cfg), "version": __version__}
        outdir = Path(cfg["outdir"])
        outdir.mkdir(parents=True, exist_ok=True)
        return handler(cfg, outdir, meta)
    except CLIUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except HardyWavesError as exc:  # raised by a handler, so outdir exists
        payload = {
            "error": type(exc).__name__,
            "message": str(exc),
            "diagnostics": exc.diagnostics,
        }
        _write_json(outdir / "error.json", payload)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
