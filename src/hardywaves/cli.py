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
import csv
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
from .evolve import initial_state, invariants, propagate
from .groundstate import normalized_gradient_flow, origin_behavior
from .kelvin import kelvin_verify
from .operators import RadialOperator
from .radial import Field, Params, build_grid, to_u
from .stability import stability_experiment

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


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray], meta: dict) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_sha256={meta['config_sha256']} version={meta['version']}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([_fmt(x) for x in row])


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


_KNOWN_KEYS = {
    "N", "q", "gamma", "n", "r_min", "r_max", "grading", "seed", "outdir",
    "tol", "max_iter", "dt", "steps", "scheme", "linear", "T", "delta",
    "kind", "samples", "h_kind", "omega_zero", "omega_inf", "which",
}


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults <- config file <- explicit flags; reject unknown keys."""
    file_cfg = _load_config_file(getattr(args, "config", None))
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
    for key in defaults:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    if cfg.get("outdir") is None:
        cfg["outdir"] = os.environ.get(OUTDIR_ENV, ".")
    return cfg


def _error_outdir(args: argparse.Namespace) -> Path:
    """Directory for error.json, resolved as ``_resolve`` does: --outdir, then
    the config file, then $HARDYWAVES_OUTDIR, then the working directory."""
    outdir = getattr(args, "outdir", None)
    if outdir is None:
        outdir = _load_config_file(getattr(args, "config", None)).get("outdir")
    if outdir is None:
        outdir = os.environ.get(OUTDIR_ENV, ".")
    return Path(outdir)


def _params_from(cfg: dict, weight=None) -> Params:
    return Params(N=cfg["N"], q=cfg["q"], gamma=cfg.get("gamma", 1.0), weight=weight)


def _grid_from(cfg: dict):
    return build_grid(cfg["n"], cfg["r_min"], cfg["r_max"], cfg.get("grading", "log"))


_GRID_DEFAULTS = {"n": 8192, "r_min": 1e-6, "r_max": 50.0, "grading": "log"}


def _add_common(p: _Parser, gamma: bool = True) -> None:
    p.add_argument("--config", help="JSON config document")
    p.add_argument("--N", type=int)
    p.add_argument("--q", type=float)
    if gamma:
        p.add_argument("--gamma", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--r-min", dest="r_min", type=float)
    p.add_argument("--r-max", dest="r_max", type=float)
    p.add_argument("--grading", choices=("log", "uniform"))
    p.add_argument("--seed", type=int)
    p.add_argument("--outdir")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ground_state(args) -> int:
    defaults = dict(N=3, q=3.0, gamma=1.0, seed=0, tol=1e-6, max_iter=50000,
                    outdir=None, **_GRID_DEFAULTS)
    cfg = _resolve(args, defaults)
    params = _params_from(cfg)
    grid = _grid_from(cfg)
    meta = {"config_sha256": config_hash(cfg), "version": __version__}
    outdir = Path(cfg["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)

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


def _cmd_evolve(args) -> int:
    defaults = dict(N=3, q=3.0, gamma=1.0, seed=0, dt=1e-3, steps=1000,
                    scheme="crank-nicolson", linear=False, outdir=None, **_GRID_DEFAULTS)
    cfg = _resolve(args, defaults)
    params = _params_from(cfg)
    grid = _grid_from(cfg)
    meta = {"config_sha256": config_hash(cfg), "version": __version__}
    outdir = Path(cfg["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)

    op = RadialOperator(grid, params)  # one per run: its linear-stage factors are reused
    v0 = Field(values=np.exp(-grid.nodes**2 / 2.0).astype(complex), grid=grid)
    state = initial_state(v0, params)
    nonlinear = not cfg["linear"]
    n_chunks = 20
    chunk = max(cfg["steps"] // n_chunks, 1)
    times, charges, energies = [0.0], [state.charge0], [state.energy0]
    done = 0
    while done < cfg["steps"]:
        k = min(chunk, cfg["steps"] - done)
        state = propagate(state, params, cfg["dt"], k, scheme=cfg["scheme"],
                          nonlinear=nonlinear, op=op)
        done += k
        charge, energy = invariants(state, params, op)
        times.append(state.time)
        charges.append(charge)
        energies.append(energy)
    times_a = np.array(times)
    charges_a = np.array(charges)
    energies_a = np.array(energies)
    _write_csv(
        outdir / "evolve_trajectory.csv",
        ["t", "charge", "energy", "charge_drift", "energy_drift"],
        [
            times_a,
            charges_a,
            energies_a,
            np.abs(charges_a - state.charge0) / state.charge0,
            np.abs(energies_a - state.energy0) / max(abs(state.energy0), 1e-300),
        ],
        meta,
    )
    summary = {
        "final_time": state.time,
        "charge_drift": float(np.max(np.abs(charges_a - state.charge0)) / state.charge0),
        "energy_drift": float(
            np.max(np.abs(energies_a - state.energy0)) / max(abs(state.energy0), 1e-300)
        ),
        "scheme": cfg["scheme"],
        "linear": cfg["linear"],
        **meta,
    }
    if cfg["linear"]:
        exact = _free_gaussian(grid, state.time)
        summary["final_error"] = float(np.max(np.abs(state.v.values - exact)))
    _write_json(outdir / "evolve_summary.json", summary)
    return 0


def _cmd_stability(args) -> int:
    defaults = dict(N=3, q=3.0, gamma=1.0, seed=0, delta=[1e-2], kind="radial-bump",
                    T=20.0, dt=1e-3, tol=1e-6, outdir=None, **_GRID_DEFAULTS)
    cfg = _resolve(args, defaults)
    params = _params_from(cfg)
    params.require_subcritical("the stability command")
    grid = _grid_from(cfg)
    meta = {"config_sha256": config_hash(cfg), "version": __version__}
    outdir = Path(cfg["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)

    sw = normalized_gradient_flow(params, grid, tol=cfg["tol"])
    deltas = cfg["delta"] if isinstance(cfg["delta"], (list, tuple)) else [cfg["delta"]]
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


def _cmd_check(args) -> int:
    defaults = dict(N=3, q=3.0, gamma=1.0, seed=42, samples=1000,
                    h_kind="piecewise-quadratic", omega_zero=0.0, omega_inf=-2.0,
                    outdir=None, **_GRID_DEFAULTS)
    cfg = _resolve(args, defaults)
    which = args.which
    cfg["which"] = which
    meta = {"config_sha256": config_hash(cfg), "version": __version__}
    outdir = Path(cfg["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
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
    elif which == "ihs":
        report = check_ihs(cfg["samples"], cfg["seed"], cfg["N"], h_kind=cfg["h_kind"], grid=grid)
        payload = {
            "min_ratio": report.min_ratio,
            "empirical_constant": report.empirical_constant,
            "passed": report.min_ratio > 0.0,
        }
    else:  # pragma: no cover - argparse restricts choices
        raise CLIUsageError(f"unknown check {which!r}")
    payload["n_samples"] = cfg["samples"]
    if getattr(report, "violating_sample", None) is not None:
        payload["violating_sample"] = report.violating_sample
    _write_json(outdir / f"check_{which}.json", {**payload, **meta})
    return 0


def _cmd_kelvin_verify(args) -> int:
    defaults = dict(N=3, seed=7, samples=100, n=4096, r_min=1e-5, r_max=1e5,
                    grading="log", outdir=None)
    cfg = _resolve(args, defaults)
    meta = {"config_sha256": config_hash(cfg), "version": __version__}
    outdir = Path(cfg["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    grid = _grid_from(cfg)
    report = kelvin_verify(grid, cfg["N"], cfg["samples"], cfg["seed"])
    report["passed"] = (
        report["max_involution_error"] < 1e-12 and report["max_norm_mismatch"] < 1e-6
    )
    _write_json(outdir / "kelvin_verify.json", {**report, **meta})
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="hardywaves", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ground-state", help="solve the constrained minimisation")
    _add_common(p)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.set_defaults(func=_cmd_ground_state)

    p = sub.add_parser("evolve", help="propagate a Gaussian in the transformed variable")
    _add_common(p)
    p.add_argument("--dt", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--scheme", choices=("crank-nicolson", "strang-splitting"))
    p.add_argument("--linear", action="store_const", const=True)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("stability", help="perturb a standing wave and track orbit distance")
    _add_common(p)
    p.add_argument("--delta", type=float, nargs="+")
    p.add_argument("--kind", choices=("radial-bump", "phase-ramp", "mass-preserving-deformation"))
    p.add_argument("--T", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("check", help="run an inequality or weight-condition check")
    p.add_argument("which", choices=("hardy", "ckn", "weight", "ihs"))
    _add_common(p)
    p.add_argument("--samples", type=int)
    p.add_argument("--h-kind", dest="h_kind", choices=("piecewise-quadratic", "log-weight"))
    p.add_argument("--omega-zero", dest="omega_zero", type=float)
    p.add_argument("--omega-inf", dest="omega_inf", type=float)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("kelvin-verify", help="involution and norm-equivalence checks")
    p.add_argument("--config", help="JSON config document")
    p.add_argument("--N", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--r-min", dest="r_min", type=float)
    p.add_argument("--r-max", dest="r_max", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--outdir")
    p.set_defaults(func=_cmd_kelvin_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CLIUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except CLIUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except HardyWavesError as exc:
        outdir = _error_outdir(args)
        outdir.mkdir(parents=True, exist_ok=True)
        payload = {
            "error": type(exc).__name__,
            "message": str(exc),
            "diagnostics": getattr(exc, "diagnostics", {}),
        }
        _write_json(outdir / "error.json", payload)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
