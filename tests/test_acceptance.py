"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Expensive artifacts (default-grid standing waves)
are shared through fixtures; criteria 4, 6 and 7 use `wave8k` from conftest.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from hardywaves import (
    Field,
    Params,
    build_grid,
    check_ckn,
    check_hardy,
    check_ihs,
    check_weight_condition,
    fit_origin,
    integrate_mu,
    kelvin_verify,
    normalized_gradient_flow,
    orbit_distance,
    surface_term_limit,
    to_u,
    to_v,
    unit_ball_volume,
    WeightSpec,
)
from hardywaves.cli import main as cli_main
from hardywaves.evolve import initial_state, invariants, propagate
from hardywaves.operators import RadialOperator
from hardywaves.stability import _experiments, perturbed_field
from oracle import oracle_minimize


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def default_grid():
    return build_grid(8192, 1e-6, 50.0)


@pytest.fixture(scope="module")
def p33():
    return Params(N=3, q=3.0, gamma=1.0)


def test_criterion_1_quadrature_and_transform(default_grid):
    v = Field(values=np.exp(-default_grid.nodes**2 / 2.0), grid=default_grid)
    mass_err = abs(integrate_mu(np.abs(v.values) ** 2, default_grid, 3) - 2.0 * np.pi)
    rng = np.random.default_rng(0)
    w = Field(values=rng.normal(size=default_grid.n), grid=default_grid)
    round_trip = float(
        np.max(np.abs(to_v(to_u(w, 3), 3).values - w.values))
        / np.max(np.abs(w.values))
    )
    ok = mass_err < 1e-6 and round_trip < 1e-15
    report(
        "criterion 1 (quadrature/transform)",
        ok,
        f"|mass - 2pi| = {mass_err:.3e} (tol 1e-6), round-trip = {round_trip:.1e}",
    )


def test_criterion_2_hardy_identity(default_grid):
    rep = check_hardy(1000, seed=2024, N=3, grid=default_grid)
    ok = rep["max_identity_mismatch"] < 1e-6 and rep["passed"]
    report(
        "criterion 2 (Hardy identity)",
        ok,
        f"worst relative mismatch = {rep['max_identity_mismatch']:.3e} (tol 1e-6), "
        f"min I(u) = {rep['min_hardy_functional']:.3e} (>= -1e-8), "
        f"samples = {rep['n_samples']}",
    )


def test_criterion_3_linear_propagator(default_grid, p33):
    v0 = Field(values=np.exp(-default_grid.nodes**2 / 2.0).astype(complex), grid=default_grid)
    free = replace(p33, weight=np.zeros_like)  # the g == 0 problem is linear
    state = propagate(initial_state(v0, free), 1e-3, 1000)
    z = 1.0 + 2.0j
    exact = np.exp(-default_grid.nodes**2 / (2.0 * z)) / z
    sup_err = float(np.max(np.abs(state.v.values - exact)))

    op = RadialOperator(default_grid, free)
    sols = []
    for dt in (4e-3, 2e-3, 1e-3):
        s = propagate(initial_state(v0, free), dt, int(round(1.0 / dt)))
        sols.append(s.v.values)
    e1 = np.sqrt(op.mass(sols[0] - sols[1]))
    e2 = np.sqrt(op.mass(sols[1] - sols[2]))
    order = float(np.log2(e1 / e2))
    ok = sup_err < 1e-3 and order >= 1.9
    report(
        "criterion 3 (linear propagator)",
        ok,
        f"sup error = {sup_err:.3e} (tol 1e-3), self-convergence order = {order:.3f} (>= 1.9)",
    )


def test_criterion_4_conservation(wave8k, p33):
    state = initial_state(perturbed_field(wave8k, 1e-2, "radial-bump"), p33)
    max_charge = 0.0
    max_energy = 0.0
    for _ in range(20):
        state = propagate(state, 1e-3, 500)  # 10^4 CN steps in total
        charge, energy = invariants(state)
        max_charge = max(max_charge, abs(charge - state.charge0) / state.charge0)
        max_energy = max(max_energy, abs(energy - state.energy0) / abs(state.energy0))
    ok = max_charge < 1e-8 and max_energy < 1e-6
    report(
        "criterion 4 (conservation over 1e4 CN steps)",
        ok,
        f"charge drift = {max_charge:.3e} (tol 1e-8), energy drift = {max_energy:.3e} (tol 1e-6)",
    )


def test_criterion_5_ground_state(p33):
    # the criterion pins (N, q, gamma) but not the grid; r_min = 1e-4 keeps
    # the float64 residual floor two orders below the 1e-6 tolerance
    grid = build_grid(8192, 1e-4, 50.0)
    sw = normalized_gradient_flow(p33, grid, tol=1e-7)
    j_hist = np.asarray(sw.j_history)
    monotone = bool(np.all(np.diff(j_hist) <= 1e-12))

    small_grid = build_grid(256, 1e-4, 30.0)
    flow_small = normalized_gradient_flow(p33, small_grid, tol=1e-9)
    oracle = oracle_minimize(p33, small_grid, restarts=8, budget=4000, seed=7)
    j_gap = abs(flow_small.energies.J - oracle.J)

    # the integrated identity lambda = (q F - D) / M on the wave's own energies
    e = sw.energies
    lam_gap = abs(sw.lam - (p33.q * e.nonlinear - e.dirichlet_mu) / e.mass_mu)
    identity_gap = abs(sw.energies.J - sw.energies.E - p33.gamma / 2.0)

    ok = (
        sw.residual < 1e-6
        and monotone
        and j_gap < 1e-4
        and lam_gap < 1e-6
        and identity_gap < 1e-10
    )
    report(
        "criterion 5 (ground state)",
        ok,
        f"residual = {sw.residual:.3e} (tol 1e-6), J monotone = {monotone}, "
        f"|J_flow - J_oracle| = {j_gap:.3e} (tol 1e-4), "
        f"multiplier gap = {lam_gap:.3e} (tol 1e-6), |J - E - gamma/2| = {identity_gap:.3e}",
    )


def test_criterion_6_origin_behavior(wave8k, default_grid):
    details = []
    ok = True
    for N, sw in ((3, wave8k), (4, None)):
        if sw is None:
            params = Params(N=4, q=3.0, gamma=1.0)
            sw = normalized_gradient_flow(params, default_grid, tol=1e-6)
        exponent, v0 = fit_origin(to_u(sw.v, N), N)[0], sw.v0
        target = -(N - 2) / 2.0
        lam_fit = surface_term_limit(to_u(sw.v, N), N)
        lam_v0 = 0.5 * N * (N - 2) * unit_ball_volume(N) * v0**2
        rel = abs(lam_fit - lam_v0) / lam_v0
        ok = ok and abs(exponent - target) < 0.05 and v0 > 0.0 and rel < 1e-2
        details.append(
            f"N={N}: exponent = {exponent:.4f} (target {target}), v0 = {v0:.4e}, "
            f"Lambda consistency = {rel:.2e}"
        )
    report("criterion 6 (origin behavior)", ok, "; ".join(details))


def test_criterion_7_orbital_stability(wave8k):
    # the command's helper, which may run the three deltas in worker processes
    control, *runs = _experiments(wave8k, [0.0, 1e-3, 1e-2], "radial-bump", 20.0, 2e-3)
    details = [f"delta=0: max distance = {control.max_distance:.3e} (tol 1e-6)"]
    ok = control.max_distance < 1e-6
    ratios = {}
    for run in runs:
        delta = run.delta
        ratios[delta] = run.max_distance / delta
        ok = ok and run.max_distance < 10.0 * delta
        details.append(
            f"delta={delta:g}: max distance = {run.max_distance:.3e} (tol {10 * delta:g})"
        )
    # response scales no worse than linearly, within a factor 3
    scaling = ratios[1e-2] / ratios[1e-3]
    ok = ok and scaling < 3.0
    details.append(f"ratio growth 1e-3 -> 1e-2 = {scaling:.3f} (< 3)")
    report("criterion 7 (orbital stability)", ok, "; ".join(details))


def test_criterion_8_kelvin():
    grid = build_grid(4096, 1e-5, 1e5)
    rep = kelvin_verify(grid, 3, samples=100, seed=11)

    from hardywaves import lambda_infinity

    c = 1.7
    x = grid.log_nodes
    cut = 0.5 * (1.0 + np.tanh((x - np.log(10.0)) / 0.5))
    tail = Field(values=c * grid.nodes**-0.5 * cut, grid=grid)
    target = 0.5 * 3 * 1 * unit_ball_volume(3) * c**2
    lam_rel = abs(lambda_infinity(tail, 3) - target) / target

    ok = (
        rep["max_involution_error"] < 1e-12
        and rep["max_norm_mismatch"] < 1e-6
        and lam_rel < 1e-2
    )
    report(
        "criterion 8 (Kelvin module)",
        ok,
        f"involution = {rep['max_involution_error']:.2e} (node-exact), "
        f"norm equivalence = {rep['max_norm_mismatch']:.2e} (tol 1e-6), "
        f"Lambda_inf consistency = {lam_rel:.2e} (tol 1e-2)",
    )


def test_criterion_9_inequality_suite(p33):
    grids = {n: build_grid(n, 1e-6, 50.0) for n in (4096, 8192)}
    ckn = {n: check_ckn(200, seed=5, params=p33, grid=grids[n]) for n in grids}
    ckn_ratio = ckn[8192]["empirical_constant"] / ckn[4096]["empirical_constant"]
    ckn_ok = all(c["passed"] for c in ckn.values()) and 0.5 < ckn_ratio < 2.0

    cases = [
        (0.0, -2.0, 3, 3.0, True),
        (0.0, 0.0, 3, 3.0, False),
        (-1.4, -2.0, 3, 3.0, True),
        (-1.6, -2.0, 3, 3.0, False),
        (0.0, -3.0, 3, 2.0, True),
        (0.0, -1.0, 3, 2.0, False),
    ]
    table_ok = all(
        check_weight_condition(WeightSpec(w0, wi), N, q)["passed"] is expected
        for w0, wi, N, q, expected in cases
    )

    ihs = {n: check_ihs(200, seed=5, N=3, grid=grids[n]) for n in grids}
    ihs_ratio = ihs[8192]["min_ratio"] / ihs[4096]["min_ratio"]
    ihs_ok = all(c["passed"] for c in ihs.values()) and 0.5 < ihs_ratio < 2.0

    ok = ckn_ok and table_ok and ihs_ok
    report(
        "criterion 9 (inequality suite)",
        ok,
        f"CKN constant = {ckn[8192]['empirical_constant']:.4f} "
        f"(refinement ratio {ckn_ratio:.3f}), weight table 6/6 = {table_ok}, "
        f"IHS min ratio = {ihs[8192]['min_ratio']:.4f} (refinement ratio {ihs_ratio:.3f})",
    )


def test_criterion_10_determinism(tmp_path):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(
            ["ground-state", "--n", "512", "--r-min", "1e-4", "--r-max", "30",
             "--outdir", str(out)]
        )
        assert code == 0
        code = cli_main(
            ["check", "ckn", "--samples", "20", "--seed", "42", "--n", "1024",
             "--outdir", str(out)]
        )
        assert code == 0
        blobs.append(
            (out / "ground_state_summary.json").read_bytes()
            + (out / "ground_state_profile.csv").read_bytes()
            + (out / "check_ckn.json").read_bytes()
        )
    ok = blobs[0] == blobs[1]
    hashes = [json.loads((tmp_path / n / "check_ckn.json").read_text())["config_sha256"]
              for n in ("a", "b")]
    ok = ok and hashes[0] == hashes[1]
    report(
        "criterion 10 (determinism)",
        ok,
        f"byte-identical outputs = {blobs[0] == blobs[1]}, config hash = {hashes[0][:12]}...",
    )
