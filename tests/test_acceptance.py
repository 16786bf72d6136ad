"""End-to-end acceptance checks.

Each test prints a single "criterion N: PASS/FAIL" line; the assertions
carry the quantitative thresholds. Heavy runs are shared via module-scope
fixtures so the whole file stays inside the stated runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from oracle import quadrature_oracle
from ptembed import cli, dnlse, embedding, fewmode, variational
from ptembed.numerics import IntegratorSettings


def _report(num, ok):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}")
    assert ok


# ---------------------------------------------------------------- fixtures

STATIONARY = dict(gamma=0.5, d=1.0, r0=math.sqrt(3.0), r3=0.7)
OSCILLATORY = dict(gamma=0.5, d=-1.0, r0=3.0, r3=0.8)


def _stationary_run(rel_tol):
    psi1, psi2 = embedding.pt_stationary_state(STATIONARY["gamma"])
    psi0 = embedding.build_initial_state(
        psi1, psi2, STATIONARY["r0"], STATIONARY["r3"],
        STATIONARY["gamma"], STATIONARY["d"])
    return embedding.run_controlled(
        psi0, 5.0, embedding.constant_gamma(STATIONARY["gamma"]),
        STATIONARY["d"], np.zeros(4),
        settings=IntegratorSettings(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2))


@pytest.fixture(scope="module")
def stationary_run():
    t0 = time.perf_counter()
    run = _stationary_run(1e-10)
    return run, time.perf_counter() - t0


@pytest.fixture(scope="module")
def stationary_run_tight():
    return _stationary_run(1e-12)


@pytest.fixture(scope="module")
def oscillatory_run():
    psi1, psi2 = math.sqrt(0.6), math.sqrt(0.4)
    psi0 = embedding.build_initial_state(
        psi1, psi2, OSCILLATORY["r0"], OSCILLATORY["r3"],
        OSCILLATORY["gamma"], OSCILLATORY["d"])
    t0 = time.perf_counter()
    run = embedding.run_controlled(
        psi0, 30.0, embedding.constant_gamma(OSCILLATORY["gamma"]),
        OSCILLATORY["d"], np.zeros(4),
        settings=IntegratorSettings(rel_tol=1e-12, abs_tol=1e-14),
        depletion_floor=1e-4)
    return run, time.perf_counter() - t0


@pytest.fixture(scope="module")
def collapse_run():
    cfg = cli.parse_config("[scenario]\nname = collapse\n")
    return cli.run_scenario(cfg)


@pytest.fixture(scope="module")
def fitted_system():
    wells = dnlse.standard_four_well()
    units = dnlse.UnitSystem.rubidium87()
    basis, d, energy = dnlse.fit_ground_state(wells, units)
    return wells, units, basis, d, energy


@pytest.fixture(scope="module")
def adiabatic_pair():
    t0 = time.perf_counter()
    few = cli.run_scenario(cli.parse_config(
        "[scenario]\nname = adiabatic_fewmode\n"))
    var = cli.run_scenario(cli.parse_config(
        "[scenario]\nname = adiabatic_variational\n"))
    return few, var, time.perf_counter() - t0


# ---------------------------------------------------------------- criteria

def test_criterion_1_two_mode_spectrum():
    t0 = time.perf_counter()
    worst = 0.0
    for gamma in (0.0, 0.5, 0.9):
        ev = np.sort_complex(fewmode.two_mode_eigenvalues(
            fewmode.pt_two_mode(gamma)))
        exact = math.sqrt(1.0 - gamma**2)
        worst = max(worst, abs(ev[0] + exact), abs(ev[1] - exact),
                    abs(ev[0].imag), abs(ev[1].imag))
    ev = fewmode.two_mode_eigenvalues(fewmode.pt_two_mode(1.5))
    ev = ev[np.argsort(ev.imag)]
    exact = math.sqrt(1.5**2 - 1.0)
    worst = max(worst, abs(ev[0] + 1j * exact), abs(ev[1] - 1j * exact))
    elapsed = time.perf_counter() - t0
    _report(1, worst < 1e-12 and elapsed < 1.0)


def test_criterion_2_stationary_embedding(stationary_run):
    run, elapsed = stationary_run
    ts = np.linspace(0.0, 5.0, 501)
    n = np.abs(run.trajectory.sample(ts)) ** 2
    middle_dev = max(np.max(np.abs(n[:, 1] - 0.5)),
                     np.max(np.abs(n[:, 2] - 0.5)))
    slope_n3 = np.polyfit(ts, n[:, 3], 1)[0]
    slope_n0 = np.polyfit(ts, n[:, 0], 1)[0]
    gamma = STATIONARY["gamma"]
    ok = (not run.broke_down
          and middle_dev < 1e-6
          and abs(slope_n3 - gamma) / gamma < 1e-3
          and abs(slope_n0 + gamma) / gamma < 1e-3
          and elapsed < 5.0)
    _report(2, ok)


def test_criterion_3_oscillatory_equivalence(oscillatory_run):
    run, elapsed = oscillatory_run
    assert run.broke_down
    t_break = run.trajectory.t[-1]
    two = fewmode.propagate(
        fewmode.pt_two_mode(OSCILLATORY["gamma"]),
        np.array([math.sqrt(0.6), math.sqrt(0.4)], dtype=complex),
        (0.0, t_break),
        IntegratorSettings(rel_tol=1e-12, abs_tol=1e-14))
    ts = np.linspace(0.0, t_break, 1001)
    four = run.trajectory.sample(ts)[:, 1:3]
    ref = two.sample(ts)
    dev_n = np.max(np.abs(np.abs(four) ** 2 - np.abs(ref) ** 2))
    j12_four = -2.0 * np.imag(four[:, 0] * np.conj(four[:, 1]))
    j12_ref = -2.0 * np.imag(ref[:, 0] * np.conj(ref[:, 1]))
    dev_j = np.max(np.abs(j12_four - j12_ref))
    n0_at_break = abs(run.trajectory.y[-1][0]) ** 2
    ok = (max(dev_n, dev_j) < 1e-6
          and n0_at_break < 0.01
          and elapsed < 10.0)
    _report(3, ok)


def test_criterion_4_implied_condition(stationary_run, oscillatory_run):
    worst = 0.0
    for run, _ in (stationary_run, oscillatory_run):
        for t, psi in zip(run.trajectory.t, run.trajectory.y):
            cs = run.controls_at(t, psi)
            res = embedding.check_conditions(psi, cs)
            worst = max(worst, abs(res[3]))
    _report(4, worst < 1e-8)


def test_criterion_5_norm_conservation(stationary_run_tight, oscillatory_run,
                                       collapse_run, adiabatic_pair):
    drifts = []
    for run in (stationary_run_tight, oscillatory_run[0]):
        n = np.sum(np.abs(run.trajectory.y) ** 2, axis=1)
        drifts.append(np.max(np.abs(n - n[0])))
    drifts.append(collapse_run[3]["total_norm_drift"])
    drifts.append(adiabatic_pair[0][3]["total_norm_drift"])
    _report(5, max(drifts) < 1e-9)


def test_criterion_6_collapse_property(collapse_run):
    status, ts, cols, summary = collapse_run
    n1 = cols["n1"]
    ok = (status == 2
          and summary["n1_monotone"]
          and summary["n1_growth_factor"] > 2.0
          and np.max(n1) > 2.0 * n1[0])
    _report(6, ok)


def test_criterion_7_quadrature_oracle():
    rng = np.random.default_rng(7)
    inf = (-np.inf, np.inf)
    tol = 1e-9
    t0 = time.perf_counter()
    worst = 0.0

    def gauss1d(s):
        return quadrature_oracle(lambda u: np.exp(-s * u * u), inf, tol)

    for _ in range(200):
        n = 2
        rand_a = lambda: rng.uniform(0.3, 2.0, n) + 1j * rng.uniform(-0.5, 0.5, n)
        basis = variational.VariationalState(
            A_x=rand_a(), A_y=rand_a(), A_z=rand_a(),
            q_z=np.sort(rng.uniform(-1.5, 1.5, n)))
        wells = dnlse.WellPotentialSpec(
            depths=rng.uniform(-60.0, -20.0, n),
            positions=np.sort(rng.uniform(-2.0, 2.0, n)) + [0.0, 0.3],
            w_x=rng.uniform(2.0, 5.0), w_y=rng.uniform(2.0, 5.0), w_z=1.0)
        units = dnlse.UnitSystem.rubidium87(N=10 ** rng.uniform(3.0, 5.0))
        bundle = dnlse.hamiltonian_matrices(basis, wells, units)
        K, T, V, W = bundle.K, bundle.T, bundle.V, bundle.W_tensor
        ax, ay, az = np.conj(basis.A_x), np.conj(basis.A_y), np.conj(basis.A_z)
        for l in range(n):
            for k in range(n):
                ix = gauss1d(ax[l] + basis.A_x[k])
                iy = gauss1d(ay[l] + basis.A_y[k])
                fz = lambda z: np.exp(-az[l] * (z - basis.q_z[l]) ** 2
                                      - basis.A_z[k] * (z - basis.q_z[k]) ** 2)
                iz = quadrature_oracle(fz, inf, tol)
                worst = max(worst, abs(ix * iy * iz - K[l, k]) / abs(K[l, k]))

                def tx(u, a=basis.A_x[k], ac=ax[l]):
                    return np.exp(-(ac + a) * u * u) * (a - 2 * a * a * u * u)

                def ty(u, a=basis.A_y[k], ac=ay[l]):
                    return np.exp(-(ac + a) * u * u) * (a - 2 * a * a * u * u)

                def tz(z, a=basis.A_z[k], q=basis.q_z[k],
                       ac=az[l], qc=basis.q_z[l]):
                    return (np.exp(-ac * (z - qc) ** 2 - a * (z - q) ** 2)
                            * (a - 2 * a * a * (z - q) ** 2))

                t_val = (quadrature_oracle(tx, inf, tol) * iy * iz
                         + ix * quadrature_oracle(ty, inf, tol) * iz
                         + ix * iy * quadrature_oracle(tz, inf, tol))
                worst = max(worst, abs(t_val - T[l, k]) / abs(T[l, k]))

                v_val = 0.0
                for vm, sm in zip(wells.depths, wells.positions):
                    gx = gauss1d(ax[l] + basis.A_x[k] + 2.0 / wells.w_x**2)
                    gy = gauss1d(ay[l] + basis.A_y[k] + 2.0 / wells.w_y**2)
                    gz = lambda z: np.exp(
                        -az[l] * (z - basis.q_z[l]) ** 2
                        - basis.A_z[k] * (z - basis.q_z[k]) ** 2
                        - 2.0 * (z - sm) ** 2 / wells.w_z**2)
                    v_val += vm * gx * gy * quadrature_oracle(gz, inf, tol)
                worst = max(worst, abs(v_val - V[l, k]) / abs(V[l, k]))

        for l in range(n):
            for k in range(n):
                for j in range(n):
                    for i in range(n):
                        sx = ax[l] + ax[j] + basis.A_x[k] + basis.A_x[i]
                        sy = ay[l] + ay[j] + basis.A_y[k] + basis.A_y[i]
                        fz = lambda z: np.exp(
                            -az[l] * (z - basis.q_z[l]) ** 2
                            - az[j] * (z - basis.q_z[j]) ** 2
                            - basis.A_z[k] * (z - basis.q_z[k]) ** 2
                            - basis.A_z[i] * (z - basis.q_z[i]) ** 2)
                        val = (units.g * gauss1d(sx) * gauss1d(sy)
                               * quadrature_oracle(fz, inf, tol))
                        worst = max(
                            worst,
                            abs(val - W[l, k, j, i]) / abs(W[l, k, j, i]))
    elapsed = time.perf_counter() - t0
    _report(7, worst < 1e-7 and elapsed < 60.0)


def test_criterion_8_lowdin():
    def basis_at(sep):
        return variational.VariationalState(
            A_x=[0.5] * 4, A_y=[0.5] * 4, A_z=[2.0] * 4,
            q_z=sep * (np.arange(4) - 1.5))

    K = dnlse.overlap_matrix(basis_at(1.8))
    x = dnlse.lowdin_exact(K)
    exact_residual = np.linalg.norm(x @ K @ x - np.eye(4))

    ratios, errors = [], []
    for sep in np.linspace(2.4, 4.0, 9):
        basis = basis_at(sep)
        K = dnlse.overlap_matrix(basis)
        kn = K / np.sqrt(np.outer(np.diag(K).real, np.diag(K).real))
        ratios.append(abs(kn[0, 1]))
        x_nn = dnlse.lowdin_nn(basis)
        errors.append(np.linalg.norm(x_nn @ K @ x_nn - np.eye(4)))
    slope = np.polyfit(np.log(ratios), np.log(errors), 1)[0]
    _report(8, exact_residual < 1e-10 and abs(slope - 2.0) < 0.2)


def test_criterion_9_variational_conservation(fitted_system):
    wells, units, basis, d, energy = fitted_system
    free_units = dnlse.UnitSystem.rubidium87(N=0.0)
    st = variational.VariationalState(
        A_x=[0.5], A_y=[0.5], A_z=[0.7 + 0.2j],
        q_z=[0.0], p_z=[0.0], gamma=[0.0 + 0.0j])
    stf, _ = variational.propagate_state(
        st, None, free_units, (0.0, 1.0),
        IntegratorSettings(rel_tol=1e-12, abs_tol=1e-14))
    disp_err = max(
        abs(stf.A_z[0] - variational.free_gaussian_width(0.7 + 0.2j, 1.0)),
        abs(stf.A_x[0] - variational.free_gaussian_width(0.5, 1.0)))

    gs = variational.relax_to_fixed_point(
        variational.VariationalState.from_basis(basis, d), wells, units)
    n0, e0 = variational.norm_and_energy(gs, wells, units)
    stf, _ = variational.propagate_state(
        gs, wells, units, (0.0, 10.0),
        IntegratorSettings(rel_tol=1e-9, abs_tol=1e-11))
    n1, e1 = variational.norm_and_energy(stf, wells, units)
    ok = (disp_err < 1e-8
          and abs(n1 - n0) < 1e-8
          and abs(e1 - e0) / abs(e0) < 1e-7)
    _report(9, ok)


def test_criterion_10_box_vs_effective_numbers(fitted_system):
    wells, units, basis, d, energy = fitted_system
    state = variational.VariationalState.from_basis(basis, d)
    part = variational.WallPartition.from_wells(wells)
    n_box, _ = variational.box_observables(state, part)
    _, occ = dnlse.effective_amplitudes(d, basis, exact=True)
    rel = np.abs(n_box - occ) / occ
    _report(10, np.max(rel) < 0.01)


def test_criterion_11_adiabatic_comparison(adiabatic_pair):
    few, var, elapsed = adiabatic_pair
    ok = True
    for status, ts, cols, summary in (few, var):
        ok &= status == 0
        ok &= summary["n1_tail_drift"] < 0.02
        ok &= summary["middle_imbalance"] < 0.05
    report = cli.compare_runs((few[1], few[2]), (var[1], var[2]))
    n1_scale = few[2]["n1"][-1]
    ok &= report["n1"]["max_abs_deviation"] / n1_scale < 0.05
    ok &= report["n2"]["max_abs_deviation"] / n1_scale < 0.05
    ok &= elapsed < 300.0
    _report(11, ok)


def test_criterion_12_units():
    units = dnlse.UnitSystem.rubidium87(w_z=1e-6)
    ok = (abs(units.E0_hz - 116.0) / 116.0 < 0.01
          and abs(units.t0 - 1.37e-3) / 1.37e-3 < 0.01)
    _report(12, ok)
