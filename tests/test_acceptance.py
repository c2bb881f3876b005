"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line with the measured margins (visible under pytest -s, and on
any failure in the captured output)."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import retrodyn as rd
from retrodyn.pipeline import default_config, run_experiment

N_TRAJ = 3600


@contextmanager
def criterion(number, label):
    report = {}
    try:
        yield report
    except BaseException:
        detail = f" [{report['detail']}]" if "detail" in report else ""
        print(f"FAIL criterion {number}: {label}{detail}")
        raise
    detail = f" [{report['detail']}]" if "detail" in report else ""
    print(f"PASS criterion {number}: {label}{detail}")


def test_criterion_1_steady_state_variances(params, rates):
    with criterion(1, "steady-state variances and Riccati convergence") as rep:
        t0 = time.monotonic()
        assert abs(rates.v_uc - 33.45) <= 0.1
        assert abs(rates.v_ss - 0.763) <= 0.01
        grid = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=30000)
        v = rd.solve_conditional_variance(params, grid, rates.v_uc)
        rel = abs(v[-1] / rates.v_ss - 1.0)
        assert rel <= 1e-6
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0
        rep["detail"] = (f"v_uc {rates.v_uc:.4f}, v_ss {rates.v_ss:.5f}, "
                         f"riccati rel {rel:.1e}, {elapsed:.2f} s")


def test_criterion_2_entropy_balance_identity(params, rates):
    # 1 ms horizon: by 3 ms the analytic dS/dt underflows the float
    # cancellation floor of phi_c + pi_c, so the relative bound is tested
    # where the identity is representable
    with criterion(2, "per-trajectory entropy balance dS/dt = phi_c + pi_c") as rep:
        t0 = time.monotonic()
        grid = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=10000)
        traj = rd.simulate_batch(params, grid, rates.v_uc, 2026, range(100))
        theta = traj.v + 0.5 * np.sum(traj.r * traj.r, axis=-1)
        phi_c, pi_c = rd.theta_rates(theta, traj.v, params)
        dsdt = rd.information_rate(traj.v, params)
        err = np.abs(phi_c + pi_c - dsdt)
        rel = float(np.max(err / np.abs(dsdt)))
        assert rel <= 1e-9
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        rep["detail"] = (f"100 trajectories, max rel {rel:.1e}, "
                         f"{elapsed:.1f} s")


def test_criterion_3_rate_decomposition(ensemble, ensemble_rates, params, rates):
    with criterion(3, "ensemble flux and production decomposition") as rep:
        phi_uc, pi_uc = rd.unconditional_rates(params, rates.v_uc)
        er = ensemble_rates
        # t = 0 carries no ensemble scatter (every lane starts at r = 0),
        # so the mean is tested there as a float identity
        assert abs(er.phi_c[0] / phi_uc - 1.0) <= 1e-9
        z_phi = np.abs(er.phi_c[1:] - phi_uc) / er.stderr_phi_c[1:]
        assert float(z_phi.max()) <= 3.0
        target = pi_uc + rd.information_rate(ensemble.v_out, params)
        ok = np.abs(er.pi_c - target) <= 3.0 * er.stderr_pi_c
        ok[0] = abs(er.pi_c[0] / target[0] - 1.0) <= 1e-9
        frac = float(np.mean(ok))
        assert frac >= 0.99
        rep["detail"] = (f"N={N_TRAJ}, max z(phi) {float(z_phi.max()):.2f}, "
                         f"pi within 3 se at {100 * frac:.1f}% of times")


def test_criterion_4_retrodiction_pipeline(ensemble, ensemble_variance,
                                           params, rates):
    with criterion(4, "conditional variance reconstruction") as rep:
        ev = ensemble_variance
        v_rec, _ = rd.reconstruct_conditional_variance(ev, params, mode="exact")
        n = ev.grid.n_steps + 1
        v_true = ensemble.v_out[:n]
        z = np.abs(v_rec - v_true) / ev.stderr
        assert float(z.max()) <= 3.0
        rms = float(np.sqrt(np.mean((v_rec - v_true) ** 2 / v_true ** 2)))
        assert rms <= 0.05
        _, v_ss_paper = rd.reconstruct_conditional_variance(
            ev, params, mode="paper-approx")
        bias = abs(v_ss_paper / rates.v_ss - 1.0)
        assert bias <= 0.02
        rep["detail"] = (f"max z {float(z.max()):.2f}, rms {100 * rms:.1f}%, "
                         f"paper-approx v_ss off by {100 * bias:.2f}%")


def test_criterion_5_theta_conservation(ensemble, rates):
    with criterion(5, "ensemble mean of theta stays at v_uc") as rep:
        mean = ensemble.theta.mean(axis=0)
        se = ensemble.theta.std(axis=0, ddof=1) / math.sqrt(N_TRAJ)
        # every lane starts identical, so node 0 is a float identity: both
        # the mean deviation and the stderr are pure summation round-off
        t0_dev = abs(float(mean[0]) - rates.v_uc)
        assert t0_dev <= 1e-12
        z = np.abs(mean[1:] - rates.v_uc) / se[1:]
        assert float(z.max()) <= 3.0
        rep["detail"] = (f"t0 deviation {t0_dev:.1e}, "
                         f"max z {float(z.max()):.2f}")


def test_criterion_6_ness_consistency(params, rates):
    with criterion(6, "steady-state flux and production cancel") as rep:
        phi_uc, pi_uc = rd.unconditional_rates(params, rates.v_uc)
        anti = abs(phi_uc + pi_uc) / abs(pi_uc)
        assert anti <= 1e-12
        rep["detail"] = f"(phi+pi)/pi {anti:.1e}"


def test_criterion_7_full_model_cross_check(params, rates):
    with criterion(7, "4x4 model vs eliminated-cavity description") as rep:
        v4 = rd.lyapunov_steady_state(rd.build_optomech_model(params)).v
        mech = 0.5 * (v4[0, 0] + v4[1, 1])
        mech_dev = abs(mech / rates.v_uc - 1.0)
        assert mech_dev <= 0.02
        m = rd.build_adiabatic_model(params)
        cov = rd.CovMatrix(v=rates.v_uc * np.eye(2))
        _, mx, _ = rd.channel_entropy_rates(m, cov)
        q = params.gamma_qba
        assert mx.phi == pytest.approx(-2.0 * rates.v_uc * q, rel=1e-12)
        assert mx.pi == pytest.approx(
            q * (2.0 * rates.v_uc + 0.5 / rates.v_uc), rel=1e-12)
        implied = 4.0 * params.g * params.g / params.kappa
        qba_dev = abs(implied / (2.0 * math.pi * 360.0) - 1.0)
        assert qba_dev <= 0.005
        rep["detail"] = (f"mech marginal off by {100 * mech_dev:.2f}%, "
                         f"channel rates at 1e-12, "
                         f"4g^2/kappa off by {100 * qba_dev:.3f}%")


def test_criterion_8_information_rate_endpoints(params, rates):
    with criterion(8, "information rate endpoints and decomposition") as rep:
        i_uc = rd.information_rate(rates.v_uc, params)
        ref = -4.0 * params.eta_det * params.gamma_qba * rates.v_uc
        assert i_uc == pytest.approx(ref, rel=1e-12)
        assert i_uc == pytest.approx(-2.24e5, rel=5e-3)
        i_ss = rd.information_rate(rates.v_ss, params)
        assert abs(i_ss) <= 1e-10 * params.gamma_m
        g_inf = rd.differential_gain(rates.v_ss, params)
        assert g_inf == pytest.approx(
            -4.0 * params.eta_det * params.gamma_qba * rates.v_ss, rel=1e-12)
        v = np.linspace(rates.v_ss / 2.0, 2.0 * rates.v_uc, 400)
        lhs = rd.information_rate(v, params)
        rhs = rd.differential_gain(v, params) + rd.phonon_noise_rate(v, params)
        np.testing.assert_array_equal(lhs, rhs)
        bath = params.gamma_m * (rates.v_uc / v - 1.0)
        np.testing.assert_array_equal(rd.phonon_noise_rate(v, params), bath)
        rep["detail"] = (f"i_dot(v_uc) {i_uc:.6g}, i_dot(v_ss) {i_ss:.1e}, "
                         "split identity bitwise on 400 points")


def test_criterion_9_byte_determinism(tmp_path_factory):
    with criterion(9, "byte-identical products across reruns and workers") as rep:
        products = ("variance.csv", "reconstruction.csv", "entropy_rates.csv",
                    "information.csv", "checks.json")
        outputs = []
        for tag, workers in (("a", 1), ("b", 1), ("c", 2)):
            out = tmp_path_factory.mktemp(f"accept_{tag}")
            result = run_experiment(default_config(out_dir=str(out),
                                                   n_workers=workers))
            for group in result.checks.values():
                for rec in group:
                    assert rec["pass"], rec
            outputs.append({name: (out / name).read_bytes()
                            for name in products})
        assert outputs[0] == outputs[1]
        assert outputs[0] == outputs[2]
        rep["detail"] = (f"3 full runs (N={N_TRAJ}), "
                         f"{len(products)} products compared, "
                         "serial == rerun == 2 workers")
