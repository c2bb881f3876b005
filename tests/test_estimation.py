"""Prediction/retrodiction filters and the variance reconstruction.

Structural tests run on tiny synthetic inputs; statistical tests share the
session ensemble (N = 3600, fixed master seed) so every bound is
deterministic. Node 0 is excluded from z-statistics wherever the forward
estimate is pinned at zero on every lane (no ensemble scatter there); the
t = 0 statement is then a float identity, not a statistical one.
"""

import math

import numpy as np
import pytest

import retrodyn as rd
from retrodyn.dynamics import _FLOAT_BLOCK

#: Block length the step-count cases below are built around.
BLOCK = 1000


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _flat_ev(v_d_value, n_nodes=100, stderr=1e-9, dt=1e-6):
    g = rd.TimeGrid(t0=0.0, dt=dt, n_steps=n_nodes - 1)
    v_d = np.full(n_nodes, float(v_d_value))
    return rd.EnsembleVariance(grid=g, v_d=v_d, n_samples=7200,
                               stderr=np.full(n_nodes, stderr))


class TestForwardFilter:
    def test_inverts_synthesis(self, small_traj, params):
        path = rd.filter_record(small_traj.photocurrent, params, small_traj.grid,
                                v_series=small_traj.v)
        assert np.max(np.abs(path.r_hat - small_traj.r)) < 1e-9

    def test_default_variance_matches_explicit(self, small_traj, params):
        explicit = rd.forward_filter(small_traj.photocurrent, params,
                                     small_traj.grid, v_series=small_traj.v)
        implicit = rd.forward_filter(small_traj.photocurrent, params,
                                     small_traj.grid)
        assert np.array_equal(explicit, implicit)

    def test_zero_record_stays_at_zero(self, params):
        g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=50)
        i = np.zeros((50, 2))
        assert not np.any(rd.forward_filter(i, params, g))
        assert not np.any(rd.backward_filter(i, params, g))

    def test_measurement_off_decay(self):
        p = rd.PhysParams(gamma_m=2.0 * math.pi * 19.0, n_th=14.0,
                          gamma_qba=2.0 * math.pi * 360.0, eta_det=0.0)
        g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=1000)
        r0 = np.array([3.0, -2.0])
        r_hat = rd.forward_filter(np.zeros((1000, 2)), p, g, r0=r0)
        expected = r0 * np.exp(-0.5 * p.gamma_m * g.times())[:, None]
        np.testing.assert_allclose(r_hat, expected, rtol=1e-6)

    def test_shape_mismatch(self, params):
        g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=50)
        with pytest.raises(rd.ShapeError, match="photocurrent"):
            rd.forward_filter(np.zeros((49, 2)), params, g)
        with pytest.raises(rd.ShapeError, match="v_series"):
            rd.forward_filter(np.zeros((50, 2)), params, g,
                              v_series=np.ones(7))

    def test_batched_record_matches_loop(self, params):
        # One lane runs its recursions on Python floats, a batch on arrays:
        # the bits must agree. The record spans more than two float blocks
        # and ends in a ragged one.
        g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=2 * _FLOAT_BLOCK + 301)
        batch = rd.simulate_batch(params, g, rd.derive_rates(params).v_uc, 20, [0, 1])
        r0 = [0.25, -1.5]
        r_hat = rd.forward_filter(batch.photocurrent, params, g, v_series=batch.v, r0=r0)
        r_b = {d: rd.backward_filter(batch.photocurrent, params, g, decimation=d)
               for d in (1, 7)}
        for j in range(2):
            lane = rd.simulate_trajectory(params, g, batch.v[0], 20, stream=j)
            assert _bitwise_equal(lane.r, batch.r[j])
            assert _bitwise_equal(lane.photocurrent, batch.photocurrent[j])
            single = rd.forward_filter(lane.photocurrent, params, g, v_series=lane.v,
                                       r0=r0)
            assert _bitwise_equal(single, r_hat[j])
            assert single[0].tolist() == r0
            for d, batched in r_b.items():
                assert _bitwise_equal(
                    rd.backward_filter(lane.photocurrent, params, g, decimation=d),
                    batched[j])


class TestBackwardFilter:
    def test_terminal_condition(self, small_traj, params):
        r_b = rd.backward_filter(small_traj.photocurrent, params, small_traj.grid)
        assert r_b.shape == (small_traj.grid.n_steps + 1, 2)
        assert not np.any(r_b[-1])

    def test_measurement_off_rejected(self):
        p = rd.PhysParams(gamma_m=1.0, n_th=14.0, gamma_qba=100.0, eta_det=0.0)
        g = rd.TimeGrid(t0=0.0, dt=1e-4, n_steps=10)
        with pytest.raises(rd.RegimeError):
            rd.backward_filter(np.zeros((10, 2)), p, g)
        with pytest.raises(rd.RegimeError):
            rd.burn_in_steps(p, 1e-4)

    def test_burn_in_steps_reference(self, params):
        # ceil(10 / (lambda dt)) with lambda = 5170.87... 1/s
        assert rd.burn_in_steps(params, 1e-7) == 19340
        assert rd.burn_in_steps(params, 1e-6) == 1934

    def test_valid_range_excludes_burn_in(self, small_traj, params):
        # horizon (2000 steps) shorter than the burn-in window: nothing valid
        path = rd.filter_record(small_traj.photocurrent, params, small_traj.grid)
        assert path.valid_range == (0, 0)

    def test_linearity_in_record(self, small_traj, params):
        r1 = rd.backward_filter(small_traj.photocurrent, params, small_traj.grid)
        r2 = rd.backward_filter(3.0 * small_traj.photocurrent, params,
                                small_traj.grid)
        # atol covers elements passing near zero, where the recursion's
        # rounding order leaves sub-ulp absolute residue
        np.testing.assert_allclose(r2, 3.0 * r1, rtol=1e-12, atol=1e-13)


# The step counts of the chunk-kernel tests: a ragged last block, shorter
# than one block, not a multiple of 7 or 10, exactly one block.
KERNEL_STEPS = (2 * BLOCK + 500, BLOCK // 3, BLOCK + 503, BLOCK)


def _kernel_records(params, n_steps):
    g = rd.TimeGrid(t0=0.0, dt=2e-7, n_steps=n_steps)
    traj = rd.simulate_batch(params, g, rd.derive_rates(params).v_uc, 21, range(3))
    return g, traj.photocurrent


class TestDecimatedBackwardFilter:
    """backward_filter(..., decimation=D): r_b at every D-th node from
    window sums, against the per-step recursion."""

    @pytest.mark.parametrize("n_steps", KERNEL_STEPS)
    def test_decimation_1_is_the_per_step_recursion(self, params, rates, n_steps):
        g, i = _kernel_records(params, n_steps)
        afac = 1.0 - rates.lambda_b * g.dt
        bcoef = math.sqrt(4.0 * rates.gamma_meas) * rates.v_e
        ref = np.zeros((i.shape[0], n_steps + 1, 2))
        for k in range(n_steps - 1, -1, -1):
            ref[:, k] = ref[:, k + 1] * afac + bcoef * (i[:, k] * g.dt)
        out = rd.backward_filter(i, params, g, decimation=1)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
        assert out.tobytes() == rd.backward_filter(i, params, g).tobytes()

    @pytest.mark.parametrize("n_steps, decimation",
                             [(n, d) for n in KERNEL_STEPS for d in (7, 10)]
                             + [(BLOCK // 3, BLOCK)])   # one partial window
    def test_window_nodes_match_the_per_step_nodes(self, params, n_steps, decimation):
        g, i = _kernel_records(params, n_steps)
        full = rd.backward_filter(i, params, g)
        out = rd.backward_filter(i, params, g, decimation=decimation)
        assert out.shape == (i.shape[0], n_steps // decimation + 1, 2)
        scale = np.max(np.abs(full))
        np.testing.assert_allclose(out, full[..., ::decimation, :],
                                   rtol=1e-12, atol=1e-12 * scale)
        # Lanes are independent: one record alone gives the same bits.
        single = rd.backward_filter(i[1], params, g, decimation=decimation)
        assert single.tobytes() == out[1].tobytes()

    def test_decimation_below_1_rejected(self, params):
        g, i = _kernel_records(params, 10)
        with pytest.raises(rd.ValidationError, match="decimation"):
            rd.backward_filter(i, params, g, decimation=0)


def _manual_path(grid, r_hat, r_b, valid):
    return rd.FilteredPath(grid=grid, r_hat=np.asarray(r_hat, float),
                           r_b=np.asarray(r_b, float), valid_range=valid)


class TestDifferenceVariance:
    def test_identical_paths_give_zero(self):
        g = rd.TimeGrid(t0=0.0, dt=1e-6, n_steps=9)
        rng = np.random.default_rng(5)
        r_hat = rng.normal(size=(10, 2))
        r_b = rng.normal(size=(10, 2))
        p1 = _manual_path(g, r_hat, r_b, (0, 6))
        p2 = _manual_path(g, r_hat.copy(), r_b.copy(), (0, 6))
        ev = rd.difference_variance([p1, p2])
        assert not np.any(ev.v_d) and not np.any(ev.stderr)
        assert ev.n_samples == 4

    def test_window_intersection_and_grid(self):
        g = rd.TimeGrid(t0=0.0, dt=1e-6, n_steps=9)
        rng = np.random.default_rng(6)
        paths = [_manual_path(g, rng.normal(size=(10, 2)),
                              rng.normal(size=(10, 2)), rng_valid)
                 for rng_valid in ((0, 8), (2, 9))]
        ev = rd.difference_variance(paths)
        assert ev.grid.t0 == pytest.approx(2e-6)
        assert ev.grid.n_steps == 5  # nodes 2..7
        assert ev.v_d.shape == (6,)

    def test_matches_direct_computation(self):
        g = rd.TimeGrid(t0=0.0, dt=1e-6, n_steps=4)
        rng = np.random.default_rng(7)
        r_hat = rng.normal(size=(8, 5, 2))
        r_b = rng.normal(size=(8, 5, 2))
        batched = _manual_path(g, r_hat, r_b, (0, 5))
        ev = rd.difference_variance([batched])
        d = r_hat - r_b
        expected = d.var(axis=0, ddof=1).mean(axis=1)
        np.testing.assert_allclose(ev.v_d, expected, rtol=1e-14)
        assert ev.n_samples == 16
        np.testing.assert_allclose(
            ev.stderr, expected * math.sqrt(2.0 / 15.0), rtol=1e-14)

    def test_too_few_paths(self):
        g = rd.TimeGrid(t0=0.0, dt=1e-6, n_steps=4)
        one = _manual_path(g, np.zeros((5, 2)), np.zeros((5, 2)), (0, 5))
        with pytest.raises(rd.StatisticsError):
            rd.difference_variance([])
        with pytest.raises(rd.StatisticsError):
            rd.difference_variance([one])

    def test_grid_mismatch(self):
        g1 = rd.TimeGrid(t0=0.0, dt=1e-6, n_steps=4)
        g2 = rd.TimeGrid(t0=0.0, dt=2e-6, n_steps=4)
        p1 = _manual_path(g1, np.zeros((5, 2)), np.zeros((5, 2)), (0, 5))
        p2 = _manual_path(g2, np.zeros((5, 2)), np.zeros((5, 2)), (0, 5))
        with pytest.raises(rd.ShapeError, match="grid"):
            rd.difference_variance([p1, p2])

    @pytest.mark.parametrize("r_hat_shape, r_b_shape", [
        ((3, 4, 2), (3, 4, 2)),  # 4 nodes on a 5-step grid
        ((3, 6, 2), (1, 6, 2)),  # r_b would broadcast against r_hat
    ], ids=["nodes-short-of-grid", "r_b-broadcasts"])
    def test_shape_mismatch(self, r_hat_shape, r_b_shape):
        g = rd.TimeGrid(t0=0.0, dt=1e-6, n_steps=5)
        rng = np.random.default_rng(8)
        path = _manual_path(g, rng.normal(size=r_hat_shape),
                            rng.normal(size=r_b_shape), (0, 6))
        with pytest.raises(rd.ShapeError, match="r_hat"):
            rd.difference_variance([path])

    def test_empty_window_after_burn_in(self):
        g = rd.TimeGrid(t0=0.0, dt=1e-6, n_steps=4)
        p1 = _manual_path(g, np.zeros((5, 2)), np.zeros((5, 2)), (0, 0))
        p2 = _manual_path(g, np.zeros((5, 2)), np.zeros((5, 2)), (0, 5))
        with pytest.raises(rd.StatisticsError, match="valid window"):
            rd.difference_variance([p1, p2])


class TestReconstruction:
    def test_flat_input_recovers_v_ss(self, params, rates):
        offset = params.gamma_m / (4.0 * rates.gamma_meas)
        ev = _flat_ev(2.0 * rates.v_ss + offset)
        v_rec, v_ss_est = rd.reconstruct_conditional_variance(ev, params)
        assert v_ss_est == pytest.approx(rates.v_ss, rel=1e-12)
        np.testing.assert_allclose(v_rec, rates.v_ss, rtol=1e-12)

    def test_paper_approx_bias_on_flat_input(self, params, rates):
        offset = params.gamma_m / (4.0 * rates.gamma_meas)
        ev = _flat_ev(2.0 * rates.v_ss + offset)
        _, v_ss_est = rd.reconstruct_conditional_variance(
            ev, params, mode="paper-approx")
        # the shortcut keeps half the offset inside the estimate
        assert v_ss_est == pytest.approx(rates.v_ss + 0.5 * offset, rel=1e-12)

    def test_bad_mode_and_tail_fraction(self, params):
        ev = _flat_ev(1.0)
        with pytest.raises(rd.ValidationError, match="mode"):
            rd.reconstruct_conditional_variance(ev, params, mode="fast")
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(rd.ValidationError, match="tail_fraction"):
                rd.reconstruct_conditional_variance(ev, params,
                                                    tail_fraction=bad)

    def test_nonstationary_tail_rejected(self, params, rates):
        g = rd.TimeGrid(t0=0.0, dt=1e-6, n_steps=99)
        v_d = np.linspace(30.0, 2.0, 100)  # still decaying at the end
        ev = rd.EnsembleVariance(grid=g, v_d=v_d, n_samples=7200,
                                 stderr=np.full(100, 1e-4))
        with pytest.raises(rd.ReconstructionError, match="horizon"):
            rd.reconstruct_conditional_variance(ev, params)

    def test_csv_export(self, params, rates, tmp_path):
        ev = _flat_ev(2.0, n_nodes=4)
        path = tmp_path / "rec.csv"
        rd.write_reconstruction_csv(path, ev, np.ones(4))
        lines = path.read_text().split("\n")
        assert lines[0] == "t,v_d,stderr,v_rec"
        assert len(lines) == 6 and lines[-1] == ""
        with pytest.raises(rd.ShapeError):
            rd.write_reconstruction_csv(path, ev, np.ones(5))


class TestEnsembleStatistics:
    """Statistical laws checked on the shared session ensemble."""

    def test_difference_variance_initial_value(self, ensemble_variance, params,
                                               rates):
        # v_d(0) = V_uc + V_ss + Gamma_m / (4 Gamma_meas) within 3 se
        pred = rates.v_uc + rates.v_ss + params.gamma_m / (4.0 * rates.gamma_meas)
        z = abs(ensemble_variance.v_d[0] - pred) / ensemble_variance.stderr[0]
        assert z < 3.0

    def test_difference_variance_identity_fraction(self, ensemble,
                                                   ensemble_variance, params,
                                                   rates):
        # v_d(t) = V(t) + V_ss + offset within 3 se at >= 99% of valid nodes
        n = len(ensemble_variance.v_d)
        offset = params.gamma_m / (4.0 * rates.gamma_meas)
        pred = ensemble.v_out[:n] + rates.v_ss + offset
        ok = np.abs(ensemble_variance.v_d - pred) <= 3.0 * ensemble_variance.stderr
        assert ok.mean() >= 0.99

    def test_forward_moment_tracks_variance_deficit(self, ensemble, rates):
        # E[r_hat^2] = V_uc - V(t); node 0 is exact (every lane starts at 0)
        assert not np.any(ensemble.r_hat[:, 0, :])
        assert ensemble.v_out[0] == rates.v_uc
        sq = ensemble.r_hat[:, 1:, :] ** 2
        n = sq.shape[0]
        mean = sq.mean(axis=0)
        se = sq.std(axis=0, ddof=1) / math.sqrt(n)
        target = (rates.v_uc - ensemble.v_out[1:])[:, None]
        assert np.max(np.abs(mean - target) / se) < 3.0

    def test_retrodicted_second_moment(self, ensemble, rates):
        # E[r_b^2] = V_E + V_uc on the valid window
        stop = ensemble.valid_stop
        sq = ensemble.r_b[:, 1:stop, :] ** 2
        n = sq.shape[0]
        mean = sq.mean(axis=0)
        se = sq.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.max(np.abs(mean - (rates.v_e + rates.v_uc)) / se) < 3.0

    def test_cross_covariance(self, ensemble, rates):
        # E[r_hat . r_b] = V_uc - V(t): correlation of the two estimates
        # carries exactly the information the record has accumulated
        stop = ensemble.valid_stop
        prod = ensemble.r_hat[:, :stop, :] * ensemble.r_b[:, :stop, :]
        assert not np.any(prod[:, 0, :])  # r_hat(0) = 0 pins the product
        n = prod.shape[0]
        mean = prod[:, 1:, :].mean(axis=0)
        se = prod[:, 1:, :].std(axis=0, ddof=1) / math.sqrt(n)
        target = (rates.v_uc - ensemble.v_out[1:stop])[:, None]
        assert np.max(np.abs(mean - target) / se) < 3.0

    def test_reconstruction_tracks_riccati(self, ensemble, ensemble_variance,
                                           params):
        v_rec, _ = rd.reconstruct_conditional_variance(ensemble_variance, params)
        n = len(v_rec)
        truth = ensemble.v_out[:n]
        z = np.abs(v_rec - truth) / ensemble_variance.stderr
        assert np.max(z) < 3.0
        rms = math.sqrt(float(np.mean((v_rec / truth - 1.0) ** 2)))
        assert rms <= 0.05

    def test_steady_state_estimates(self, ensemble_variance, params, rates):
        _, v_exact = rd.reconstruct_conditional_variance(ensemble_variance,
                                                         params)
        _, v_paper = rd.reconstruct_conditional_variance(ensemble_variance,
                                                         params,
                                                         mode="paper-approx")
        assert abs(v_exact / rates.v_ss - 1.0) < 0.03
        assert abs(v_paper / rates.v_ss - 1.0) < 0.02
        # the shortcut sits half an offset above the exact estimate
        offset = params.gamma_m / (4.0 * rates.gamma_meas)
        assert v_paper - v_exact == pytest.approx(0.5 * offset, rel=1e-9)
