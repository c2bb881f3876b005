"""Variance integration, trajectory synthesis, and the photocurrent record.

The Riccati equation here has an exact logistic closed form (it is a scalar
quadratic ODE), which serves as an independent oracle for the integrator.
"""

import dataclasses
import io
import math
import warnings

import numpy as np
import pytest

import retrodyn as rd
from retrodyn import dynamics
from retrodyn._io import _CSV_BLOCK_ROWS, write_csv

SEED = 314159


def closed_form_variance(p, t, v0):
    """Exact solution of dV/dt = gamma_m (v_uc - V) - 4 gamma_meas V^2.

    The right side factors as -4 gamma_meas (V - v_ss)(V - v2) with
    v2 = -(gamma_m / (4 gamma_meas) + v_ss) < 0, giving a logistic-type
    solution between the two roots.
    """
    d = rd.derive_rates(p)
    a = 4.0 * d.gamma_meas
    v_ss = d.v_ss
    v2 = -(p.gamma_m / a + v_ss)
    e = np.exp(-a * (v_ss - v2) * np.asarray(t))
    num = v_ss * (v0 - v2) - v2 * (v0 - v_ss) * e
    den = (v0 - v2) - (v0 - v_ss) * e
    return num / den


class TestTimeGrid:
    def test_times_and_t_final(self):
        g = rd.TimeGrid(t0=0.0, dt=0.5, n_steps=4)
        assert g.t_final == pytest.approx(2.0)
        np.testing.assert_allclose(g.times(), [0, 0.5, 1.0, 1.5, 2.0])

    def test_invalid_grid(self):
        with pytest.raises(rd.GridError):
            rd.TimeGrid(t0=0.0, dt=-1e-7, n_steps=10)
        with pytest.raises(rd.GridError):
            rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=0)

    def test_guard_rejects_coarse_step(self, params):
        coarse = rd.TimeGrid(t0=0.0, dt=1e-5, n_steps=10)
        with pytest.raises(rd.GridError, match="dt"):
            rd.check_grid(params, coarse)

    def test_guard_accepts_reference_step(self, params, grid):
        rd.check_grid(params, grid)


class TestRiccati:
    def test_rhs_fixed_points(self, params, rates):
        # The right-hand side is v I_dot(v): v_ss is a root; v_uc is not
        # (measurement still contracting there)
        rhs = lambda v: v * rd.information_rate(v, params)
        assert abs(rhs(rates.v_ss)) < 1e-10 * params.gamma_m
        assert rhs(rates.v_uc) == pytest.approx(-7490278.8850671705, rel=1e-12)

    def test_against_closed_form(self, params, rates):
        g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=20000)
        v = rd.solve_conditional_variance(params, g, rates.v_uc)
        exact = closed_form_variance(params, g.times(), rates.v_uc)
        assert np.max(np.abs(v / exact - 1.0)) < 1e-8

    def test_step_halving(self, params, rates):
        g1 = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=5000)
        g2 = rd.TimeGrid(t0=0.0, dt=5e-8, n_steps=10000)
        v1 = rd.solve_conditional_variance(params, g1, rates.v_uc)
        v2 = rd.solve_conditional_variance(params, g2, rates.v_uc)
        assert np.max(np.abs(v1 / v2[::2] - 1.0)) < 1e-8

    def test_long_horizon_locks_to_v_ss(self, params, rates):
        # horizon 30 relaxation times; terminal value equals v_ss to 1e-6
        g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=58700)
        v = rd.solve_conditional_variance(params, g, rates.v_uc)
        assert abs(v[-1] / rates.v_ss - 1.0) < 1e-6
        # strict decay while the transient is active (the flat tail may
        # dither in the last ulp)
        assert np.all(np.diff(v[:20000]) < 0)

    def test_half_decay_time(self, params, rates):
        # time at which V - v_ss halves, from the exact logistic solution
        t_half = 4.2679296461397355e-6
        g = rd.TimeGrid(t0=0.0, dt=1e-9, n_steps=8536)
        v = rd.solve_conditional_variance(params, g, rates.v_uc)
        target = rates.v_ss + 0.5 * (rates.v_uc - rates.v_ss)
        k = int(np.argmin(np.abs(v - target)))
        assert g.times()[k] == pytest.approx(t_half, rel=5e-4)

    def test_midpoints_sit_between_nodes(self, params, rates):
        g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=100)
        v = rd.solve_conditional_variance(params, g, rates.v_uc)
        mids = rd.conditional_variance_midpoints(params, v, g.dt)
        assert mids.shape == (100,)
        assert np.all(mids <= v[:-1]) and np.all(mids >= v[1:])

    def test_v0_validation(self, params, grid):
        # Validated on every call, not only when the series is first solved.
        for _ in range(2):
            with pytest.raises(rd.DomainError):
                rd.solve_conditional_variance(params, grid, -1.0)

    def test_repeated_solves_are_independent_copies(self, params, rates):
        g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=300)
        first = rd.solve_conditional_variance(params, g, rates.v_uc)
        expected = first.tobytes()
        first[:] = -1.0
        again = rd.solve_conditional_variance(params, g, rates.v_uc)
        assert again.tobytes() == expected
        assert again is not first and again.flags.writeable

    @pytest.mark.parametrize("v0", [33.45, 0.1])  # V_uc, and below V_ss
    def test_series_is_the_rk4_step_loop(self, params, rates, v0):
        g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=3000)
        v, loop = v0, [v0]
        for _ in range(g.n_steps):
            v = dynamics._rk4_step(v, g.dt, params, rates.v_uc, 4.0 * rates.gamma_meas)
            loop.append(v)
        out = rd.solve_conditional_variance(params, g, v0)
        assert out.tobytes() == np.array(loop).tobytes()


class TestTrajectory:
    def test_shapes_and_seed(self, small_traj):
        n = small_traj.grid.n_steps
        assert small_traj.r.shape == (n + 1, 2)
        assert small_traj.v.shape == (n + 1,)
        assert small_traj.dw.shape == (n, 2)
        assert small_traj.photocurrent.shape == (n, 2)
        assert small_traj.seed == 20 and small_traj.stream == 0

    def test_reproducible(self, params, small_traj):
        again = rd.simulate_trajectory(params, small_traj.grid, small_traj.v[0],
                                       seed=20, stream=0)
        assert np.array_equal(again.r, small_traj.r)
        assert np.array_equal(again.photocurrent, small_traj.photocurrent)

    def test_distinct_streams_differ(self, params, small_traj):
        other = rd.simulate_trajectory(params, small_traj.grid, small_traj.v[0],
                                       seed=20, stream=1)
        assert not np.array_equal(other.dw, small_traj.dw)

    def test_photocurrent_identity_bitwise(self, small_traj, params):
        assert rd.verify_photocurrent_identity(small_traj, params)
        dt = small_traj.grid.dt
        c = math.sqrt(4.0 * params.eta_det * params.gamma_qba)
        expected = (c * small_traj.r[:-1] * dt + small_traj.dw) / dt
        assert np.array_equal(small_traj.photocurrent, expected)

    def test_wiener_increment_moments(self, params):
        g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=20000)
        traj = rd.simulate_trajectory(params, g, rd.derive_rates(params).v_uc,
                                      seed=SEED)
        dw = traj.dw.ravel()
        n = dw.size
        assert abs(dw.mean()) < 4.0 * math.sqrt(g.dt / n)
        assert dw.var() == pytest.approx(g.dt, rel=4.0 * math.sqrt(2.0 / n))

    def test_batch_matches_single_bitwise(self, params):
        g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=500)
        v0 = rd.derive_rates(params).v_uc
        batch = rd.simulate_batch(params, g, v0, seed=7, streams=[3, 9, 27])
        for lane, stream in enumerate((3, 9, 27)):
            single = rd.simulate_trajectory(params, g, v0, seed=7, stream=stream)
            assert np.array_equal(batch.r[lane], single.r)
            assert np.array_equal(batch.photocurrent[lane], single.photocurrent)
            assert np.array_equal(batch.dw[lane], single.dw)

    def test_batch_draws_each_streams_philox_normals(self, params):
        # Lane j's increments are the first normals of Philox keyed (seed,
        # streams[j]), two per step in step order, times sqrt(dt), whatever
        # the order of the streams. numpy's own generator is the reference.
        g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=500)
        seed, streams = 1234, [5, 0, 3]
        batch = rd.simulate_batch(params, g, rd.derive_rates(params).v_uc, seed, streams)
        for lane, stream in zip(batch.dw, streams):
            key = np.array([seed, stream], dtype=np.uint64)
            normals = np.random.Generator(np.random.Philox(key=key)).standard_normal((500, 2))
            assert lane.tobytes() == (normals * math.sqrt(g.dt)).tobytes()
        # Lane-major and C-ordered, as returned.
        for x, nodes in ((batch.dw, 500), (batch.r, 501), (batch.photocurrent, 500)):
            assert x.shape == (3, nodes, 2) and x.flags.c_contiguous
        assert rd.verify_photocurrent_identity(batch, params)

    def test_batch_empty_streams(self, params, grid):
        with pytest.raises(rd.ValidationError):
            rd.simulate_batch(params, grid, 1.0, seed=1, streams=[])

    # r_hat equals the synthesized r to the ensemble's inversion_max_abs
    # (about 1e-14 against |r| of order 10).

    def test_ensemble_mean_r_unbiased(self, filtered_lanes):
        # E[r] = 0 pointwise; skip node 0 where every lane is exactly zero
        r_hat = filtered_lanes.r_hat[:, 1:, :]
        mean = r_hat.mean(axis=0)
        se = r_hat.std(axis=0, ddof=1) / math.sqrt(len(r_hat))
        assert np.max(np.abs(mean) / se) < 4.0

    def test_ensemble_r_variance_tracks_theory(self, ensemble, rates):
        # r_x and r_y are independent N(0, v_uc - V), so |r|^2 / 2 = (v_uc -
        # V) Exp(1) and theta = V + |r|^2 / 2 has lane variance (v_uc - V)^2.
        # Its sample variance has relative standard error sqrt(8 / N), from
        # the central fourth moment 9 of Exp(1): 4.7 % at N = 3600.
        assert ensemble.inversion_max_abs < 1e-9
        theta = ensemble.theta_moments
        ratio = theta.variance()[1:] / (rates.v_uc - ensemble.v_out[1:]) ** 2
        assert np.max(np.abs(ratio - 1.0)) < 4.0 * math.sqrt(8.0 / theta.count)


class TestTrajectoryCsv:
    def test_roundtrip(self, small_traj, params, tmp_path):
        path = tmp_path / "traj.csv"
        rd.write_trajectory_csv(small_traj, path)
        back = rd.read_trajectory_csv(path, params)
        assert back.grid.n_steps == small_traj.grid.n_steps
        np.testing.assert_allclose(back.r, small_traj.r, rtol=0, atol=0)
        np.testing.assert_allclose(back.v, small_traj.v, rtol=0, atol=0)
        np.testing.assert_allclose(back.photocurrent, small_traj.photocurrent,
                                   rtol=0, atol=0)

    def test_read_back_record_passes_photocurrent_identity(self, small_traj, params,
                                                          tmp_path):
        # The read-back increments are recovered from the record, so a
        # bitwise recomputation of the photocurrent misses by round-off.
        path = tmp_path / "traj.csv"
        rd.write_trajectory_csv(small_traj, path)
        back = rd.read_trajectory_csv(path, params)
        assert rd.verify_photocurrent_identity(back, params)
        flipped = dataclasses.replace(back, photocurrent=-back.photocurrent)
        assert not rd.verify_photocurrent_identity(flipped, params)

    def test_header_and_line_endings(self, small_traj, tmp_path):
        path = tmp_path / "traj.csv"
        rd.write_trajectory_csv(small_traj, path, every=100)
        raw = path.read_bytes()
        assert raw.startswith(b"t,rx,ry,v,ix,iy\n")
        assert b"\r" not in raw

    def test_decimated_export_row_count(self, small_traj, tmp_path):
        path = tmp_path / "traj.csv"
        rd.write_trajectory_csv(small_traj, path, every=100)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1 + (small_traj.grid.n_steps // 100 + 1)

    def test_terminal_row_has_nan_current(self, small_traj, tmp_path):
        path = tmp_path / "traj.csv"
        rd.write_trajectory_csv(small_traj, path)
        last = path.read_text().strip().split("\n")[-1]
        assert last.endswith("nan,nan")

    def test_nonuniform_time_column_rejected(self, params, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,rx,ry,v,ix,iy\n0,0,0,1,0,0\n1,0,0,1,0,0\n3,0,0,1,nan,nan\n")
        with pytest.raises(rd.ShapeError, match="uniform"):
            rd.read_trajectory_csv(path, params)

    def test_unequal_columns_rejected(self, small_traj, tmp_path):
        path = tmp_path / "short.csv"
        short = dataclasses.replace(small_traj, v=small_traj.v[:-1])
        with pytest.raises(rd.ShapeError, match="equal length"):
            rd.write_trajectory_csv(short, path)
        assert not path.exists()

    @pytest.mark.parametrize("row, message", [
        pytest.param(row, message, id=row or "header-only") for row, message in [
            ("1,0,0,1,0", "expected rows of 6 columns"),      # ragged: five fields
            ("1,abc,0,1,0,0", "expected rows of 6 columns"),  # text in rx
            ("1,0,0,nan,0,0", "non-finite t, r or v"),        # non-finite v
            ("-1,0,0,1,0,0", "time column is not increasing"),  # t decreases
            ("0,0,0,1,0,0", "time column is not increasing"),   # t repeats
            (None, "expected rows of 6 columns"),             # no data rows
        ]])
    def test_malformed_row_rejected(self, params, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        body = "" if row is None else f"0,0,0,1,0,0\n{row}\n2,0,0,1,nan,nan\n"
        path.write_text("t,rx,ry,v,ix,iy\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rd.ShapeError, match=f"bad.csv: {message}") as info:
                rd.read_trajectory_csv(path, params)
        assert "usecols" not in str(info.value)

    def test_writer_bytes_equal_savetxt(self, tmp_path):
        # np.savetxt is the reference format: more rows than one block, and
        # the values whose text is easiest to get wrong.
        rng = np.random.default_rng(SEED)
        table = rng.standard_normal((2 * _CSV_BLOCK_ROWS + 5, 3)) * 10.0 ** rng.integers(
            -300, 300, size=(2 * _CSV_BLOCK_ROWS + 5, 3))
        table[:3] = [[math.nan, -0.0, 1e-300], [0.1 + 0.2, -1.0 / 3.0, math.inf],
                     [0.0, 5e-324, -math.inf]]
        path = tmp_path / "w.csv"
        write_csv(path, "a,b,c", table.T)
        ref = io.StringIO()
        np.savetxt(ref, table, fmt="%.17g", delimiter=",", header="a,b,c", comments="")
        assert path.read_bytes() == ref.getvalue().encode("utf-8")
