"""Experiment runner and command line: configuration parsing, byte-level
reproducibility of the data products, stage naming, and exit codes."""

import concurrent.futures
import hashlib
import json
import math
import os
import pickle
import time
import tracemalloc
import types
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

import retrodyn as rd
from retrodyn import cli, dynamics, estimation, pipeline, thermo
from retrodyn.dynamics import PHOTOCURRENT_TOL
from retrodyn.pipeline import (
    INFORMATION_CSV_HEADER,
    VARIANCE_CSV_HEADER,
    collect_ensemble,
    config_from_file,
    config_from_mapping,
    default_config,
    emit_figure_data,
    run_experiment,
)
from retrodyn.thermo import RATES_CSV_HEADER

# Small but statistically honest run: the horizon is long enough that the
# difference variance settles well before the backward burn-in window.
SMALL_RUN = dict(dt=2e-7, t_final=4e-3, n_traj=40, master_seed=77,
                 decimation=20, chunk_size=10, n_workers=1, n_display=3)

DETERMINISTIC_FILES = ("variance.csv", "reconstruction.csv",
                       "entropy_rates.csv", "information.csv", "checks.json")

# sha256 of SMALL_RUN's products at chunk_size 40 (one chunk). The run's
# telemetry goes to manifest.json only, so these stay put.
SMALL_RUN_DIGESTS = {
    "variance.csv": "cf5cfd1d28de5b512ffe6c5ebe455fdbfa2fc832b122796e46174777673eb419",
    "reconstruction.csv": "9794a038290dd63e1d9918ae985baa92cbcaeacaec38935747272764112904c1",
    "entropy_rates.csv": "038bcd308101393f33f937a66c37949f7aec7ae2d0b733dae251c8898f5d4e33",
    "information.csv": "54eac1a67d7091c73f207561cc7cf6112ec11f14518ea229fd40906a94c381ac",
    "checks.json": "9b87366efd4cdb8ce0de41f1b37e4d58db98882f629edc8367edc7cdb913a6b3",
}


def small_config(out_dir, **overrides):
    kw = dict(SMALL_RUN)
    kw.update(overrides)
    return default_config(out_dir=str(out_dir), **kw)


class TestConfig:
    def test_defaults(self):
        cfg = default_config()
        assert cfg.dt == 1e-7 and cfg.t_final == 3e-3
        assert cfg.n_traj == 3600 and cfg.master_seed == 1234
        assert cfg.decimation == 10 and cfg.chunk_size == 150
        assert cfg.pipelines == ("reconstruct", "thermo", "fullmodel")
        assert cfg.mode == "exact" and cfg.tail_fraction == 0.20

    def test_grid_shape(self):
        g = default_config().grid()
        assert (g.t0, g.dt, g.n_steps) == (0.0, 1e-7, 30000)

    def test_validation(self, params):
        with pytest.raises(rd.ConfigError, match="n_traj"):
            rd.ExperimentConfig(params=params, n_traj=0)
        with pytest.raises(rd.ConfigError, match="decimation"):
            rd.ExperimentConfig(params=params, decimation=0)
        with pytest.raises(rd.ConfigError, match="mode"):
            rd.ExperimentConfig(params=params, mode="sloppy")
        with pytest.raises(rd.ConfigError, match="pipelines"):
            rd.ExperimentConfig(params=params, pipelines=("thermo", "laundry"))
        with pytest.raises(rd.ConfigError, match="n_workers"):
            rd.ExperimentConfig(params=params, n_workers=-1)
        with pytest.raises(rd.ConfigError, match="chunk_size"):
            rd.ExperimentConfig(params=params, chunk_size=0)
        with pytest.raises(rd.ConfigError, match="spans no steps"):
            rd.ExperimentConfig(params=params, t_final=4e-8).grid()
        for pipelines in (("reconstruct",), ("thermo", "fullmodel")):
            with pytest.raises(rd.ConfigError, match="n_traj >= 2"):
                rd.ExperimentConfig(params=params, n_traj=1, pipelines=pipelines)
        rd.ExperimentConfig(params=params, n_traj=1, pipelines=("fullmodel",))
        # 5 steps: no whole decimation window, so no output node past t = 0.
        for pipelines in (("reconstruct",), ("thermo", "fullmodel")):
            with pytest.raises(rd.ConfigError, match="one decimation window of 10 steps"):
                rd.ExperimentConfig(params=params, t_final=5e-7, pipelines=pipelines)
        rd.ExperimentConfig(params=params, t_final=5e-7, pipelines=("fullmodel",))

    def test_short_horizon_reconstruction_fails_before_the_run(self, params, tmp_path):
        # 1e-4 s is far inside the 1.9 ms backward burn-in: no valid window.
        out = tmp_path / "o"
        cfg = small_config(out, t_final=1e-4, pipelines=("reconstruct", "thermo"))
        with pytest.raises(rd.StatisticsError,
                           match="stage 'reconstruct': no valid window"):
            run_experiment(cfg)
        assert not out.exists()

    def test_coarse_step_rejected_at_construction(self, params):
        with pytest.raises(rd.GridError, match="too coarse"):
            rd.ExperimentConfig(params=params, dt=1e-5)

    def test_mapping_mixes_physics_and_run_keys(self):
        cfg = config_from_mapping({
            "gamma_m_hz": "19.0", "n_th": "14.0", "gamma_qba_hz": "360.0",
            "eta_det": "0.74", "dt": "2e-7", "n_traj": "40",
            "pipelines": "thermo, fullmodel",
        })
        assert cfg.params.gamma_m == pytest.approx(2.0 * math.pi * 19.0,
                                                   rel=1e-15)
        assert cfg.params.omega_m is None
        assert cfg.dt == 2e-7 and cfg.n_traj == 40
        assert cfg.pipelines == ("thermo", "fullmodel")

    def test_mapping_defaults_to_reference_params(self):
        cfg = config_from_mapping({"n_traj": "12"})
        assert cfg.params == rd.default_params()
        assert cfg.n_traj == 12

    def test_overrides_win_and_none_is_ignored(self):
        cfg = config_from_mapping({"dt": "2e-7", "master_seed": "9"},
                                  dt=1e-7, master_seed=None)
        assert cfg.dt == 1e-7 and cfg.master_seed == 9

    def test_bad_numeric_value(self):
        with pytest.raises(rd.ConfigError, match="bad numeric"):
            config_from_mapping({"dt": "fast"})

    def test_incomplete_physics_keys(self):
        with pytest.raises(rd.ConfigError, match="missing required"):
            config_from_mapping({"gamma_m_hz": "19.0"})

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "n_traj = 24   # trailing comment\n"
            "\n"
            "mode = paper-approx\n",
            encoding="utf-8")
        cfg = config_from_file(path, out_dir=str(tmp_path / "o"))
        assert cfg.n_traj == 24 and cfg.mode == "paper-approx"
        assert cfg.params == rd.default_params()

    def test_echo_covers_every_setting(self):
        cfg = default_config()
        echo = cfg.echo()
        assert echo["n_traj"] == 3600
        assert echo["pipelines"] == "reconstruct,thermo,fullmodel"
        assert echo["gamma_m"] == cfg.params.gamma_m


def _config(params, g, n_traj, master_seed, **overrides) -> rd.ExperimentConfig:
    """The configuration of an ensemble of n_traj lanes on grid g, on one worker."""
    kw = dict(dt=g.dt, t_final=g.n_steps * g.dt, n_traj=n_traj, master_seed=master_seed,
              n_workers=1)
    kw.update(overrides)
    cfg = rd.ExperimentConfig(params=params, **kw)
    assert cfg.grid() == g
    return cfg


def _collect(params, g, n_traj, master_seed, **overrides) -> rd.EnsembleBundle:
    return collect_ensemble(_config(params, g, n_traj, master_seed, **overrides))


class TestEnsembleBundle:
    def test_needs_two_trajectories(self, params):
        # Only a configuration without an ensemble pipeline admits one lane.
        cfg = rd.ExperimentConfig(params=params, n_traj=1, pipelines=("fullmodel",))
        with pytest.raises(rd.ValidationError, match="n_traj"):
            collect_ensemble(cfg)

    def test_shapes_and_valid_stop(self, params):
        g = rd.TimeGrid(t0=0.0, dt=2e-7, n_steps=12000)
        b = _collect(params, g, 6, 11, decimation=10, chunk_size=4)
        n_out = 1200
        assert b.grid_out.n_steps == n_out and b.grid_out.dt == 2e-6
        # n_display = 10 keeps every one of the 6 theta lanes.
        assert b.theta.shape == (6, n_out + 1)
        assert b.v_out.shape == (n_out + 1,)
        lam = rd.derive_rates(params).lambda_b
        burn = math.ceil(10.0 / (lam * 2e-6))
        assert b.valid_stop == max(n_out + 1 - burn, 0) > 0
        assert b.d_moments.count == b.theta_moments.count == 6
        assert b.d_moments.mean().shape == (b.valid_stop, 2)
        assert b.theta_moments.mean().shape == (n_out + 1,)
        assert b.inversion_max_abs < 1e-9
        assert b.photocurrent_residual <= PHOTOCURRENT_TOL

    def test_chunking_does_not_change_bytes(self, params):
        # Decimation 7 does not divide 12003 steps; three display lanes end
        # inside the second chunk of two.
        g = rd.TimeGrid(t0=0.0, dt=2e-7, n_steps=12003)
        one, many = (_collect(params, g, 5, 3, decimation=7, chunk_size=size, n_display=3)
                     for size in (5, 2))
        assert one.valid_stop > 0
        for name in ("d_moments", "theta_moments"):
            a, b = getattr(one, name), getattr(many, name)
            assert a.count == b.count == 5
            # The integer sums themselves, node by node.
            assert a.sums.tolist() == b.sums.tolist(), name
            assert _bitwise_equal(a.mean(), b.mean()), name
            assert _bitwise_equal(a.variance(), b.variance()), name
        assert _bitwise_equal(one.theta, many.theta)

    def test_moments_equal_public_reductions(self, params):
        g = rd.TimeGrid(t0=0.0, dt=2e-7, n_steps=10000)
        cfg = _config(params, g, 7, 3, decimation=10, chunk_size=3)
        b = collect_ensemble(cfg)
        d, theta = _chunk_lanes(cfg)
        assert b.valid_stop > 0
        ev = rd.difference_variance([_difference_path(b.grid_out, d)])
        own = estimation._pooled_difference_variance(
            b.d_moments.variance(), b.d_moments.count, b.grid_out, 0)
        assert own.grid == ev.grid and own.n_samples == ev.n_samples
        assert _bitwise_equal(own.v_d, ev.v_d) and _bitwise_equal(own.stderr, ev.stderr)
        rates = rd.ensemble_average_rates(theta, b.v_out, b.grid_out, params)
        own = thermo._ensemble_rates(b.theta_moments, b.v_out, b.grid_out, params)
        assert own.n_samples == rates.n_samples == 7
        for name in ("phi_c", "pi_c", "i_dot", "g_diff", "stderr_phi_c", "stderr_pi_c"):
            assert _bitwise_equal(getattr(own, name), getattr(rates, name)), name


def _bitwise_equal(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _difference_path(grid_out, d) -> rd.FilteredPath:
    """Lanes of d = r_hat - r_b on the valid nodes of grid_out as r_hat = d
    and r_b = 0, for difference_variance."""
    valid = rd.TimeGrid(t0=grid_out.t0, dt=grid_out.dt, n_steps=d.shape[1] - 1)
    return rd.FilteredPath(valid, d, np.zeros_like(d), (0, d.shape[1]))


#: Steps per kernel block at 2 lanes and decimation 10 under the
#: small_blocks fixture.
BLOCK = 1000


@pytest.fixture()
def small_blocks(monkeypatch):
    """Blocks of BLOCK steps for 2 lanes at decimation 10 (2 pairs per lane
    and window), so narrow chunks span several blocks."""
    monkeypatch.setattr(pipeline, "_BLOCK_LANE_STEPS", 2 * 2 * BLOCK // 10)


def _riccati_nodes(params, g):
    """The Riccati nodes a chunk of grid g reads."""
    return dynamics.solve_conditional_variance(params, g, rd.derive_rates(params).v_uc)


def _job(p, g, v, master_seed, lo, hi, decim, valid_stop, n_kept=0):
    """The _compute_chunk job of lanes lo to hi, with the window plan
    collect_ensemble forms, built now: a helper patched before the call
    reaches the plan."""
    plan = pipeline._window_plan(p, g, v, decim, valid_stop, master_seed, n_kept)[0]
    return plan, lo, hi


def _kernel_lanes(args):
    """(d, theta) of every lane of the chunk (p, grid, v_nodes, master_seed,
    lo, hi, decim, valid_stop) as _compute_chunk folds them, recorded from
    what _ExactMoments.fold is handed; d is None without retrodiction. The
    chunk keeps every lane for display, and those lanes must be the theta it
    folds (node 0, V on every lane, it does not fold)."""
    grid, lo, hi, decim, stop = args[1], args[4], args[5], args[6], args[7]
    d = None if stop is None else np.full((hi - lo, stop, 2), np.nan)
    theta = np.full((hi - lo, grid.n_steps // decim + 1), np.nan)
    fold = estimation._ExactMoments.fold

    def recording(moments, part, x, at):
        # d's sums are (lane blocks, 4, nodes, 2), theta's (lane blocks, 4, nodes).
        (d if part.ndim == 4 else theta)[:, at:at + x.shape[1]] = x
        fold(moments, part, x, at)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimation._ExactMoments, "fold", recording)
        shown = pipeline._compute_chunk(_job(*args, hi))[1]
    theta[:, 0] = shown[:, 0]
    assert _bitwise_equal(shown, theta)
    assert d is None or not np.isnan(d).any()
    return d, theta


def _chunk_lanes(cfg):
    """(d, theta) of every lane of cfg's ensemble, from _compute_chunk as one
    chunk; d is None unless cfg retrodicts."""
    g, p = cfg.grid(), cfg.params
    stop = (estimation._valid_stop(p, pipeline._decimated(g, cfg.decimation))
            if "reconstruct" in cfg.pipelines else None)
    return _kernel_lanes((p, g, _riccati_nodes(p, g), cfg.master_seed, 0, cfg.n_traj,
                          cfg.decimation, stop))


class TestChunkKernel:
    """The window-route chunk kernel and the route check of trajectory 0."""

    @pytest.mark.parametrize("n_steps, decimation, n_traj, chunk_size", [
        (2 * BLOCK + 500, 10, 5, 2),   # ragged last block, 1-lane last chunk
        (BLOCK // 3, 10, 4, 4),        # shorter than one block
        (BLOCK + 503, 7, 4, 3),        # decimation does not divide n_steps
        (BLOCK, 10, 3, 1),             # 1-lane chunks, exactly one block
    ])
    def test_matches_public_lane_path(self, params, small_blocks, n_steps, decimation,
                                      n_traj, chunk_size):
        g = rd.TimeGrid(t0=0.0, dt=2e-7, n_steps=n_steps)
        b = _collect(params, g, n_traj, 21, decimation=decimation, chunk_size=chunk_size)
        # The route check runs trajectory 0 per step as the public path does,
        # on the horizon floored to whole windows.
        g = replace(g, n_steps=b.grid_out.n_steps * decimation)
        traj = rd.simulate_trajectory(params, g, rd.derive_rates(params).v_uc, 21, 0)
        r_hat = rd.forward_filter(traj.photocurrent, params, g, v_series=traj.v)
        assert _bitwise_equal(b.v_out, traj.v[::decimation])
        assert b.inversion_max_abs == float(np.max(np.abs(r_hat - traj.r)))
        assert b.photocurrent_residual <= PHOTOCURRENT_TOL
        # The window route agrees with it to round-off.
        assert 0.0 < b.window_route_max_rel <= pipeline.WINDOW_ROUTE_TOL

    def test_d_lanes_are_the_same_in_any_chunk(self, params, small_blocks):
        # Blocks of 462 steps (3 lanes), 700 steps (2 lanes) and 280 steps (5
        # lanes) each leave a ragged last block of the 12005 steps (1715
        # windows of 7); chunks of 3 do not divide 5 lanes.
        g = rd.TimeGrid(t0=0.0, dt=2e-7, n_steps=12005)
        v = _riccati_nodes(params, g)
        n_nodes, stop = 12005 // 7 + 1, estimation._valid_stop(params, pipeline._decimated(g, 7))

        def chunk(lo, hi, valid_stop):
            return _kernel_lanes((params, g, v, 21, lo, hi, 7, valid_stop))

        d, theta = chunk(0, 5, stop)
        assert 0 < stop < n_nodes and d.shape == (5, stop, 2)
        # The valid window leaves theta alone. The windows past it reach d
        # through one tail normal, so d matches an every-node run in law
        # (TestTailDrawnLanes), not bit for bit.
        assert _bitwise_equal(chunk(0, 5, n_nodes)[1], theta)
        for lo, hi in [(0, 3), (3, 5)]:
            out = chunk(lo, hi, stop)
            assert _bitwise_equal(out[0], d[lo:hi]) and _bitwise_equal(out[1], theta[lo:hi])

    def test_chunk_holds_no_full_resolution_array(self, params):
        # A chunk keeps one retrodiction window sum per valid output node,
        # 1067 of 3001. One array with a row per step would be full_res
        # (28.80 MB) on its own. The peak, with the sums the chunk folds its
        # lanes into, was measured at 9.59 MB (8.59 MB once the caches are
        # warm); the bound leaves 0.96 MB above that, less than the 1.86 MB
        # that window sums on every node would add.
        g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=30000)
        full_res = (g.n_steps + 1) * 60 * 2 * np.dtype(float).itemsize
        cfg = _config(params, g, 60, 21, decimation=10, chunk_size=60)
        tracemalloc.start()
        try:
            collect_ensemble(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10.55e6 < full_res

    @staticmethod
    def _reference_chunk_peak(params, lanes):
        """Peak traced bytes of one chunk of lanes lanes on the reference
        grid (30 000 steps, decimation 10, 1067 valid nodes); the run's
        window plan is formed outside it, once per run."""
        g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=30000)
        stop = estimation._valid_stop(params, pipeline._decimated(g, 10))
        job = _job(params, g, _riccati_nodes(params, g), 1234, 0, lanes, 10, stop, 10)
        tracemalloc.start()
        try:
            pipeline._compute_chunk(job)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stop == 1067
        return peak

    def test_reference_width_chunk_holds_no_theta_lanes(self, params):
        # 450 lanes, a former default width. The chunk holds r_hat and the
        # window sums on the valid nodes (15.4 MB), a draw block (1.8 MB) and
        # one tile's buffers, and sums theta and d as they are made: 20.57
        # MB measured (21.22 MB cold). Theta on every lane and node would
        # add 10.8 MB, a time-major copy of the draw block 1.8 MB.
        assert self._reference_chunk_peak(params, 450) <= 22.0e6

    def test_default_width_chunk_scales_with_its_lanes(self, params):
        # 150 lanes, the default width: the valid-node rows fall to 5.1 MB
        # and the draw block stays at 1.8 MB. 8.68 MB measured; with a
        # 3.6 MB block a 150-lane chunk peaks at 10.50 MB.
        assert pipeline.DEFAULT_CHUNK_SIZE == 150
        assert self._reference_chunk_peak(params, 150) <= 9.5e6

    def test_reference_job_holds_nothing_per_step(self, params):
        # A job is the run's plan and a lane range. The plan's arrays hold
        # the 3001 output nodes or the 3000 windows, not the 30 000 steps:
        # 0.14 MB pickled, against 1.08 MB when the per-step coefficients
        # and window weights travelled with every job.
        g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=30000)
        stop = estimation._valid_stop(params, pipeline._decimated(g, 10))
        job = _job(params, g, _riccati_nodes(params, g), 1234, 0, 300, 10, stop, 10)
        plan, n_win = job[0], 3000
        arrays = [x for x in (*plan, *vars(plan.theta).values()) if isinstance(x, np.ndarray)]
        assert len(job) == 3 and job[1:] == (0, 300) and len(arrays) >= 6
        assert all(len(x) <= n_win + 1 for x in arrays)
        assert len(pickle.dumps(job)) <= 0.2e6

    def test_chunks_past_the_int64_lane_bound_keep_their_sums(self, params):
        # The sum of lo^2 (lo < 2^26, about 2^52 / 3 on average) over 7000
        # lanes passes 2^63: the kernel's int64 sums keep one row per
        # _LANE_BLOCK (2048) lanes, so one chunk of 7000 lanes sums to what
        # seven of 1000 do.
        g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=110)
        v = _riccati_nodes(params, g)

        def sums(lo, hi):  # valid_stop 6 of 12 nodes: a tail of 5 windows
            return pipeline._compute_chunk(_job(params, g, v, 5, lo, hi, 10, 6))[2]

        whole, merged = sums(0, 7000), (estimation._ExactMoments(), estimation._ExactMoments())
        for lo in range(0, 7000, 1000):
            for ours, theirs in zip(merged, sums(lo, lo + 1000)):
                ours.merge(theirs)
        for a, b in zip(whole, merged):
            assert a.count == b.count == 7000
            assert a.sums.tolist() == b.sums.tolist()

    def test_chunk_memory_grows_with_the_nodes_not_the_steps(self, params):
        # At decimation 20 the chunk's decimated lanes and the moments add
        # about a quarter of one 30 000-step full-resolution array when the
        # record doubles; one array with a row per step would add a whole one.
        full_res = 30001 * 60 * 2 * np.dtype(float).itemsize

        def peak(n_steps):
            cfg = _config(params, rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=n_steps), 60, 21,
                          decimation=20, chunk_size=60)
            tracemalloc.start()
            try:
                collect_ensemble(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(60000) - peak(30000) < full_res / 2

    def test_one_riccati_solve_per_ensemble(self, params, monkeypatch):
        calls = []
        solve = dynamics.solve_conditional_variance

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(dynamics, "solve_conditional_variance", counting)
        g = rd.TimeGrid(t0=0.0, dt=2e-7, n_steps=500)
        _collect(params, g, 7, 3, decimation=5, chunk_size=2)
        assert len(calls) == 1

    def test_thermo_only_chunk_keeps_no_filtered_lanes(self, params):
        g = rd.TimeGrid(t0=0.0, dt=2e-7, n_steps=500)
        cfg = _config(params, g, 4, 3, decimation=5, chunk_size=4, n_display=4,
                      pipelines=("thermo",))
        d, theta = _chunk_lanes(cfg)
        assert d is None
        b = collect_ensemble(cfg)
        assert b.valid_stop is None and b.d_moments.count == 0
        # Retrodiction leaves theta alone.
        both = collect_ensemble(replace(cfg, pipelines=("reconstruct", "thermo")))
        assert _bitwise_equal(theta, b.theta) and _bitwise_equal(theta, both.theta)

    def test_measurement_off_raises_regime_error(self, params):
        p = rd.PhysParams(**{**vars(params), "eta_det": 0.0})
        g = rd.TimeGrid(t0=0.0, dt=2e-7, n_steps=500)
        with pytest.raises(rd.RegimeError):
            _collect(p, g, 4, 3, decimation=5)


def _mutated_weights(monkeypatch, mutate):
    """Patch pipeline._window_weights to mutate(real, amp_w, *args)."""
    real = pipeline._window_weights
    monkeypatch.setattr(pipeline, "_window_weights",
                        lambda amp_w, *args: mutate(real, amp_w, *args))


class TestWindowRouteRecord:
    """window_route_max_rel fails when the window route is wrong."""

    # 12005 steps: 1715 windows of 7, of which the 1381 from valid_stop
    # (334) on reach r_b through the tail.
    GRID = rd.TimeGrid(t0=0.0, dt=2e-7, n_steps=12005)

    def _record(self, params):
        return _collect(params, self.GRID, 3, 21, decimation=7,
                        chunk_size=2).window_route_max_rel

    def test_intact_route_passes(self, params):
        assert estimation._valid_stop(params, pipeline._decimated(self.GRID, 7)) == 334
        assert 0.0 < self._record(params) <= pipeline.WINDOW_ROUTE_TOL

    def test_window_sum_without_alpha_term_fails(self, params, monkeypatch):
        def no_alpha(real, amp_w, *args):
            wu, ws, alpha = real(amp_w, *args)
            return wu, ws, 0.0 * alpha

        _mutated_weights(monkeypatch, no_alpha)
        assert self._record(params) > pipeline.WINDOW_ROUTE_TOL

    def test_tail_with_a_power_of_a_off_by_one_fails(self, params, monkeypatch):
        real = pipeline._tail_weights
        monkeypatch.setattr(pipeline, "_tail_weights", lambda a, n: real(a, n) * a)
        assert self._record(params) > pipeline.WINDOW_ROUTE_TOL


def _window_law_z(params):
    """z scores of the window-drawn lanes' (u, S - alpha r) against their
    covariance G: var u, var (S - alpha r), their covariance and the residual
    variance of S - alpha r given u, each pooled over lanes, components and
    windows as a mean of unit-variance terms (standard error sqrt(2 / n))."""
    # 110 steps: eleven windows, every node valid, r_b = 0 at the last.
    g, decim, lanes = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=110), 10, 2000
    v = _riccati_nodes(params, g)
    mids = dynamics.conditional_variance_midpoints(params, v, g.dt)
    job = (params, g, v, 5, 0, lanes, decim, g.n_steps // decim + 1)  # every node valid
    d = _kernel_lanes(job)[0]
    # The same draws with bcoef = 0 zero every window sum and so r_b: d = r.
    with pytest.MonkeyPatch.context() as mp:
        back = estimation._backward_coefficients
        mp.setattr(estimation, "_backward_coefficients", lambda p, dt: (back(p, dt)[0], 0.0))
        r = _kernel_lanes(job)[0]
    r_b = r - d
    c, amp, efac = dynamics._mean_coefficients(params, g.dt, mids)
    afac, bcoef = estimation._backward_coefficients(params, g.dt)
    wu, ws, alpha = pipeline._window_weights(amp.reshape(11, decim), efac, c * g.dt, afac, bcoef)
    g11, g12, g22 = (g.dt * np.sum(x * y, axis=1)[:, None]
                     for x, y in ((wu, wu), (wu, ws), (ws, ws)))
    u = r[:, 1:] - efac ** decim * r[:, :-1]
    s = r_b[:, :-1] - afac ** decim * r_b[:, 1:] - alpha * r[:, :-1]  # (lanes, windows, 2)
    a, b = u / np.sqrt(g11), s / np.sqrt(g22)
    e = (s - g12 / g11 * u) / np.sqrt(g22 - g12 ** 2 / g11)
    terms = (a * a - 1.0, b * b - 1.0, a * b - g12 / np.sqrt(g11 * g22), e * e - 1.0)
    return [float(np.mean(t) / np.sqrt(2.0 / t.size)) for t in terms]


#: Bound on each |z| of _window_law_z: about 6e-7 false alarms each.
LAW_Z = 5.0


def _mutated_factors(monkeypatch, which):
    """Patch pipeline._window_factors to zero its factor number which."""
    real = pipeline._window_factors

    def zeroed(*args):
        out = list(real(*args))
        out[which] = 0.0 * out[which]
        return tuple(out)

    monkeypatch.setattr(pipeline, "_window_factors", zeroed)


class TestWindowDrawnLanes:
    """Every lane draws (u, S - alpha r) per window, in law."""

    def test_law_matches_the_window_covariance(self, params):
        z = _window_law_z(params)
        assert max(map(abs, z)) <= LAW_Z, z

    @pytest.mark.parametrize("which", [1, 2], ids=["l21", "l22"])
    def test_law_fails_without_a_factor(self, params, monkeypatch, which):
        _mutated_factors(monkeypatch, which)
        assert max(map(abs, _window_law_z(params))) > LAW_Z

    def test_block_lengths_leave_the_bytes_alone(self, params, monkeypatch):
        # 12005 steps, 1715 windows of 7, with valid_stop 334. At 2100 pairs
        # per draw block, a block of 8 lanes holds 131 windows (2 pairs per
        # lane each), of 5 lanes 210 and of 3 lanes 350, each with a ragged
        # last block; at 40 pairs, 2 windows and a last block of one. Tiles
        # of 400 (lane, window) pairs hold 50 windows of 8 lanes (the tile
        # of windows 312 to 361 holds J), 80 of 5 and 133 of 3; tiles of 1
        # pair hold one window.
        g = rd.TimeGrid(t0=0.0, dt=2e-7, n_steps=12005)
        v = _riccati_nodes(params, g)
        stop = estimation._valid_stop(params, pipeline._decimated(g, 7))
        tiles, swap = [], dynamics._swap_pairs

        def per_tile(x, out=None):  # twice per tile: its z_u, then its z_s
            tiles.append(x.shape[1])
            return swap(x, out)

        def chunk(lo, hi, pairs, tile):
            monkeypatch.setattr(pipeline, "_BLOCK_LANE_STEPS", pairs)
            monkeypatch.setattr(pipeline, "_TILE_LANE_WINDOWS", tile)
            tiles.clear()
            return _kernel_lanes((params, g, v, 21, lo, hi, 7, stop)), tiles[::2]

        monkeypatch.setattr(dynamics, "_swap_pairs", per_tile)
        (ref, whole), *runs = (chunk(0, 8, pairs, tile) for pairs, tile in
                               ((10**6, 10**6), (2100, 400), (2100, 1), (40, 10**6)))
        assert stop == 334 and ref[0].shape == (8, stop, 2) and whole == [1715]
        assert [t for _, t in runs] == [[50, 50, 31] * 13 + [12], [1] * 1715, [2] * 857 + [1]]
        for out, _ in runs:
            assert all(map(_bitwise_equal, out, ref))
        (head, h_len), (tail, t_len) = chunk(0, 3, 2100, 400), chunk(3, 8, 2100, 400)
        assert h_len == [133, 133, 84] * 4 + [133, 133, 49]
        assert t_len == [80, 80, 50] * 8 + [35]
        assert _bitwise_equal(np.concatenate([head[0], tail[0]]), ref[0])
        assert _bitwise_equal(np.concatenate([head[1], tail[1]]), ref[1])

    def test_reference_width_chunks_draw_exact_normal_counts(self, params, monkeypatch):
        # 500 windows of 10 steps in blocks of 187 windows at 300 lanes, the
        # former default width, and of 375 at 150 lanes, the default.
        g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=5000)
        v = _riccati_nodes(params, g)
        calls, draw = [], dynamics._draw_lanes

        def counted(gens, out):
            # Normals per lane, then the top Philox counter word of the
            # lanes' generators: 0 for z_u, 1 for z_s and the tail normal.
            words = {int(gen.bit_generator.state["state"]["counter"][3]) for gen in gens}
            calls.append((out.size // len(gens), *words))
            draw(gens, out)

        monkeypatch.setattr(dynamics, "_draw_lanes", counted)
        for lanes, thermo_calls, calls_at_300 in (
                (300, [(374, 0), (374, 0), (252, 0)],
                 [(374, 0), (374, 1), (374, 0), (226, 1), (252, 0), (2, 1)]),
                (150, [(750, 0), (250, 0)], [(750, 0), (600, 1), (250, 0), (2, 1)])):
            # Thermo only: 2 z_u normals per window, and no z_s.
            calls.clear()
            pipeline._compute_chunk(_job(params, g, v, 5, 0, lanes, 10, None))
            assert calls == thermo_calls
            # Retrodicting with J = 300 valid nodes: z_s on windows 0 to 299
            # and then one tail pair, 2 J + 2 normals per lane, against 2 K =
            # 1000 z_u.
            calls.clear()
            pipeline._compute_chunk(_job(params, g, v, 5, 0, lanes, 10, 300))
            assert calls == calls_at_300
            assert [sum(n for n, word in calls if word == w) for w in (0, 1)] == [1000, 602]


def _tail_law_z(params):
    """z score of the tail normal's law, from the second moment of the
    difference between two runs of the same lanes.

    One run has every node valid, so every window draws its z_s and r_b[J]
    = sum_{j >= J} A^(j - J) S_j. The other has valid_stop J, so windows j
    >= J reach r_b[J] through their known parts and one tail normal scaled
    by sd = sqrt(sum A^(2 (j - J)) l22_j^2). The runs share z_u, the z_s of
    the windows before J and the normal at window J's place, so at node J -
    1 they differ by A (sd z_J - sum A^(j - J) l22_j z_j), of variance A^2
    (2 sd^2 - 2 sd l22_J); each lane and component gives one term of unit
    mean and variance 2.
    """
    # Decimation 500 at dt = 2e-7 s gives A = 0.596, far enough from 1 that
    # a power of A off by one shows. The tail holds windows 2 to 6.
    g, decim, stop, lanes = rd.TimeGrid(t0=0.0, dt=2e-7, n_steps=3500), 500, 2, 4000
    v = _riccati_nodes(params, g)
    mids = dynamics.conditional_variance_midpoints(params, v, g.dt)
    every, tail = (_kernel_lanes((params, g, v, 5, 0, lanes, decim, s))[0]
                   for s in (g.n_steps // decim + 1, stop))
    c, amp, efac = dynamics._mean_coefficients(params, g.dt, mids)
    afac, bcoef = estimation._backward_coefficients(params, g.dt)
    wu, ws, _ = pipeline._window_weights(amp.reshape(7, decim), efac, c * g.dt, afac, bcoef)
    g11, g12, g22 = (g.dt * np.sum(x * y, axis=1) for x, y in ((wu, wu), (wu, ws), (ws, ws)))
    l22_sq = g22 - g12 ** 2 / g11  # the variance of S - alpha r given u
    a_win = afac ** decim
    var = sum(a_win ** (2 * (j - stop)) * l22_sq[j] for j in range(stop, len(l22_sq)))
    expect = 2.0 * var - 2.0 * math.sqrt(var * l22_sq[stop])
    t = ((every[:, stop - 1] - tail[:, stop - 1]) / a_win) ** 2 / expect - 1.0
    return float(np.mean(t) / math.sqrt(2.0 / t.size))


def _tail_mutations():
    """Name -> patch of pipeline that breaks the tail: its normal dropped,
    or every power of A one too high or one too low."""
    real = pipeline._tail_weights
    return {
        "no_tail_normal": ("_tail_sd", lambda w, l22: 0.0),
        "power_plus_one": ("_tail_weights", lambda a, n: real(a, n) * a),
        "power_minus_one": ("_tail_weights", lambda a, n: real(a, n) / a),
    }


class TestTailDrawnLanes:
    """The windows past the valid window draw one tail normal, in law."""

    def test_law_matches_the_exact_tail_sum(self, params):
        assert abs(_tail_law_z(params)) <= LAW_Z

    @pytest.mark.parametrize("mutation", list(_tail_mutations()))
    def test_law_fails_with_a_wrong_tail(self, params, monkeypatch, mutation):
        monkeypatch.setattr(pipeline, *_tail_mutations()[mutation])
        assert abs(_tail_law_z(params)) > LAW_Z

    def test_tail_rows_add_one_window_at_a_time(self):
        # np.add.reduce over the window axis equals the loop in window order,
        # whatever the lanes, so the tail row's bits do not follow the chunk.
        rng = np.random.default_rng(3)
        for lanes in (1, 2, 5, 450):
            rows = rng.standard_normal((300, lanes, 2)) * rng.uniform(0.0, 1e3, (300, 1, 1))
            acc = rng.standard_normal((lanes, 2))
            loop = acc.copy()
            for row in rows:
                loop += row
            pipeline._add_rows(acc, rows.copy())
            assert _bitwise_equal(acc, loop), lanes


class TestUnmonitored:
    """eta_det = 0: the thermo pipeline runs with unconditional dynamics."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        p = rd.PhysParams(**{**vars(rd.default_params()), "eta_det": 0.0})
        cfg = rd.ExperimentConfig(params=p, out_dir=str(tmp_path_factory.mktemp("eta0")),
                                  n_traj=20, t_final=4e-4, chunk_size=8,
                                  n_workers=1, pipelines=("thermo",))
        return p, run_experiment(cfg)

    def test_checks_pass_without_nan(self, run):
        _, result = run
        for rec in result.checks["invariants"]:
            assert rec["pass"] and math.isfinite(rec["value"]), rec
        by_name = {rec["name"]: rec["value"] for rec in result.checks["invariants"]}
        assert by_name["theta_mean_max_z"] == 0.0

    def test_rates_are_the_unconditional_ones(self, run):
        p, result = run
        rates = result.rates
        phi_uc, pi_uc = rd.unconditional_rates(p, rd.derive_rates(p).v_uc)
        np.testing.assert_allclose(rates.phi_c, phi_uc, rtol=1e-12)
        np.testing.assert_allclose(rates.pi_c, pi_uc, rtol=1e-12)
        np.testing.assert_allclose(rates.phi_c, -rates.pi_c, rtol=1e-12)
        assert np.all(rates.g_diff == 0.0)
        assert np.max(np.abs(rates.i_dot)) <= 1e-12 * abs(pi_uc)

    def test_window_drawn_lanes_keep_theta_at_v(self, tmp_path):
        # No measurement: every factor is 0 (l21 too, where l11 = 0), so u = 0.
        p = rd.PhysParams(**{**vars(rd.default_params()), "eta_det": 0.0})
        g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=2010)
        v = _riccati_nodes(p, g)
        theta = pipeline._compute_chunk(_job(p, g, v, 3, 0, 6, 10, None, 6))[1]
        assert _bitwise_equal(theta, np.broadcast_to(v[::10], theta.shape))
        cfg = _write_cfg(tmp_path / "eta0.cfg", (
            "gamma_m_hz = 19\nn_th = 14\ngamma_qba_hz = 360\neta_det = 0\n"
            "n_traj = 8\nt_final = 2e-4\nn_workers = 1\n"))
        assert cli.main(["thermo", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        checks = json.loads((tmp_path / "o" / "checks.json").read_text(encoding="utf-8"))
        for rec in checks["invariants"]:
            assert rec["pass"] and math.isfinite(rec["value"]), rec
        rates = np.loadtxt(tmp_path / "o" / "entropy_rates.csv", delimiter=",", skiprows=1)
        assert not np.isnan(rates).any()

    def test_cli_thermo_exits_0(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "eta0.cfg", (
            "gamma_m_hz = 19\nn_th = 14\ngamma_qba_hz = 360\neta_det = 0\n"
            "n_traj = 8\nt_final = 2e-4\nn_workers = 1\n"))
        assert cli.main(["thermo", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "entropy_rates.csv").exists()


def _read_products(out_dir):
    return {name: (out_dir / name).read_bytes() for name in DETERMINISTIC_FILES}


def _digests(out_dir):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in DETERMINISTIC_FILES}


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run_a")
    result = run_experiment(small_config(out))
    return out, result


class TestRunDeterminism:
    def test_products_written(self, first_run):
        out, result = first_run
        assert sorted(result.files) == sorted(
            DETERMINISTIC_FILES + ("manifest.json",))
        for name in result.files:
            assert os.path.exists(result.files[name])
        assert result.v_ss_est is not None and result.rates is not None
        assert result.wall_time_s > 0.0

    def test_rerun_is_byte_identical(self, first_run, tmp_path):
        out_a, _ = first_run
        out_b = tmp_path / "run_b"
        run_experiment(small_config(out_b))
        assert _read_products(out_a) == _read_products(out_b)

    def test_worker_count_does_not_change_bytes(self, first_run, tmp_path):
        out_a, _ = first_run
        out_c = tmp_path / "run_c"
        run_experiment(small_config(out_c, n_workers=2))
        assert _read_products(out_a) == _read_products(out_c)

    def test_one_chunk_does_not_change_bytes(self, first_run, tmp_path):
        out_a, _ = first_run
        out_d = tmp_path / "run_d"
        run_experiment(small_config(out_d, chunk_size=SMALL_RUN["n_traj"]))
        assert _read_products(out_a) == _read_products(out_d)

    def test_horizon_inside_a_window_writes_the_floored_bytes(self, first_run, tmp_path):
        # 13 steps past the last output node, inside the next window of 20:
        # an ensemble runs on whole windows, so the products are SMALL_RUN's.
        out_a, _ = first_run
        out_r = tmp_path / "ragged"
        cfg = small_config(out_r, t_final=SMALL_RUN["t_final"] + 13 * SMALL_RUN["dt"])
        assert cfg.grid().n_steps == 20000 + 13
        run_experiment(cfg)
        assert _read_products(out_a) == _read_products(out_r)

    def test_photocurrent_check_does_not_depend_on_chunking(self, first_run, tmp_path):
        # The route checks run on trajectory 0 outside the chunks, so no
        # chunk size or worker count moves them.
        out_a, _ = first_run
        checks = (out_a / "checks.json").read_bytes()
        # (40, 2) would run its one chunk in this process, as (40, 1) does.
        for chunk_size, n_workers in ((4, 1), (40, 1), (4, 2)):
            out = tmp_path / f"c{chunk_size}w{n_workers}"
            run_experiment(small_config(out, chunk_size=chunk_size, n_workers=n_workers))
            assert (out / "checks.json").read_bytes() == checks, (chunk_size, n_workers)

    @pytest.mark.parametrize("chunk_size", [1, 7, SMALL_RUN["n_traj"]])
    def test_shuffled_chunks_give_the_same_bytes(self, tmp_path, monkeypatch, chunk_size):
        # Each chunk reduces to exact integer sums, so the order in which the
        # parent receives them cannot move a bit: chunks arrive shuffled from
        # the pool (2 workers, whose branch imports concurrent.futures'
        # ProcessPoolExecutor when it starts) and from the serial path (1
        # worker, whose builtin map the module-level name shadows).
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _ShuffledPool)
        monkeypatch.setattr(pipeline, "map", lambda fn, jobs: _ShuffledPool(1).map(fn, jobs),
                            raising=False)
        monkeypatch.setattr(_ShuffledPool, "delivered", [])
        for n_workers in (1, 2):
            out = tmp_path / f"w{n_workers}"
            run_experiment(small_config(out, chunk_size=chunk_size, n_workers=n_workers))
            assert _digests(out) == SMALL_RUN_DIGESTS, n_workers
        firsts = list(range(0, SMALL_RUN["n_traj"], chunk_size))
        assert sorted(_ShuffledPool.delivered) == sorted(2 * firsts)
        assert len(firsts) == 1 or _ShuffledPool.delivered[:len(firsts)] != firsts

    def test_thermo_only_run_writes_the_same_rates(self, first_run, tmp_path):
        out_a, _ = first_run
        out_t = tmp_path / "thermo"
        run_experiment(small_config(out_t, pipelines=("thermo",)))
        for name in ("entropy_rates.csv", "information.csv"):
            assert (out_t / name).read_bytes() == (out_a / name).read_bytes(), name

    def test_csv_headers(self, first_run):
        out, _ = first_run
        def header(name):
            with open(out / name, "r", encoding="utf-8") as fh:
                return fh.readline().rstrip("\n")
        assert header("variance.csv") == VARIANCE_CSV_HEADER
        assert header("information.csv") == INFORMATION_CSV_HEADER
        assert header("reconstruction.csv") == "t,v_d,stderr,v_rec"
        expect = RATES_CSV_HEADER + "".join(
            f",phi_c_path{j},pi_c_path{j}" for j in (1, 2, 3))
        assert header("entropy_rates.csv") == expect

    def test_information_csv_sum_identity(self, first_run):
        out, _ = first_run
        data = np.loadtxt(out / "information.csv", delimiter=",", skiprows=1)
        # 17-digit formatting roundtrips doubles, so the column identity
        # i_dot = g_diff + bath_term survives the file verbatim
        np.testing.assert_array_equal(data[:, 1], data[:, 2] + data[:, 3])

    def test_structural_checks_pass(self, first_run):
        out, _ = first_run
        checks = json.loads((out / "checks.json").read_text(encoding="utf-8"))
        assert set(checks) == {"fullmodel", "invariants"}
        by_name = {rec["name"]: rec for rec in checks["invariants"]}
        # deterministic identities must hold even for this tiny ensemble;
        # the z-score and rms gates are sized for the full N=3600 run
        for name in ("photocurrent_identity", "filter_inversion_max_abs",
                     "theta_mean_t0_abs_dev"):
            assert by_name[name]["pass"], by_name[name]
        assert all(rec["pass"] for rec in checks["fullmodel"])

    def test_manifest_contents(self, first_run):
        out, _ = first_run
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert set(manifest) == {"config", "versions", "wall_time_s", "stage_wall_s",
                                 "peak_rss_mb", "ensemble_steps", "ensemble_t_final",
                                 "lane_steps_per_s", "kernel_layer_s", "files"}
        assert manifest["ensemble_steps"] == 20000
        assert manifest["ensemble_t_final"] == pytest.approx(SMALL_RUN["t_final"], rel=1e-12)
        assert manifest["config"]["n_traj"] == 40
        assert manifest["config"]["master_seed"] == 77
        assert set(manifest["versions"]) == {"python", "numpy", "retrodyn"}
        assert manifest["versions"]["numpy"] == np.__version__
        assert manifest["versions"]["retrodyn"] == rd.__version__
        assert manifest["lane_steps_per_s"] == pytest.approx(
            SMALL_RUN["n_traj"] * round(SMALL_RUN["t_final"] / SMALL_RUN["dt"])
            / manifest["stage_wall_s"]["simulate"], rel=1e-12)
        assert manifest["files"] == sorted(DETERMINISTIC_FILES)

    def test_manifest_names_the_horizon_that_ran(self, tmp_path):
        # 30 007 steps of 0.1 us at decimation 10: the ensemble runs the 30 000
        # steps of 3000 whole windows, and the manifest records them beside
        # the configured horizon it echoes.
        out = tmp_path / "ragged"
        cfg = small_config(out, dt=1e-7, t_final=3.0007e-3, decimation=10)
        assert cfg.grid().n_steps == 30007
        run_experiment(cfg)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["t_final"] == 3.0007e-3
        assert manifest["ensemble_steps"] == 30000
        assert manifest["ensemble_t_final"] == pytest.approx(3e-3, rel=1e-12)
        assert manifest["lane_steps_per_s"] == pytest.approx(
            40 * 30000 / manifest["stage_wall_s"]["simulate"], rel=1e-12)

    def test_manifest_records_stages_and_peak_rss(self, tmp_path):
        out = tmp_path / "one_chunk"
        run_experiment(small_config(out, chunk_size=SMALL_RUN["n_traj"]))
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        stages = manifest["stage_wall_s"]
        assert set(stages) == {"emit", "simulate", "reconstruct", "thermo",
                               "check-fullmodel"}
        assert all(0.0 < s < manifest["wall_time_s"] for s in stages.values())
        assert set(manifest["peak_rss_mb"]) == {"self", "children"}
        assert manifest["peak_rss_mb"]["self"] > 0.0
        # The telemetry lives in manifest.json alone: the products keep
        # their bytes.
        assert _digests(out) == SMALL_RUN_DIGESTS

    def test_kernel_layer_times_leave_the_products_alone(self, tmp_path, monkeypatch):
        def run(name):
            out = tmp_path / name
            run_experiment(small_config(out, chunk_size=SMALL_RUN["n_traj"]))
            return _digests(out), json.loads((out / "manifest.json").read_text(encoding="utf-8"))

        digests, manifest = run("timed")
        layers = manifest["kernel_layer_s"]
        assert set(layers) == {"chunk_setup", "draws", "window_sums", "node_recursion",
                               "route_check", "backward_steps", "fold"}
        assert all(s > 0.0 for s in layers.values())
        assert sum(layers.values()) < manifest["stage_wall_s"]["simulate"]
        # A clock that jumps on every read moves the timings, not the bytes.
        jumps = iter(range(10**9))
        monkeypatch.setattr(pipeline, "time", types.SimpleNamespace(
            perf_counter=lambda: time.perf_counter() + 0.37 * next(jumps)))
        skewed, manifest = run("skewed")
        # One block: the draws lap reads the clock's jump once.
        assert manifest["kernel_layer_s"]["draws"] > 0.37 > layers["draws"]
        assert digests == skewed == SMALL_RUN_DIGESTS

    def test_variance_csv_tracks_riccati(self, first_run):
        out, result = first_run
        data = np.loadtxt(out / "variance.csv", delimiter=",", skiprows=1)
        n = result.ev.grid.n_steps + 1
        assert data.shape == (n, 4)
        np.testing.assert_array_equal(data[:, 1], result.v_riccati[:n])
        np.testing.assert_array_equal(data[:, 2], result.v_rec)

    def test_variance_csv_initial_value(self, first_run):
        # first reconstructed point recovers the unconditional variance
        out, _ = first_run
        data = np.loadtxt(out / "variance.csv", delimiter=",", skiprows=1)
        t, _, v_rec0, stderr0 = data[0]
        assert t == 0.0
        assert abs(v_rec0 - 33.45) <= 3.0 * stderr0


class TestStreamedRun:
    """run_experiment folds its ensemble lane by lane instead of stacking it."""

    def test_products_equal_public_reductions(self, first_run, params):
        # The run folds chunks of 10 lanes; here all 40 lanes are one chunk.
        _, result = first_run
        cfg = result.config
        d, theta = _chunk_lanes(cfg)
        assert d.shape[1] > 0  # the valid window
        v_out = result.v_riccati
        ev = rd.difference_variance([_difference_path(result.grid_out, d)])
        rates = rd.ensemble_average_rates(theta, v_out, result.grid_out, params)
        phi_c, pi_c = rd.theta_rates(theta, v_out, params)
        assert result.ev.grid == ev.grid and result.ev.n_samples == ev.n_samples
        assert _bitwise_equal(result.ev.v_d, ev.v_d)
        assert _bitwise_equal(result.ev.stderr, ev.stderr)
        assert result.rates.n_samples == rates.n_samples
        for name in ("phi_c", "pi_c", "i_dot", "g_diff", "stderr_phi_c", "stderr_pi_c"):
            assert _bitwise_equal(getattr(result.rates, name), getattr(rates, name)), name
        assert _bitwise_equal(result.display_phi, phi_c[:cfg.n_display])
        assert _bitwise_equal(result.display_pi, pi_c[:cfg.n_display])
        by_name = {rec["name"]: rec["value"] for rec in result.checks["invariants"]}
        b = collect_ensemble(cfg)
        assert by_name["photocurrent_identity"] == b.photocurrent_residual
        assert by_name["filter_inversion_max_abs"] == b.inversion_max_abs

    def test_display_lanes_span_chunks(self, params, tmp_path):
        # Five display lanes over chunks of two: the kept lanes of the third
        # chunk end inside it.
        cfg = default_config(out_dir=str(tmp_path), n_traj=8, t_final=3e-4,
                             chunk_size=2, n_display=5, n_workers=1,
                             pipelines=("thermo",))
        result = run_experiment(cfg)
        phi_c, pi_c = rd.theta_rates(_chunk_lanes(cfg)[1], result.v_riccati, params)
        assert _bitwise_equal(result.display_phi, phi_c[:5])
        assert _bitwise_equal(result.display_pi, pi_c[:5])

    def test_peak_memory_does_not_grow_with_n_traj(self, tmp_path):
        # Fixed chunks, so the per-chunk working set is the same at both N;
        # a stacked ensemble would make the peak grow about fourfold.
        def peak(n_traj):
            cfg = default_config(out_dir=str(tmp_path / str(n_traj)), n_traj=n_traj,
                                 t_final=3e-4, chunk_size=60, n_workers=1,
                                 pipelines=("thermo",))
            tracemalloc.start()
            try:
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(960) < 1.5 * peak(240)

    def test_theta_identity_nodes_are_exact_at_large_n(self, tmp_path):
        # A lane-axis numpy mean of 5000 identical node-0 values drifted
        # past the 1e-12 bound; the fold reproduces a common value exactly.
        cfg = default_config(out_dir=str(tmp_path), n_traj=5000, t_final=3e-4,
                             n_workers=1, pipelines=("thermo",))
        by_name = {rec["name"]: rec for rec in run_experiment(cfg).checks["invariants"]}
        assert by_name["theta_mean_t0_abs_dev"]["value"] == 0.0
        assert all(rec["pass"] for rec in by_name.values()), by_name

    @pytest.mark.parametrize("n_th, eta_det", [(1e7, 1e-6), (14.0, 1e-12)],
                             ids=["hot", "weakly-measured"])
    def test_theta_sums_follow_the_expected_spread(self, tmp_path, n_th, eta_det):
        # theta - V scatters by about V_uc - V: near 1e7 for a hot resonator,
        # near 1e-13 under a weak measurement. The grid scales with it, so
        # neither leaves the sums' range nor rounds every lane to V.
        p = rd.PhysParams(**{**vars(rd.default_params()), "n_th": n_th, "eta_det": eta_det})
        cfg = rd.ExperimentConfig(params=p, out_dir=str(tmp_path), n_traj=40, t_final=1e-3,
                                  n_workers=1, pipelines=("thermo",))
        by_name = {rec["name"]: rec for rec in run_experiment(cfg).checks["invariants"]}
        assert all(rec["pass"] for rec in by_name.values()), by_name

    def test_corrupted_photocurrent_fails_its_check(self, tmp_path, monkeypatch):
        def wrong_sign(r_start, dw, c, dt, out=None):
            return np.divide(dw - c * r_start * dt, dt, out=out)

        monkeypatch.setattr(dynamics, "_photocurrent", wrong_sign)
        cfg = default_config(out_dir=str(tmp_path), n_traj=4, t_final=2e-4,
                             chunk_size=2, n_workers=1, pipelines=("thermo",))
        by_name = {rec["name"]: rec for rec in run_experiment(cfg).checks["invariants"]}
        rec = by_name["photocurrent_identity"]
        assert not rec["pass"] and rec["value"] > 1e-3, rec


class _ShuffledPool:
    """A pool stub that runs every job here and hands the results back in a
    shuffled order; delivered records the first lane of each, in that order."""

    delivered: list = []

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, jobs):
        parts = [fn(job) for job in jobs]
        np.random.default_rng(5).shuffle(parts)
        self.delivered.extend(part[0] for part in parts)
        return parts


class TestStagesAndEmit:
    def test_fullmodel_only_run(self, tmp_path):
        cfg = default_config(out_dir=str(tmp_path), pipelines=("fullmodel",))
        result = run_experiment(cfg)
        assert sorted(result.files) == ["checks.json", "manifest.json"]
        assert result.ev is None and result.rates is None
        # No ensemble ran, so there is no throughput to report.
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert not {"ensemble_steps", "ensemble_t_final", "lane_steps_per_s"} & set(manifest)
        with pytest.raises(rd.ValidationError, match="fig1"):
            emit_figure_data(result, "fig1")
        with pytest.raises(rd.ValidationError, match="fig2"):
            emit_figure_data(result, "fig2")
        with pytest.raises(rd.ValidationError, match="ensemble"):
            emit_figure_data(result, "fig3")
        with pytest.raises(rd.ValidationError, match="which"):
            emit_figure_data(result, "fig9")

    def test_stage_times_survive_a_coarse_monotonic_clock(self, tmp_path, monkeypatch):
        # time.monotonic ticks every 15.6 ms on Windows before Python 3.13,
        # longer than this whole run; its simulate stage must still time
        # nonzero, or lane_steps_per_s divides by zero.
        tick, start = 0.015625, time.monotonic()
        coarse = types.SimpleNamespace(
            monotonic=lambda: start + tick * ((time.monotonic() - start) // tick),
            perf_counter=time.perf_counter)
        monkeypatch.setattr(pipeline, "time", coarse)
        run_experiment(default_config(out_dir=str(tmp_path), n_traj=2, t_final=2e-6,
                                      pipelines=("thermo",), n_workers=1))
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert math.isfinite(manifest["lane_steps_per_s"])
        assert manifest["lane_steps_per_s"] > 0.0

    def test_a_lane_past_the_exact_sums_names_its_stage(self, tmp_path, monkeypatch):
        # A lane that diverged, here to an infinite theta, cannot enter the
        # exact sums: its chunk stops the run in the stage that made it.
        fold = estimation._ExactMoments.fold

        def diverging(moments, part, x, at):
            if part.ndim == 3:  # theta's sums: (lane blocks, 4, nodes)
                x[-1, -1] = np.inf
            fold(moments, part, x, at)

        monkeypatch.setattr(estimation._ExactMoments, "fold", diverging)
        cfg = default_config(out_dir=str(tmp_path), n_traj=4, t_final=2e-5, chunk_size=2,
                             n_workers=1, pipelines=("thermo",))
        with pytest.raises(rd.NumericsError,
                           match="stage 'simulate': an ensemble value lies inf .* exact sums"):
            run_experiment(cfg)

    def test_failing_stage_is_named(self, tmp_path):
        # horizon shorter than the backward burn-in leaves no valid window
        cfg = default_config(out_dir=str(tmp_path), n_traj=4, t_final=1.2e-3,
                             pipelines=("reconstruct",), chunk_size=4)
        with pytest.raises(rd.StatisticsError, match="stage 'reconstruct'"):
            run_experiment(cfg)


def _write_cfg(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCli:
    def test_simulate_writes_trajectories(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = cli.main(["simulate", "--out", str(out), "--trajectories", "2",
                         "--dt", "2e-7", "--t-final", "1e-4", "--seed", "5"])
        assert code == 0
        captured = capsys.readouterr()
        assert "wrote 2 trajectories" in captured.out
        for j in range(2):
            path = out / f"trajectory_{j:03d}.csv"
            assert path.exists()
            with open(path, "r", encoding="utf-8") as fh:
                assert fh.readline().rstrip("\n") == "t,rx,ry,v,ix,iy"

    def test_simulated_record_filters_again(self, tmp_path):
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--out", str(out), "--trajectories", "1",
                         "--t-final", "2e-3"]) == 0
        p = default_config().params
        traj = rd.read_trajectory_csv(out / "trajectory_000.csv", p)
        assert traj.grid.n_steps == 20000
        fp = rd.filter_record(traj.photocurrent, p, traj.grid)
        assert np.max(np.abs(fp.r_hat - traj.r)) < 1e-9

    def test_simulate_is_seed_reproducible(self, tmp_path):
        args = ["simulate", "--trajectories", "1", "--dt", "2e-7",
                "--t-final", "1e-4", "--seed", "5"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert (a / "trajectory_000.csv").read_bytes() == \
               (b / "trajectory_000.csv").read_bytes()

    def test_check_fullmodel_passes_on_reference(self, tmp_path, capsys):
        out = tmp_path / "fm"
        assert cli.main(["check-fullmodel", "--out", str(out)]) == 0
        assert (out / "checks.json").exists()
        assert (out / "manifest.json").exists()
        assert "checks.json" in capsys.readouterr().out

    def test_check_fullmodel_fails_on_bad_cavity(self, tmp_path, capsys):
        # kappa only 10 omega_m: the eliminated-cavity description is poor
        # and the mechanical-marginal record must fail
        qba = 2.0 * math.pi * 360.0
        kappa = 2.0 * math.pi * 1.14e7
        g = math.sqrt(qba * kappa / 4.0)
        cfg = _write_cfg(tmp_path / "bad.cfg", (
            "gamma_m_hz = 19.0\nn_th = 14.0\ngamma_qba_hz = 360.0\n"
            "eta_det = 0.74\nomega_m_hz = 1.14e6\nkappa_hz = 1.14e7\n"
            f"g = {g!r}\ndelta = 0.0\n"))
        code = cli.main(["check-fullmodel", "--config", cfg,
                         "--out", str(tmp_path / "fm")])
        assert code == 1
        err = capsys.readouterr().err
        assert "failed checks" in err and "mech_marginal_vs_v_uc" in err

    def test_config_errors_exit_2(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "bad.cfg", "dt = fast\n")
        assert cli.main(["thermo", "--config", cfg]) == 2
        assert "retrodyn: stage 'config':" in capsys.readouterr().err
        assert cli.main(["all", "--dt", "1e-5"]) == 2
        assert "too coarse" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, match", [
        ("--t-final", "nan", "t_final must be finite"),
        ("--t-final", "inf", "t_final must be finite"),
        ("--dt", "nan", "dt must be finite and > 0"),
        ("--dt", "0", "dt must be finite and > 0"),
    ])
    def test_non_finite_grid_exits_2(self, tmp_path, capsys, flag, value, match):
        assert cli.main(["thermo", flag, value, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "retrodyn: stage 'config':" in err and match in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("tail_fraction", ["0", "-0.2", "1.5", "nan"])
    def test_tail_fraction_out_of_range_exits_2(self, tmp_path, capsys, tail_fraction):
        # A small run, so a validator that lets the value through fails fast.
        cfg = _write_cfg(tmp_path / "tail.cfg", (
            f"tail_fraction = {tail_fraction}\nn_traj = 4\ndt = 2e-7\nt_final = 4e-3\n"
            "decimation = 20\nn_workers = 1\n"))
        out = tmp_path / "o"
        assert cli.main(["reconstruct", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "retrodyn: stage 'config': tail_fraction must lie in (0, 1]" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, stage", [("simulate", "simulate"),
                                                ("check-fullmodel", "emit")])
    def test_out_naming_a_file_exits_1(self, tmp_path, capsys, command, stage):
        out = tmp_path / "taken"
        out.write_text("not a directory", encoding="utf-8")
        assert cli.main([command, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"retrodyn: stage '{stage}':" in err
        assert "cannot create output directory" in err

    def test_unwritable_trajectory_exits_1(self, tmp_path, capsys):
        out = tmp_path / "sim"
        (out / "trajectory_000.csv").mkdir(parents=True)
        code = cli.main(["simulate", "--out", str(out), "--trajectories", "1",
                         "--dt", "2e-7", "--t-final", "1e-4"])
        assert code == 1
        err = capsys.readouterr().err
        assert "retrodyn: stage 'simulate': IsADirectoryError" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, args, match", [
        ("reconstruct", ["--trajectories", "1"], "an ensemble needs n_traj >= 2"),
        ("thermo", ["--trajectories", "1"], "an ensemble needs n_traj >= 2"),
        ("reconstruct", ["--trajectories", "4", "--t-final", "1e-4"], "no valid window"),
        ("all", ["--trajectories", "4", "--t-final", "1e-4"], "no valid window"),
        ("thermo", ["--trajectories", "2", "--t-final", "5e-7"], "one decimation window"),
        ("reconstruct", ["--trajectories", "2", "--t-final", "5e-7"], "one decimation window"),
    ])
    def test_ensemble_that_cannot_run_exits_2(self, tmp_path, capsys, command, args,
                                              match):
        out = tmp_path / "o"
        assert cli.main([command, "--out", str(out)] + args) == 2
        err = capsys.readouterr().err
        assert "retrodyn: stage 'config':" in err and match in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "check-fullmodel"])
    def test_short_horizon_without_an_ensemble_runs(self, tmp_path, command):
        # 5 steps, under one decimation window: only an ensemble needs one.
        out = tmp_path / "o"
        assert cli.main([command, "--trajectories", "2", "--t-final", "5e-7",
                         "--out", str(out)]) == 0
        assert out.is_dir()

    def test_unwritable_product_exits_1(self, tmp_path, capsys):
        out = tmp_path / "rec"
        (out / "variance.csv").mkdir(parents=True)
        code = cli.main(["reconstruct", "--out", str(out), "--trajectories", "4",
                         "--dt", "2e-7", "--t-final", "4e-3", "--seed", "77"])
        assert code == 1
        err = capsys.readouterr().err
        assert "retrodyn: stage 'emit': IsADirectoryError" in err

    def test_failed_emit_leaves_out_dir_as_it_was(self, tmp_path, capsys):
        out = tmp_path / "rec"
        (out / "variance.csv").mkdir(parents=True)
        (out / "reconstruction.csv").write_text("an earlier run\n", encoding="utf-8")
        listing, siblings = sorted(os.listdir(out)), sorted(os.listdir(tmp_path))
        code = cli.main(["reconstruct", "--out", str(out), "--trajectories", "4",
                         "--dt", "2e-7", "--t-final", "4e-3", "--seed", "77"])
        assert code == 1
        assert "retrodyn: stage 'emit': IsADirectoryError" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == listing
        assert (out / "reconstruction.csv").read_text(encoding="utf-8") == "an earlier run\n"
        assert sorted(os.listdir(tmp_path)) == siblings  # no staging directory is left

    @pytest.mark.parametrize("exc", [BrokenProcessPool("a worker died"),
                                     MemoryError("out of memory")])
    def test_pool_failure_exits_1(self, tmp_path, capsys, monkeypatch, exc):
        class FailingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, jobs):
                raise exc

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FailingPool)
        cfg = _write_cfg(tmp_path / "pool.cfg",
                         "n_workers = 2\nchunk_size = 2\nn_traj = 4\nt_final = 1e-4\n")
        assert cli.main(["thermo", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"retrodyn: stage 'simulate': {type(exc).__name__}" in err

    def test_pool_never_exceeds_the_chunk_count(self, tmp_path, monkeypatch):
        # A process pool forks all its workers at once; idle ones cost memory.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = default_config(out_dir=str(tmp_path), n_workers=64, n_traj=4,
                             chunk_size=2, t_final=1e-4, pipelines=("thermo",))
        run_experiment(cfg)
        assert sizes == [2]

    def test_pipeline_failure_exits_1(self, tmp_path, capsys):
        # The whole valid window as the tail spans the decay of V(t), so the
        # stationarity test fails inside the reconstruct stage. (A horizon
        # inside the burn-in is refused earlier, in stage 'config'.) At 200
        # trajectories the decay stands well above the tail's standard
        # error; at 40 it can hide in the noise of one draw.
        cfg = _write_cfg(tmp_path / "tail.cfg", "tail_fraction = 1.0\nn_workers = 1\n")
        code = cli.main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "r"),
                         "--trajectories", "200", "--dt", "2e-7",
                         "--t-final", "2.5e-3"])
        assert code == 1
        err = capsys.readouterr().err
        assert "retrodyn: stage 'reconstruct':" in err

    def test_reconstruct_reports_estimate(self, tmp_path, capsys):
        out = tmp_path / "rec"
        code = cli.main(["reconstruct", "--out", str(out),
                         "--trajectories", "40", "--dt", "2e-7",
                         "--t-final", "4e-3", "--seed", "77"])
        captured = capsys.readouterr()
        assert "v_ss_est" in captured.out
        assert (out / "variance.csv").exists()
        assert (out / "reconstruction.csv").exists()
        # this small ensemble cannot beat the full-run rms gate; the run
        # still completes and reports the failing record via the exit code
        assert code in (0, 1)
