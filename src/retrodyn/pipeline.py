"""End-to-end experiment runner: ensembles, reconstruction, rate statistics.

run_experiment turns a configuration into the figure-ready data products:

    variance.csv        t, Riccati variance, reconstructed variance, stderr
    reconstruction.csv  t, v_d, stderr, v_rec (difference-variance view)
    entropy_rates.csv   t, ensemble means/stderr and display sample paths
    information.csv     t, i_dot, g_diff, bath_term
    checks.json         consistency-check records for CI
    manifest.json       config echo, versions, wall time

Everything except manifest.json is a pure function of the configuration:
trajectories are keyed (master_seed, stream) with stream = trajectory index,
and every ensemble reduction is a lane-order fold. One function, _ensemble,
runs every ensemble: chunk results arrive in stream-index order and each is
folded lane by lane into the per-node running moments (count, mean, M2;
Welford's update) of one EnsembleBundle, which also keeps the chunk's lanes
below n_kept; then the chunk is dropped. Only r_hat - r_b and theta = V +
r.r/2 are folded: the entropy rates, affine in theta, are derived from its
moments and the display paths from its kept lanes, as in
difference_variance and ensemble_average_rates, so a run's products equal
theirs on collect_ensemble, which keeps every lane, bit for bit;
byte-identical files come out regardless of how many workers run the
chunks and how large the chunks are, and a run's memory does not grow with
the ensemble size. The manifest records wall time, the wall seconds of
each stage, peak RSS and library versions, and is the one file expected
to differ between reruns.

The Riccati series is solved once per ensemble and shared by every chunk.
A chunk runs as one time-major pass over blocks of steps, laid out
(steps, lanes, 2): noise draws, synthesis, photocurrent and prediction
filter. It keeps theta at the decimated nodes and, when the reconstruction
runs, r_hat there and one retrodiction window sum per node for the backward
filter, and returns r_hat - r_b on the valid nodes; the synthesized means
themselves are not kept, and no array of a chunk is full-resolution. Its
block buffers are allocated once per chunk and sized by a lane-step
budget, so a wider chunk takes shorter blocks. The kernel uses the same
step helpers as simulate_batch, forward_filter and backward_filter(...,
decimation), so every lane is bit-identical to the public lane-major path.
"""

from __future__ import annotations

import math
import os
import platform
import sys
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import dynamics, estimation, thermo
from ._io import check_record, make_out_dir, write_csv, write_json
from .dynamics import (DEFAULT_DECIMATION, DEFAULT_DT, DEFAULT_T_FINAL, PHOTOCURRENT_TOL,
                       TimeGrid, check_grid)
from .errors import (ConfigError, ResourceError, RetrodynError, StatisticsError,
                     ValidationError)
from .estimation import EnsembleVariance, _LaneMoments
from .fullmodel import adiabatic_consistency_check
from .model import PhysParams, derive_rates, load_config, validate_params
from .thermo import EnsembleRates

__all__ = [
    "ExperimentConfig",
    "RunResult",
    "EnsembleBundle",
    "default_params",
    "default_config",
    "config_from_mapping",
    "config_from_file",
    "collect_ensemble",
    "run_experiment",
    "emit_figure_data",
]

#: Trajectories per chunk: the unit of work handed to a worker. Reductions
#: fold lane by lane in stream-index order, so the chunk size leaves the
#: bytes alone.
DEFAULT_CHUNK_SIZE = 450

#: Lanes j below this are checked against the photocurrent identity,
#: whatever chunks hold them: at the default chunk size, the first chunk.
_PHOTOCURRENT_LANES = 450

#: Lane-steps per time-major block of the chunk kernel: one block array
#: stays at about 3.6 MB whatever the chunk width. Rounded to whole
#: decimation windows, blocks leave the bytes alone.
_BLOCK_LANE_STEPS = 225_000

DEFAULT_N_TRAJ = 3600
DEFAULT_MASTER_SEED = 1234
DEFAULT_N_DISPLAY = 10

VARIANCE_CSV_HEADER = "t,v_riccati,v_reconstructed,stderr"
INFORMATION_CSV_HEADER = "t,i_dot,g_diff,bath_term"

_PIPELINE_NAMES = ("reconstruct", "thermo", "fullmodel")


def default_params() -> PhysParams:
    """Reference parameter set used throughout the tests and demos."""
    two_pi = 2.0 * math.pi
    return PhysParams(
        gamma_m=two_pi * 19.0,
        n_th=14.0,
        gamma_qba=two_pi * 360.0,
        eta_det=0.74,
        omega_m=two_pi * 1.14e6,
        kappa=two_pi * 18.5e6,
        g=two_pi * 40.8e3,
        delta=0.0,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything run_experiment needs, validated at construction."""

    params: PhysParams
    dt: float = DEFAULT_DT
    t_final: float = DEFAULT_T_FINAL
    n_traj: int = DEFAULT_N_TRAJ
    master_seed: int = DEFAULT_MASTER_SEED
    decimation: int = DEFAULT_DECIMATION
    out_dir: str = "out"
    mode: str = "exact"
    pipelines: tuple = _PIPELINE_NAMES
    n_display: int = DEFAULT_N_DISPLAY
    n_workers: int = 0
    chunk_size: int = DEFAULT_CHUNK_SIZE
    tail_fraction: float = estimation.DEFAULT_TAIL_FRACTION

    def __post_init__(self):
        if self.n_traj < 1:
            raise ConfigError(f"n_traj must be >= 1, got {self.n_traj!r}")
        if self.decimation < 1:
            raise ConfigError(f"decimation must be >= 1, got {self.decimation!r}")
        if self.mode not in ("exact", "paper-approx"):
            raise ConfigError(f"mode must be 'exact' or 'paper-approx', got {self.mode!r}")
        if self.n_display < 0:
            raise ConfigError(f"n_display must be >= 0, got {self.n_display!r}")
        if self.n_workers < 0:
            raise ConfigError(f"n_workers must be >= 0 (0 = auto), got {self.n_workers!r}")
        if self.chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {self.chunk_size!r}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be finite and > 0, got {self.dt!r}")
        if not math.isfinite(self.t_final):
            raise ConfigError(f"t_final must be finite, got {self.t_final!r}")
        if not 0.0 < self.tail_fraction <= 1.0:
            raise ConfigError(
                f"tail_fraction must lie in (0, 1], got {self.tail_fraction!r}")
        bad = [x for x in self.pipelines if x not in _PIPELINE_NAMES]
        if bad:
            raise ConfigError(
                f"unknown pipelines: {', '.join(map(str, bad))}; "
                f"choose from {', '.join(_PIPELINE_NAMES)}"
            )
        object.__setattr__(self, "pipelines", tuple(self.pipelines))
        if self.n_traj < 2 and {"reconstruct", "thermo"} & set(self.pipelines):
            raise ConfigError(f"an ensemble needs n_traj >= 2, got {self.n_traj!r}")
        check_grid(self.params, self.grid())

    def grid(self) -> TimeGrid:
        n_steps = int(round(self.t_final / self.dt))
        if n_steps < 1:
            raise ConfigError(
                f"t_final = {self.t_final!r} spans no steps at dt = {self.dt!r}"
            )
        return TimeGrid(t0=0.0, dt=self.dt, n_steps=n_steps)

    def echo(self) -> dict:
        """Flat mapping of every setting, for the manifest."""
        out = asdict(self)
        out.update(out.pop("params"))
        out["pipelines"] = ",".join(self.pipelines)
        return out


#: Run settings by name, with the type of their default (str, int, ...).
_RUN_KEYS = {f.name: type(f.default) for f in fields(ExperimentConfig)
             if f.name != "params"}


def default_config(out_dir: str = "out", **overrides) -> ExperimentConfig:
    """Reference configuration: N=3600 ensemble at dt=1e-7 s over 3 ms."""
    return ExperimentConfig(params=default_params(), out_dir=out_dir, **overrides)


def config_from_mapping(raw: dict, **overrides) -> ExperimentConfig:
    """Build an ExperimentConfig from flat string (or typed) key-value pairs.

    Keys not in the run-setting list are handed to the physics-parameter
    validator, so one file carries both. overrides (typed) win over the
    mapping; None overrides are ignored.
    """
    raw = dict(raw)
    run: dict = {}
    for key in list(raw):
        if key in _RUN_KEYS:
            run[key] = raw.pop(key)
    params = validate_params(raw) if raw else default_params()

    try:
        for key, kind in _RUN_KEYS.items():
            if key in run and kind in (int, float):
                run[key] = kind(run[key])
    except ValueError as exc:
        raise ConfigError(f"bad numeric value in config: {exc}") from exc
    if "pipelines" in run:
        val = run["pipelines"]
        if isinstance(val, str):
            run["pipelines"] = tuple(s.strip() for s in val.split(",") if s.strip())
    for key, val in overrides.items():
        if val is not None:
            run[key] = val
    return ExperimentConfig(params=params, **run)


def config_from_file(path, **overrides) -> ExperimentConfig:
    """Read a flat key = value config file (physics and run settings mixed)."""
    return config_from_mapping(load_config(path), **overrides)


@dataclass
class EnsembleBundle:
    """What an ensemble run keeps: per-node lane moments, its first lanes
    and the kernel's check values.

    d_moments holds the moments of r_hat - r_b on the valid window (nodes
    0 <= k < valid_stop) and stays empty without retrodiction; theta_moments
    those of theta = V + r.r/2. theta keeps its first n_kept lanes, shape
    (n_kept, n_out + 1); r_hat and r_b keep every lane, shape (n_traj,
    n_out + 1, 2), in collect_ensemble only, and are None otherwise. The
    synthesized means r are not stored: r_hat equals them to
    inversion_max_abs. grid_out is the decimated grid; v_out the Riccati
    solution on it. photocurrent_residual is max |i dt - c r dt - dw| /
    sqrt(dt) over the lanes j < _PHOTOCURRENT_LANES: the increments
    recovered from the photocurrent, as read_trajectory_csv recovers them,
    against the Philox draws.
    """

    grid_out: TimeGrid
    v_out: np.ndarray
    valid_stop: int | None
    r_hat: np.ndarray | None
    r_b: np.ndarray | None
    theta: np.ndarray
    d_moments: _LaneMoments = field(default_factory=_LaneMoments)
    theta_moments: _LaneMoments = field(default_factory=_LaneMoments)
    inversion_max_abs: float = 0.0
    photocurrent_residual: float = 0.0

    def _fold(self, bounds, results) -> None:
        """Fold the chunk results (_compute_chunk) for lanes lo <= j < hi of
        each (lo, hi) in bounds, in that order, lane by lane."""
        for lo, hi in bounds:
            d, r_hat, r_b, theta, inv_max, photo_err = next(results)
            if d is not None:
                self.d_moments.fold(d)
            if r_hat is not None:
                self.r_hat[lo:hi], self.r_b[lo:hi] = r_hat, r_b
            self.theta_moments.fold(theta)
            k = max(min(hi, len(self.theta)) - lo, 0)
            self.theta[lo:lo + k] = theta[:k]
            self.inversion_max_abs = float(np.maximum(self.inversion_max_abs, inv_max))
            self.photocurrent_residual = float(np.maximum(self.photocurrent_residual,
                                                          photo_err))
            # Drop the chunk's lanes before the next chunk is computed.
            del d, r_hat, r_b, theta


def _compute_chunk(args):
    """Simulate, filter, and decimate one chunk of trajectories.

    One time-major pass over blocks of whole decimation windows draws the
    noise, synthesizes the means and the photocurrent, runs the prediction
    filter and keeps only max |r_hat - r| and, at the decimated nodes, theta
    = V + r.r/2 and, with retrodiction, r_hat and the retrodiction window
    sums, which the backward recursion then turns into r_b in place. Every
    lane's bits equal the lane-major public path (simulate_batch,
    forward_filter, backward_filter(..., decimation)). The chunk also returns
    max |i dt - c r dt - dw| / sqrt(dt) over its first n_photo lanes, the
    increments recovered from the photocurrent against the draws (0.0 when
    n_photo is 0).

    Returns (d, r_hat, r_b, theta, inv_max, photo_err), lane-major: d =
    r_hat - r_b on the valid nodes k < valid_stop, shape (lanes, valid_stop,
    2), r_hat and r_b on every node, and theta, shape (lanes, nodes). d,
    r_hat and r_b are None without retrodiction (valid_stop None), and r_hat
    and r_b also without keep. Top-level so process pools can pickle it.
    Results depend only on args, never on which worker runs them.
    """
    (p, grid, v_nodes, v_mids, master_seed, lo, hi, decim, valid_stop, keep,
     n_photo) = args
    n, dt, lanes = grid.n_steps, grid.dt, hi - lo
    c, amp, efac = dynamics._mean_coefficients(p, dt, v_mids)
    gens = [dynamics.trajectory_rng(master_seed, s) for s in range(lo, hi)]
    n_nodes = n // decim + 1
    theta = np.empty((lanes, n_nodes))
    theta[:, 0] = v_nodes[0]  # r(0) = 0 on every lane
    retrodict = valid_stop is not None
    if retrodict:
        afac, bcoef = estimation._backward_coefficients(p, dt)
        rh_dec = np.zeros((n_nodes if keep else valid_stop, lanes, 2))
        rb_dec = np.zeros((n_nodes, lanes, 2))  # window sums, then r_b
    block = min(decim * max(1, _BLOCK_LANE_STEPS // (lanes * decim)), n)
    # buf holds the raw draws, then the photocurrent and i dt, then r_hat -
    # r; r_hat rows 1..m hold the increments until the filter overwrites them.
    buf = np.empty((block, lanes, 2))
    r, r_hat = np.zeros((block + 1, lanes, 2)), np.zeros((block + 1, lanes, 2))
    inv_max, photo_err = 0.0, 0.0
    for s0 in range(0, n, block):
        s1 = min(s0 + block, n)
        m = s1 - s0
        dw = r_hat[1:m + 1]
        dynamics._draw_increments(gens, dt, dw, buf)
        dynamics._synthesis_steps(r[:m + 1], dw, amp[s0:s1], efac)
        photo = dynamics._photocurrent(r[:m], dw, c, dt, out=buf[:m])
        if n_photo:
            photo_err = np.maximum(photo_err, dynamics._photocurrent_residual(
                photo[:, :n_photo], r[:m, :n_photo], dw[:, :n_photo], c, dt))
        idt = np.multiply(photo, dt, out=photo)
        if retrodict:
            estimation._window_sums(rb_dec[s0 // decim:], idt, afac, bcoef, decim)
        estimation._forward_steps(r_hat[:m + 1], idt, amp[s0:s1], efac, c, dt)
        diff = np.subtract(r_hat[1:m + 1], r[1:m + 1], out=buf[:m])
        inv_max = np.maximum(inv_max, np.abs(diff, out=diff).max())
        # s0 is a whole number of windows: the block's decimated nodes
        # s0 < k <= s1 are its rows decim, 2 decim, ...
        rows, out = slice(decim, m + 1, decim), slice(s0 // decim + 1, s1 // decim + 1)
        r_dec = r[rows]
        theta[:, out] = (v_nodes[s0 + decim:s1 + 1:decim, None]
                         + 0.5 * np.sum(r_dec * r_dec, axis=-1)).T
        if retrodict:
            kept = rh_dec[out]
            kept[:] = r_hat[rows][:len(kept)]
        r[0], r_hat[0] = r[m], r_hat[m]
    # Free the block buffers, and every view of them, before the results.
    del buf, r, r_hat, dw, photo, idt, diff, r_dec
    d = r_hat = r_b = None
    if retrodict:
        # In place: each window sum is read just before its r_b replaces it.
        estimation._backward_steps(rb_dec, rb_dec[:-1], afac ** decim)
        if keep:
            r_hat, r_b = dynamics._swap_pairs(rh_dec), dynamics._swap_pairs(rb_dec)
        valid = rh_dec[:valid_stop]
        d = dynamics._swap_pairs(np.subtract(valid, rb_dec[:valid_stop], out=valid))
    return d, r_hat, r_b, theta, float(inv_max), float(photo_err)


def _in_order(pool, jobs, depth: int):
    """The chunk results of jobs from pool, in job order, with at most depth
    submitted and not yet yielded: finished chunks do not pile up here."""
    pending = deque()
    for job in jobs:
        if len(pending) == depth:
            yield pending.popleft().result()
        pending.append(pool.submit(_compute_chunk, job))
    while pending:
        yield pending.popleft().result()


def _ensemble(p: PhysParams, grid: TimeGrid, n_traj: int, master_seed: int,
              decimation: int, chunk_size: int, n_workers: int, retrodict: bool,
              n_kept: int, keep_filtered: bool) -> EnsembleBundle:
    """Run a seeded ensemble chunk by chunk and fold it into an EnsembleBundle.

    The Riccati series is solved once and shared by every chunk. Chunks run
    here or, for n_workers > 1 (0 = one per available CPU), in a process
    pool with at most one chunk per worker waiting beyond those running, and
    are folded in stream-index order as they arrive, then dropped; the
    bundle keeps the first n_kept theta lanes and, with keep_filtered, every
    r_hat and r_b lane.
    """
    if n_traj < 2:
        raise ValidationError(f"an ensemble needs n_traj >= 2, got {n_traj}")
    v_nodes = dynamics.solve_conditional_variance(p, grid, derive_rates(p).v_uc)
    v_mids = dynamics.conditional_variance_midpoints(p, v_nodes, grid.dt)
    bounds = [(lo, min(lo + chunk_size, n_traj)) for lo in range(0, n_traj, chunk_size)]
    grid_out = _decimated(grid, decimation)
    valid_stop = estimation._valid_stop(p, grid_out) if retrodict else None
    jobs = [(p, grid, v_nodes, v_mids, master_seed, lo, hi, decimation, valid_stop,
             keep_filtered, max(min(hi, _PHOTOCURRENT_LANES) - lo, 0))
            for lo, hi in bounds]
    filtered = (n_traj, grid_out.n_steps + 1, 2)
    bundle = EnsembleBundle(
        grid_out=grid_out, v_out=v_nodes[::decimation].copy(), valid_stop=valid_stop,
        r_hat=np.empty(filtered) if keep_filtered else None,
        r_b=np.empty(filtered) if keep_filtered else None,
        theta=np.empty((n_kept, grid_out.n_steps + 1)))
    if n_workers == 0:
        n_workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
    if n_workers > 1 and len(jobs) > 1:
        # The pool starts all its workers at once: no more than jobs.
        n_workers = min(n_workers, len(jobs))
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            bundle._fold(bounds, _in_order(pool, jobs, n_workers + 1))
    else:
        bundle._fold(bounds, map(_compute_chunk, jobs))
    return bundle


def _decimated(grid: TimeGrid, decimation: int) -> TimeGrid:
    """The grid of every decimation-th node of grid."""
    return TimeGrid(t0=grid.t0, dt=grid.dt * decimation,
                    n_steps=grid.n_steps // decimation)


def _check_reconstruct_window(config: ExperimentConfig) -> None:
    """Refuse a reconstruction whose horizon leaves fewer than the 2 valid
    nodes its tail needs after the backward burn-in, before anything runs.

    The command line calls it with the config checks (exit 2, stage
    'config'). It raises the reconstruction's own StatisticsError and stays
    out of ExperimentConfig: refbench/selftest.py builds such a
    configuration and expects its runs to fail with that error.
    """
    if "reconstruct" not in config.pipelines:
        return
    grid_out = _decimated(config.grid(), config.decimation)
    n_valid = estimation._valid_stop(config.params, grid_out)
    if n_valid < 2:
        raise StatisticsError(
            f"no valid window is left after the backward burn-in: {n_valid} of "
            f"{grid_out.n_steps + 1} output nodes; the reconstruction needs 2, "
            "so extend t_final")


def collect_ensemble(p: PhysParams, grid: TimeGrid, n_traj: int, master_seed: int,
                     decimation: int = DEFAULT_DECIMATION,
                     chunk_size: int = DEFAULT_CHUNK_SIZE) -> EnsembleBundle:
    """Run the seeded ensemble in this process and keep every lane.

    Trajectory j uses stream index j under master_seed, so any sub-ensemble
    is bit-reproducible in isolation, and the result does not depend on
    chunk_size. The backward filter always runs, so the measurement-off
    limit eta_det = 0 raises RegimeError here (run_experiment's thermo
    pipeline covers it).
    """
    return _ensemble(p, grid, n_traj, master_seed, decimation, chunk_size,
                     n_workers=1, retrodict=True, n_kept=n_traj, keep_filtered=True)


@dataclass
class RunResult:
    """Aggregated outputs of one experiment run, with file locations."""

    config: ExperimentConfig
    grid_out: TimeGrid
    v_riccati: np.ndarray
    ev: EnsembleVariance | None
    v_rec: np.ndarray | None
    v_ss_est: float | None
    rates: EnsembleRates | None
    display_phi: np.ndarray | None
    display_pi: np.ndarray | None
    checks: dict
    files: dict
    wall_time_s: float


class _Stage:
    """Names the failing pipeline stage on any package error.

    Resource failures from outside the package (an OSError while writing a
    product, a MemoryError, a worker process that died) become a
    ResourceError, so they too reach the caller as a stage-named
    RetrodynError. Given a wall_s dict, the stage adds its wall seconds
    there under its name.
    """

    def __init__(self, name: str, wall_s: dict | None = None):
        self.name, self.wall_s = name, wall_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.wall_s is not None:
            self.wall_s[self.name] = (self.wall_s.get(self.name, 0.0)
                                      + time.perf_counter() - self.t0)
        if isinstance(exc, RetrodynError):
            raise type(exc)(f"stage '{self.name}': {exc}") from exc
        if isinstance(exc, (OSError, MemoryError, BrokenProcessPool)):
            raise ResourceError(
                f"stage '{self.name}': {type(exc).__name__}: {exc}") from exc
        return False


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run the configured pipelines and write the data products.

    Returns a RunResult whose files map names the products written. Output
    bytes are a pure function of the configuration (manifest.json excepted:
    it carries timings, peak RSS and version strings).
    """
    t_start = time.perf_counter()
    stage_s: dict = {}
    with _Stage("reconstruct"):
        _check_reconstruct_window(config)
    with _Stage("emit", stage_s):
        make_out_dir(config.out_dir)
    p = config.params
    files: dict = {}
    checks: dict = {"fullmodel": [], "invariants": []}

    need_ensemble = ("reconstruct" in config.pipelines
                     or "thermo" in config.pipelines)
    ens = None
    if need_ensemble:
        with _Stage("simulate", stage_s):
            ens = _ensemble(p, config.grid(), config.n_traj, config.master_seed,
                            config.decimation, config.chunk_size, config.n_workers,
                            retrodict="reconstruct" in config.pipelines,
                            n_kept=min(config.n_display, config.n_traj),
                            keep_filtered=False)
        checks["invariants"].append(check_record(
            "photocurrent_identity", ens.photocurrent_residual, 0.0, PHOTOCURRENT_TOL))
        checks["invariants"].append(check_record(
            "filter_inversion_max_abs", ens.inversion_max_abs, 0.0, 1e-9))

    rates_d = derive_rates(p)
    ev = v_rec = v_ss_est = rates = None
    display_phi = display_pi = None

    if "reconstruct" in config.pipelines:
        with _Stage("reconstruct", stage_s):
            ev = estimation._pooled_difference_variance(
                ens.d_moments.variance(), ens.d_moments.count, ens.grid_out, 0)
            v_rec, v_ss_est = estimation.reconstruct_conditional_variance(
                ev, p, mode=config.mode, tail_fraction=config.tail_fraction)
            v_true = ens.v_out[:ev.grid.n_steps + 1]
            rms = float(np.sqrt(np.mean((v_rec - v_true) ** 2 / v_true ** 2)))
            frac = float(np.mean(
                np.abs(ev.v_d - (v_true + rates_d.v_ss
                                 + p.gamma_m / (4.0 * rates_d.gamma_meas)))
                < 3.0 * ev.stderr))
        checks["invariants"].append(check_record("reconstruction_rms_rel", rms, 0.0, 5e-2))
        checks["invariants"].append(check_record("vd_identity_fraction", frac, 1.0, 1e-2))

    if "thermo" in config.pipelines:
        with _Stage("thermo", stage_s):
            rates = thermo._ensemble_rates(ens.theta_moments, ens.v_out, ens.grid_out, p)
            display_phi, display_pi = thermo.theta_rates(ens.theta, ens.v_out, p)
            theta_mean = ens.theta_moments.mean()
            theta_se = np.sqrt(ens.theta_moments.variance()) / math.sqrt(config.n_traj)
            # Nodes without ensemble scatter (node 0, where r(0) = 0 on every
            # lane, and every node at eta_det = 0) make a z a ratio of
            # round-off terms; test them as identities instead. The fold
            # gives such nodes their common value exactly and M2 == 0.
            scatter = ens.theta_moments.m2 > 0
            dev = np.abs(theta_mean - rates_d.v_uc)
            z_theta = float(np.max(dev[scatter] / theta_se[scatter], initial=0.0))
            t0_dev = float(np.max(dev[~scatter]))
        checks["invariants"].append(check_record("theta_mean_max_z", z_theta, 0.0, 3.0))
        checks["invariants"].append(check_record("theta_mean_t0_abs_dev", t0_dev, 0.0, 1e-12))

    if "fullmodel" in config.pipelines:
        with _Stage("check-fullmodel", stage_s):
            checks["fullmodel"] = adiabatic_consistency_check(p)

    result = RunResult(
        config=config, grid_out=ens.grid_out if ens else None,
        v_riccati=ens.v_out if ens else None,
        ev=ev, v_rec=v_rec, v_ss_est=v_ss_est, rates=rates,
        display_phi=display_phi, display_pi=display_pi,
        checks=checks, files=files, wall_time_s=0.0,
    )

    with _Stage("emit", stage_s):
        if "reconstruct" in config.pipelines:
            files["reconstruction.csv"] = emit_reconstruction(config.out_dir, ev, v_rec)
            files["variance.csv"] = emit_figure_data(result, "fig1")
        if "thermo" in config.pipelines:
            files["entropy_rates.csv"] = emit_figure_data(result, "fig2")
            files["information.csv"] = emit_figure_data(result, "fig3")
        checks_path = os.path.join(config.out_dir, "checks.json")
        write_json(checks_path, checks)
        files["checks.json"] = checks_path

    result.wall_time_s = time.perf_counter() - t_start
    from . import __version__  # here, not at the top: the package imports this module
    manifest = {
        "config": config.echo(),
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "retrodyn": __version__},
        "wall_time_s": result.wall_time_s,
        "stage_wall_s": stage_s,
        "peak_rss_mb": _peak_rss_mb(),
        "files": sorted(k for k in files),
    }
    if ens is not None:
        manifest["lane_steps_per_s"] = (config.n_traj * config.grid().n_steps
                                        / stage_s["simulate"])
    manifest_path = os.path.join(config.out_dir, "manifest.json")
    with _Stage("emit"):
        write_json(manifest_path, manifest)
    files["manifest.json"] = manifest_path
    result.files = files
    return result


def _peak_rss_mb() -> dict:
    """Peak RSS in MB (1e6 bytes) of this process and of its largest
    waited-for child, such as a pool worker; empty where the resource
    module is missing (Windows)."""
    try:
        import resource
    except ImportError:
        return {}
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss in bytes or KiB
    return {who: resource.getrusage(flag).ru_maxrss * unit / 1e6
            for who, flag in (("self", resource.RUSAGE_SELF),
                              ("children", resource.RUSAGE_CHILDREN))}


def emit_reconstruction(out_dir: str, ev: EnsembleVariance, v_rec) -> str:
    path = os.path.join(out_dir, "reconstruction.csv")
    estimation.write_reconstruction_csv(path, ev, v_rec)
    return path


def emit_figure_data(results: RunResult, which: str) -> str:
    """Write one figure data product from a finished run; returns its path.

    fig1: variance.csv on the valid reconstruction window. fig2:
    entropy_rates.csv with ensemble means, stderr, and display sample paths.
    fig3: information.csv, whose i_dot column equals bath_term + g_diff
    bitwise.
    """
    cfg = results.config
    if which == "fig1":
        if results.ev is None or results.v_rec is None:
            raise ValidationError("fig1 needs the reconstruct pipeline results")
        ev = results.ev
        n = ev.grid.n_steps + 1
        path = os.path.join(cfg.out_dir, "variance.csv")
        write_csv(path, VARIANCE_CSV_HEADER,
                  [ev.grid.times(), results.v_riccati[:n], results.v_rec, ev.stderr])
        return path
    if which == "fig2":
        if results.rates is None:
            raise ValidationError("fig2 needs the thermo pipeline results")
        path = os.path.join(cfg.out_dir, "entropy_rates.csv")
        thermo.write_rates_csv(path, results.rates, results.display_phi,
                               results.display_pi)
        return path
    if which == "fig3":
        if results.v_riccati is None:
            raise ValidationError("fig3 needs a simulated ensemble (thermo pipeline)")
        p = cfg.params
        v = results.v_riccati
        path = os.path.join(cfg.out_dir, "information.csv")
        write_csv(path, INFORMATION_CSV_HEADER,
                  [results.grid_out.times(), thermo.information_rate(v, p),
                   thermo.differential_gain(v, p), thermo.phonon_noise_rate(v, p)])
        return path
    raise ValidationError(f"which must be fig1|fig2|fig3, got {which!r}")
