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
and every ensemble reduction is a lane-order fold: chunk results arrive in
stream-index order and each is folded lane by lane into per-node running
moments (count, mean, M2; Welford's update), then dropped. Only r_hat - r_b
and theta = V + r.r/2 are folded: the entropy rates, affine in theta, are
derived from its moments and the display paths from its first lanes, as in
difference_variance and ensemble_average_rates, so a run's products equal
theirs on the stacked collect_ensemble bit for bit; byte-identical
files come out regardless of how many workers run the chunks and how large
the chunks are, and memory does not grow with the ensemble size. The
manifest records wall time and library versions and is the one file
expected to differ between reruns.

The Riccati series is solved once per ensemble and shared by every chunk.
A chunk runs as one time-major pass over blocks of steps, laid out
(steps, lanes, 2): noise draws, synthesis, photocurrent and prediction
filter, keeping only the decimated nodes and, for the backward filter, one
retrodiction window sum per node; no array of a chunk is full-resolution.
The kernel uses the same step helpers as simulate_batch, forward_filter
and backward_filter(..., decimation), so every lane is bit-identical to
the public lane-major path.
"""

from __future__ import annotations

import math
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import dynamics, estimation, thermo
from ._io import check_record, make_out_dir, write_csv, write_json
from .dynamics import DEFAULT_DECIMATION, DEFAULT_DT, DEFAULT_T_FINAL, TimeGrid, check_grid
from .errors import ConfigError, ResourceError, RetrodynError, ValidationError
from .estimation import EnsembleVariance, FilteredPath, _LaneMoments
from .fullmodel import adiabatic_consistency_check
from .model import PhysParams, derive_rates, load_config, validate_params
from .thermo import EnsembleRates, EntropySeries

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
DEFAULT_CHUNK_SIZE = 300

#: Steps per time-major block of the chunk kernel: a block's draws for 300
#: lanes (about 5 MB) stay cache-sized. Rounded to whole decimation
#: windows, blocks leave the bytes alone.
_BLOCK_STEPS = 1000

#: Bound on the photocurrent_identity check value (a round-off residual
#: in units of sqrt(dt); about 1e-15 on intact records).
PHOTOCURRENT_TOL = 1e-12

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
    """Decimated per-lane ensemble data plus shared deterministic series.

    Arrays are stacked over all trajectories: r and the filtered means have
    shape (n_traj, n_out + 1, 2); theta has (n_traj, n_out + 1). grid_out is
    the decimated grid; v_out the Riccati solution on it. The rates phi_c and
    pi_c are not stored: series() derives them from theta and v_out. r_b
    and valid_stop are None for an ensemble collected without retrodiction.
    photocurrent_residual is max |i dt - c r dt - dw| / sqrt(dt) over the
    first chunk: the increments recovered from the photocurrent, as
    read_trajectory_csv recovers them, against the Philox draws.
    """

    grid_out: TimeGrid
    v_out: np.ndarray
    r: np.ndarray
    r_hat: np.ndarray
    r_b: np.ndarray | None
    theta: np.ndarray
    valid_stop: int | None
    inversion_max_abs: float
    photocurrent_residual: float
    params: PhysParams

    @property
    def photocurrent_ok(self) -> bool:
        """The photocurrent_identity check: the recovered increments match the draws."""
        return self.photocurrent_residual <= PHOTOCURRENT_TOL

    def paths(self) -> list:
        """The ensemble as one batched FilteredPath, for difference_variance."""
        if self.r_b is None:
            raise ValidationError("the ensemble was collected without retrodiction")
        return [FilteredPath(grid=self.grid_out, r_hat=self.r_hat, r_b=self.r_b,
                             valid_range=(0, self.valid_stop))]

    def series(self) -> list:
        """The ensemble as one batched EntropySeries; its rates derived from theta."""
        v, p = self.v_out, self.params
        phi_c, pi_c = thermo.theta_rates(self.theta, v, p)
        return [EntropySeries(grid=self.grid_out, phi_c=phi_c, pi_c=pi_c,
                              s_w=thermo.wigner_entropy(v),
                              i_dot=thermo.information_rate(v, p),
                              g_diff=thermo.differential_gain(v, p),
                              theta=self.theta, v=v)]


def _decimate_into(out, block, base: int, lo: int, hi: int, decim: int) -> None:
    """Copy the nodes lo <= k < hi with k % decim == 0 from a time-major block
    whose row 0 is node base into their rows of the decimated series out."""
    first = -(-lo // decim) * decim
    rows = block[first - base:hi - base:decim]
    out[first // decim:first // decim + len(rows)] = rows


def _compute_chunk(args):
    """Simulate, filter, and decimate one chunk of trajectories.

    One time-major pass over blocks of whole decimation windows draws the
    noise, synthesizes the means and the photocurrent, runs the prediction
    filter and keeps only the decimated nodes, max |r_hat - r| and, with
    retrodict, the retrodiction window sums, which the backward recursion
    then turns into r_b in place. Every lane's bits equal the lane-major
    public path (simulate_batch, forward_filter, backward_filter(...,
    decimation)). With check_photo the chunk also returns
    max |i dt - c r dt - dw| / sqrt(dt), the increments recovered from the
    photocurrent against the draws (0.0 without).

    Top-level so process pools can pickle it. Results depend only on args,
    never on which worker runs them.
    """
    (p, grid, v_nodes, v_mids, master_seed, lo, hi, decim, retrodict,
     check_photo) = args
    n, dt, lanes = grid.n_steps, grid.dt, hi - lo
    c, amp, efac = dynamics._mean_coefficients(p, dt, v_mids)
    gens = [dynamics.trajectory_rng(master_seed, s) for s in range(lo, hi)]
    n_nodes = n // decim + 1
    r_dec = np.zeros((n_nodes, lanes, 2))
    rh_dec = np.zeros((n_nodes, lanes, 2))
    rb_dec = None
    if retrodict:
        afac, bcoef = estimation._backward_coefficients(p, dt)
        rb_dec = np.zeros((n_nodes, lanes, 2))  # window sums, then r_b
    block = decim * max(1, _BLOCK_STEPS // decim)
    r = np.zeros((block + 1, lanes, 2))
    r_hat = np.zeros((block + 1, lanes, 2))
    inv_max, photo_err = 0.0, 0.0
    for s0 in range(0, n, block):
        s1 = min(s0 + block, n)
        m = s1 - s0
        dw = dynamics._draw_increments(gens, m, dt)
        dynamics._synthesis_steps(r[:m + 1], dw, amp[s0:s1], efac)
        photo = dynamics._photocurrent(r[:m], dw, c, dt)
        if check_photo:
            dw_rec = dynamics._recovered_increments(photo, r[:m], c, dt)
            photo_err = np.maximum(photo_err, np.abs(dw_rec - dw, out=dw_rec).max())
            del dw_rec
        idt = photo * dt
        estimation._forward_steps(r_hat[:m + 1], idt, amp[s0:s1], efac, c, dt)
        diff = r_hat[1:m + 1] - r[1:m + 1]
        inv_max = np.maximum(inv_max, np.abs(diff, out=diff).max())
        if retrodict:
            estimation._window_sums(rb_dec[s0 // decim:], idt, afac, bcoef, decim)
        _decimate_into(r_dec, r, s0, s0 + 1, s1 + 1, decim)
        _decimate_into(rh_dec, r_hat, s0, s0 + 1, s1 + 1, decim)
        r[0], r_hat[0] = r[m], r_hat[m]
        # Drop the block's arrays: the next block and theta allocate theirs.
        del dw, photo, idt, diff
    del r, r_hat
    if retrodict:
        # In place: each window sum is read just before its r_b replaces it.
        estimation._backward_steps(rb_dec, rb_dec[:-1], afac ** decim)
    theta = v_nodes[::decim, None] + 0.5 * np.sum(r_dec * r_dec, axis=-1)
    return (r_dec, rh_dec, rb_dec, theta, float(inv_max),
            float(photo_err) / math.sqrt(dt))


def _ensemble_chunks(p: PhysParams, grid: TimeGrid, n_traj: int, master_seed: int,
                     decimation: int, chunk_size: int, n_workers: int,
                     retrodict: bool):
    """Run a seeded ensemble chunk by chunk, in stream-index order.

    Returns (grid_out, v_out, valid_stop, chunks). The Riccati series is
    solved once and shared by every chunk; chunks yields ((lo, hi), result
    of _compute_chunk) for lanes lo <= j < hi in increasing lo, whether the
    chunks run here or, for n_workers > 1, in a process pool.
    """
    if n_traj < 2:
        raise ValidationError(f"an ensemble needs n_traj >= 2, got {n_traj}")
    v_nodes = dynamics.solve_conditional_variance(p, grid, derive_rates(p).v_uc)
    v_mids = dynamics.conditional_variance_midpoints(p, v_nodes, grid.dt)
    bounds = [(lo, min(lo + chunk_size, n_traj)) for lo in range(0, n_traj, chunk_size)]
    jobs = [(p, grid, v_nodes, v_mids, master_seed, lo, hi, decimation, retrodict,
             lo == 0) for lo, hi in bounds]
    n_out = grid.n_steps // decimation
    grid_out = TimeGrid(t0=grid.t0, dt=grid.dt * decimation, n_steps=n_out)
    valid_stop = (max(n_out + 1 - estimation.burn_in_steps(p, grid_out.dt), 0)
                  if retrodict else None)
    if n_workers == 0:
        n_workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)

    def chunks():
        with ExitStack() as stack:
            if n_workers > 1 and len(jobs) > 1:
                pool = stack.enter_context(ProcessPoolExecutor(max_workers=n_workers))
                results = pool.map(_compute_chunk, jobs)
            else:
                results = map(_compute_chunk, jobs)
            # A fresh pair per chunk: zip would hold the previous chunk's
            # arrays in its reused result tuple while the next one runs.
            for lo, hi in bounds:
                yield (lo, hi), next(results)

    return grid_out, v_nodes[::decimation].copy(), valid_stop, chunks()


def collect_ensemble(p: PhysParams, grid: TimeGrid, n_traj: int, master_seed: int,
                     decimation: int = DEFAULT_DECIMATION,
                     chunk_size: int = DEFAULT_CHUNK_SIZE,
                     n_workers: int = 1, retrodict: bool = True) -> EnsembleBundle:
    """Run the seeded ensemble and return stacked decimated statistics.

    Trajectory j uses stream index j under master_seed, so any sub-ensemble
    is bit-reproducible in isolation. The Riccati series is solved once and
    shared by every chunk. n_workers > 1 distributes whole chunks over
    processes; each chunk is copied into the preallocated ensemble arrays
    at its fixed row range, so the result is worker-count independent.
    retrodict=False skips the backward filter (r_b and valid_stop are then
    None), which is what the measurement-off limit eta_det = 0 needs.
    """
    grid_out, v_out, valid_stop, chunks = _ensemble_chunks(
        p, grid, n_traj, master_seed, decimation, chunk_size, n_workers, retrodict)
    shape = (n_traj, grid_out.n_steps + 1)
    bundle = EnsembleBundle(
        grid_out=grid_out, v_out=v_out,
        r=np.empty(shape + (2,)), r_hat=np.empty(shape + (2,)),
        r_b=np.empty(shape + (2,)) if retrodict else None,
        theta=np.empty(shape), valid_stop=valid_stop, inversion_max_abs=0.0,
        photocurrent_residual=0.0, params=p)
    for (lo, hi), (*lane_data, inv_max, photo_err) in chunks:
        for name, part in zip(("r", "r_hat", "r_b", "theta"), lane_data):
            if part is not None:
                getattr(bundle, name)[lo:hi] = part.swapaxes(0, 1)
        bundle.inversion_max_abs = float(np.maximum(bundle.inversion_max_abs, inv_max))
        bundle.photocurrent_residual = float(np.maximum(bundle.photocurrent_residual,
                                                        photo_err))
    return bundle


@dataclass
class _EnsembleMoments:
    """What a run keeps of its ensemble: per-node lane moments, the first
    display lanes of theta and the kernel's check values.

    d holds the moments of r_hat - r_b on the valid window (nodes
    0 <= k < valid_stop); it stays empty without retrodiction.
    """

    grid_out: TimeGrid
    v_out: np.ndarray
    valid_stop: int | None
    display_theta: np.ndarray
    d: _LaneMoments = field(default_factory=_LaneMoments)
    theta: _LaneMoments = field(default_factory=_LaneMoments)
    inversion_max_abs: float = 0.0
    photocurrent_residual: float = 0.0

    def fold(self, lo, hi, _, r_hat, r_b, theta, inv_max, photo_err):
        """Fold one chunk's result (_compute_chunk) for lanes lo <= j < hi."""
        if r_b is not None:
            stop = self.valid_stop
            self.d.fold((r_hat[:stop] - r_b[:stop]).swapaxes(0, 1))
        self.theta.fold(theta.T)
        k = max(min(hi, len(self.display_theta)) - lo, 0)
        self.display_theta[lo:lo + k] = theta[:, :k].T
        self.inversion_max_abs = float(np.maximum(self.inversion_max_abs, inv_max))
        self.photocurrent_residual = float(np.maximum(self.photocurrent_residual,
                                                      photo_err))


def _stream_ensemble(config: ExperimentConfig, retrodict: bool) -> _EnsembleMoments:
    """Fold the run's ensemble into per-node moments, chunk by chunk.

    Each chunk is folded lane by lane in stream-index order as it arrives
    and then dropped, so memory does not grow with n_traj. The fold is the
    one difference_variance and ensemble_average_rates use, so the moments
    equal theirs bit for bit on the stacked ensemble of collect_ensemble.
    """
    grid_out, v_out, valid_stop, chunks = _ensemble_chunks(
        config.params, config.grid(), config.n_traj, config.master_seed,
        config.decimation, config.chunk_size, config.n_workers, retrodict)
    display = (min(config.n_display, config.n_traj), grid_out.n_steps + 1)
    ens = _EnsembleMoments(grid_out, v_out, valid_stop, np.empty(display))
    for (lo, hi), result in chunks:
        ens.fold(lo, hi, *result)
        del result  # drop the chunk's lanes before the next chunk is computed
    return ens


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
    RetrodynError.
    """

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
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
    it carries wall time and version strings).
    """
    t_start = time.monotonic()
    with _Stage("emit"):
        make_out_dir(config.out_dir)
    p = config.params
    files: dict = {}
    checks: dict = {"fullmodel": [], "invariants": []}

    need_ensemble = ("reconstruct" in config.pipelines
                     or "thermo" in config.pipelines)
    ens = None
    if need_ensemble:
        with _Stage("simulate"):
            ens = _stream_ensemble(config, retrodict="reconstruct" in config.pipelines)
        checks["invariants"].append(check_record(
            "photocurrent_identity", ens.photocurrent_residual, 0.0, PHOTOCURRENT_TOL))
        checks["invariants"].append(check_record(
            "filter_inversion_max_abs", ens.inversion_max_abs, 0.0, 1e-9))

    rates_d = derive_rates(p)
    ev = v_rec = v_ss_est = rates = None
    display_phi = display_pi = None

    if "reconstruct" in config.pipelines:
        with _Stage("reconstruct"):
            ev = estimation._pooled_difference_variance(
                ens.d.variance(), ens.d.count, ens.grid_out, 0)
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
        with _Stage("thermo"):
            rates = thermo._ensemble_rates(ens.theta, ens.v_out, ens.grid_out, p)
            display_phi, display_pi = thermo.theta_rates(ens.display_theta,
                                                         ens.v_out, p)
            theta_mean = ens.theta.mean()
            theta_se = np.sqrt(ens.theta.variance()) / math.sqrt(config.n_traj)
            # Nodes without ensemble scatter (node 0, where r(0) = 0 on every
            # lane, and every node at eta_det = 0) make a z a ratio of
            # round-off terms; test them as identities instead. The fold
            # gives such nodes their common value exactly and M2 == 0.
            scatter = ens.theta.m2 > 0
            dev = np.abs(theta_mean - rates_d.v_uc)
            z_theta = float(np.max(dev[scatter] / theta_se[scatter], initial=0.0))
            t0_dev = float(np.max(dev[~scatter]))
        checks["invariants"].append(check_record("theta_mean_max_z", z_theta, 0.0, 3.0))
        checks["invariants"].append(check_record("theta_mean_t0_abs_dev", t0_dev, 0.0, 1e-12))

    if "fullmodel" in config.pipelines:
        with _Stage("check-fullmodel"):
            checks["fullmodel"] = adiabatic_consistency_check(p)

    result = RunResult(
        config=config, grid_out=ens.grid_out if ens else None,
        v_riccati=ens.v_out if ens else None,
        ev=ev, v_rec=v_rec, v_ss_est=v_ss_est, rates=rates,
        display_phi=display_phi, display_pi=display_pi,
        checks=checks, files=files, wall_time_s=0.0,
    )

    with _Stage("emit"):
        if "reconstruct" in config.pipelines:
            files["reconstruction.csv"] = emit_reconstruction(config.out_dir, ev, v_rec)
            files["variance.csv"] = emit_figure_data(result, "fig1")
        if "thermo" in config.pipelines:
            files["entropy_rates.csv"] = emit_figure_data(result, "fig2")
            files["information.csv"] = emit_figure_data(result, "fig3")
        checks_path = os.path.join(config.out_dir, "checks.json")
        write_json(checks_path, checks)
        files["checks.json"] = checks_path

    result.wall_time_s = time.monotonic() - t_start
    manifest = {
        "config": config.echo(),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "retrodyn": _package_version(),
        },
        "wall_time_s": result.wall_time_s,
        "files": sorted(k for k in files),
    }
    manifest_path = os.path.join(config.out_dir, "manifest.json")
    with _Stage("emit"):
        write_json(manifest_path, manifest)
    files["manifest.json"] = manifest_path
    result.files = files
    return result


def _package_version() -> str:
    try:
        from importlib.metadata import version
        return version("retrodyn")
    except Exception:
        return "unknown"


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
