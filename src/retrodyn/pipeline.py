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
chunks are assembled in index order, and every ensemble reduction runs on the
assembled arrays, so byte-identical files come out regardless of how many
workers run the chunks and how large the chunks are. The manifest records
wall time and library versions and is the one file expected to differ
between reruns.
"""

from __future__ import annotations

import math
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import estimation, thermo
from ._io import check_record, make_out_dir, write_csv, write_json
from .dynamics import (
    DEFAULT_DECIMATION,
    DEFAULT_DT,
    DEFAULT_T_FINAL,
    TimeGrid,
    check_grid,
    simulate_batch,
    verify_photocurrent_identity,
)
from .errors import ConfigError, RetrodynError, ValidationError
from .estimation import EnsembleVariance, FilteredPath
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
#: run on the assembled ensemble, so the chunk size leaves the bytes alone.
DEFAULT_CHUNK_SIZE = 300

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
    shape (n_traj, n_out + 1, 2); theta, phi_c, pi_c have (n_traj, n_out + 1).
    grid_out is the decimated grid; v_out the Riccati solution on it.
    """

    grid_out: TimeGrid
    v_out: np.ndarray
    r: np.ndarray
    r_hat: np.ndarray
    r_b: np.ndarray
    theta: np.ndarray
    phi_c: np.ndarray
    pi_c: np.ndarray
    valid_stop: int
    inversion_max_abs: float
    photocurrent_ok: bool
    params: PhysParams

    def paths(self) -> list:
        """The ensemble as one batched FilteredPath, for difference_variance."""
        return [FilteredPath(grid=self.grid_out, r_hat=self.r_hat, r_b=self.r_b,
                             valid_range=(0, self.valid_stop))]

    def series(self) -> list:
        """The ensemble as one batched EntropySeries, for rate averaging."""
        v, p = self.v_out, self.params
        return [EntropySeries(grid=self.grid_out, phi_c=self.phi_c, pi_c=self.pi_c,
                              s_w=thermo.wigner_entropy(v),
                              i_dot=thermo.information_rate(v, p),
                              g_diff=thermo.differential_gain(v, p),
                              theta=self.theta)]


def _compute_chunk(args):
    """Simulate, filter, and decimate one chunk of trajectories.

    Top-level so process pools can pickle it. Results depend only on args,
    never on which worker runs them.
    """
    (p, grid, v0, master_seed, lo, hi, decim, check_photo) = args
    traj = simulate_batch(p, grid, v0, master_seed, range(lo, hi))
    r_hat = estimation.forward_filter(traj.photocurrent, p, grid, v_series=traj.v)
    r_b = estimation.backward_filter(traj.photocurrent, p, grid)
    inv_max = float(np.max(np.abs(r_hat - traj.r)))
    photo_ok = verify_photocurrent_identity(traj, p) if check_photo else True
    sl = slice(None, None, decim)
    r_dec = traj.r[:, sl, :].copy()
    theta = traj.v[sl] + 0.5 * np.sum(r_dec * r_dec, axis=-1)
    phi_c, pi_c = thermo.theta_rates(theta, traj.v[sl], p)
    return (traj.v[sl].copy(), r_dec, r_hat[:, sl, :].copy(),
            r_b[:, sl, :].copy(), theta, phi_c, pi_c, inv_max, photo_ok)


def collect_ensemble(p: PhysParams, grid: TimeGrid, n_traj: int, master_seed: int,
                     decimation: int = DEFAULT_DECIMATION,
                     chunk_size: int = DEFAULT_CHUNK_SIZE,
                     n_workers: int = 1) -> EnsembleBundle:
    """Run the seeded ensemble and return stacked decimated statistics.

    Trajectory j uses stream index j under master_seed, so any sub-ensemble
    is bit-reproducible in isolation. n_workers > 1 distributes whole chunks
    over processes; chunk boundaries and assembly order are fixed by
    (n_traj, chunk_size) alone, so the result is worker-count independent.
    """
    if n_traj < 2:
        raise ValidationError(f"collect_ensemble needs n_traj >= 2, got {n_traj}")
    v0 = derive_rates(p).v_uc
    jobs = [(p, grid, v0, master_seed, lo, min(lo + chunk_size, n_traj),
             decimation, lo == 0) for lo in range(0, n_traj, chunk_size)]
    if n_workers == 0:
        n_workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
    if n_workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_compute_chunk, jobs))
    else:
        results = [_compute_chunk(job) for job in jobs]
    v_outs, r, r_hat, r_b, theta, phi_c, pi_c, inv_max, photo_ok = zip(*results)

    n_out = len(v_outs[0]) - 1
    grid_out = TimeGrid(t0=grid.t0, dt=grid.dt * decimation, n_steps=n_out)
    burn_out = estimation.burn_in_steps(p, grid_out.dt)
    return EnsembleBundle(
        grid_out=grid_out,
        v_out=v_outs[0],
        r=np.concatenate(r),
        r_hat=np.concatenate(r_hat),
        r_b=np.concatenate(r_b),
        theta=np.concatenate(theta),
        phi_c=np.concatenate(phi_c),
        pi_c=np.concatenate(pi_c),
        valid_stop=max(n_out + 1 - burn_out, 0),
        inversion_max_abs=max(inv_max),
        photocurrent_ok=all(photo_ok),
        params=p,
    )


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
    """Names the failing pipeline stage on any package error."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and isinstance(exc, RetrodynError):
            raise type(exc)(f"stage '{self.name}': {exc}") from exc
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
    grid = config.grid()
    files: dict = {}
    checks: dict = {"fullmodel": [], "invariants": []}

    need_ensemble = ("reconstruct" in config.pipelines
                     or "thermo" in config.pipelines)
    bundle = None
    if need_ensemble:
        with _Stage("simulate"):
            bundle = collect_ensemble(
                p, grid, config.n_traj, config.master_seed,
                decimation=config.decimation, chunk_size=config.chunk_size,
                n_workers=config.n_workers,
            )
        checks["invariants"].append(check_record(
            "photocurrent_identity", 1.0 if bundle.photocurrent_ok else 0.0, 1.0, 0.0))
        checks["invariants"].append(check_record(
            "filter_inversion_max_abs", bundle.inversion_max_abs, 0.0, 1e-9))

    rates_d = derive_rates(p)
    ev = v_rec = v_ss_est = rates = None
    display_phi = display_pi = None

    if "reconstruct" in config.pipelines:
        with _Stage("reconstruct"):
            ev = estimation.difference_variance(bundle.paths())
            v_rec, v_ss_est = estimation.reconstruct_conditional_variance(
                ev, p, mode=config.mode, tail_fraction=config.tail_fraction)
            lo, hi = 0, ev.grid.n_steps + 1
            v_true = bundle.v_out[lo:hi]
            rms = float(np.sqrt(np.mean((v_rec - v_true) ** 2 / v_true ** 2)))
            frac = float(np.mean(
                np.abs(ev.v_d - (v_true + rates_d.v_ss
                                 + p.gamma_m / (4.0 * rates_d.gamma_meas)))
                < 3.0 * ev.stderr))
        checks["invariants"].append(check_record("reconstruction_rms_rel", rms, 0.0, 5e-2))
        checks["invariants"].append(check_record("vd_identity_fraction", frac, 1.0, 1e-2))
        files["reconstruction.csv"] = emit_reconstruction(
            config.out_dir, ev, v_rec)

    if "thermo" in config.pipelines:
        with _Stage("thermo"):
            rates = thermo.ensemble_average_rates(bundle.series(), p)
            n_disp = min(config.n_display, config.n_traj)
            display_phi = bundle.phi_c[:n_disp]
            display_pi = bundle.pi_c[:n_disp]
            theta_mean = bundle.theta.mean(axis=0)
            theta_se = bundle.theta.std(axis=0, ddof=1) / math.sqrt(config.n_traj)
            # node 0 has no ensemble scatter (r(0) = 0 on every lane), so a
            # z there is a ratio of round-off terms; test it as an identity.
            z_theta = float(np.max(
                np.abs(theta_mean[1:] - rates_d.v_uc) / theta_se[1:]))
            t0_dev = abs(float(theta_mean[0]) - rates_d.v_uc)
        checks["invariants"].append(check_record("theta_mean_max_z", z_theta, 0.0, 3.0))
        checks["invariants"].append(check_record("theta_mean_t0_abs_dev", t0_dev, 0.0, 1e-12))

    if "fullmodel" in config.pipelines:
        with _Stage("check-fullmodel"):
            checks["fullmodel"] = adiabatic_consistency_check(p)

    result = RunResult(
        config=config, grid_out=bundle.grid_out if bundle else None,
        v_riccati=bundle.v_out if bundle else None,
        ev=ev, v_rec=v_rec, v_ss_est=v_ss_est, rates=rates,
        display_phi=display_phi, display_pi=display_pi,
        checks=checks, files=files, wall_time_s=0.0,
    )

    with _Stage("emit"):
        if "reconstruct" in config.pipelines:
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
        r = results.rates
        t = r.grid.times()
        header = thermo.RATES_CSV_HEADER
        cols = [t, r.phi_c, r.pi_c, r.i_dot, r.g_diff,
                r.stderr_phi_c, r.stderr_pi_c]
        for j in range(results.display_phi.shape[0]):
            header += f",phi_c_path{j + 1},pi_c_path{j + 1}"
            cols.append(results.display_phi[j])
            cols.append(results.display_pi[j])
        path = os.path.join(cfg.out_dir, "entropy_rates.csv")
        write_csv(path, header, cols)
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
