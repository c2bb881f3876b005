"""End-to-end experiment runner: ensembles, reconstruction, rate statistics.

run_experiment turns a configuration into the figure-ready data products:

    variance.csv        t, Riccati variance, reconstructed variance, stderr
    reconstruction.csv  t, v_d, stderr, v_rec (difference-variance view)
    entropy_rates.csv   t, ensemble means/stderr and display sample paths
    information.csv     t, i_dot, g_diff, bath_term
    checks.json         consistency-check records for CI
    manifest.json       config echo, versions, wall time

Everything but manifest.json (timings, peak RSS, versions) is a pure
function of the configuration, whatever the worker count and chunk size:
trajectories are keyed (master_seed, stream = trajectory index), and
collect_ensemble folds each chunk's lanes, in stream-index order, into the
per-node running moments (Welford's update) of one EnsembleBundle, then drops
the chunk, so memory does not grow with the ensemble. Only r_hat - r_b and
theta = V + r.r/2 are folded: the entropy rates, affine in theta, come from
its moments and the display paths from its first lanes, bit for bit as
difference_variance and ensemble_average_rates give them on the same lanes.

A chunk runs as one time-major pass over blocks of whole decimation windows,
laid out (steps, lanes, 2). The prediction filter repeats the synthesis up
to round-off (r_hat = r), and both are linear in the draws, so every lane
takes the window route (Blelloch, CMU-CS-90-190, 1.4): per window j of D
steps, one weighted sum u_j of its increments carries the means to the next
node and another, S_j - alpha r_j, completes the retrodiction window sum.
A lane reads a window only through (u_j, S_j - alpha r_j), a linear map of
its 2 D independent N(0, dt) increments: exactly normal, independent across
windows and components, with the 2 x 2 covariance G of _window_factors. So
every lane draws it in the same law, from two normals z_u and z_s per
component. The products read r_b only on the valid nodes k < J =
valid_stop, outside the backward burn-in, and a window j >= J reaches them
only through r_b[J] = sum_{j >= J} A^(j - J) S_j. So z_s is drawn on the
windows before J only, and the z_s terms past J, independent of everything
else, sum to one tail normal per lane and component: 2 K + 2 J + 2 normals
per lane for K windows, and 2 K without retrodiction. _route_check runs
trajectory 0 once per step through the step helpers of simulate_batch and
both filters and checks both routes on it, the tail included (checks.json);
the products do not read it.
"""

from __future__ import annotations

import math
import os
import platform
import shutil
import sys
import tempfile
import time
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import accumulate
from operator import mul

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

#: (x, y) pairs per buffer of a time-major block of the chunk kernel, which
#: holds a z_u and a z_s pair of normals per lane and decimation window (z_s
#: on the windows before valid_stop only): about 3.6 MB whatever the chunk
#: holds. Rounded to whole decimation windows, blocks leave the bytes alone.
_BLOCK_LANE_STEPS = 225_000

#: Bound on window_route_max_rel, the two routes' difference on trajectory
#: 0 (_route_check): round-off.
WINDOW_ROUTE_TOL = 1e-12

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
        grid = self.grid()
        if {"reconstruct", "thermo"} & set(self.pipelines):
            if self.n_traj < 2:
                raise ConfigError(f"an ensemble needs n_traj >= 2, got {self.n_traj!r}")
            if grid.n_steps < self.decimation:
                raise ConfigError(
                    f"an ensemble needs one decimation window of {self.decimation} "
                    f"steps, but t_final = {self.t_final!r} spans {grid.n_steps}")
        check_grid(self.params, grid)

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
    and the route check values.

    d_moments holds the moments of r_hat - r_b on the valid window (nodes
    0 <= k < valid_stop) and stays empty without retrodiction; theta_moments
    those of theta = V + r.r/2. theta keeps the first n_kept = min(n_display,
    n_traj) lanes, shape (n_kept, n_out + 1); no other lane is kept. grid_out
    is the decimated grid; v_out the Riccati solution on it. The check values
    come from _route_check; layer_s sums the seconds per kernel layer of
    _compute_chunk, those of the fold ("fold") and of the route check.
    """

    grid_out: TimeGrid
    v_out: np.ndarray
    valid_stop: int | None
    theta: np.ndarray
    d_moments: _LaneMoments = field(default_factory=_LaneMoments)
    theta_moments: _LaneMoments = field(default_factory=_LaneMoments)
    inversion_max_abs: float = 0.0
    photocurrent_residual: float = 0.0
    window_route_max_rel: float = 0.0
    layer_s: Counter = field(default_factory=Counter)

    def _fold(self, bounds, results) -> None:
        """Fold the chunk results (_compute_chunk) for lanes lo <= j < hi of
        each (lo, hi) in bounds, in that order, lane by lane."""
        for lo, hi in bounds:
            d, theta, layer_s = next(results)
            t0 = time.perf_counter()
            if d is not None:
                self.d_moments.fold(d)
            self.theta_moments.fold(theta)
            k = max(min(hi, len(self.theta)) - lo, 0)
            self.theta[lo:lo + k] = theta[:k]
            self.layer_s.update(layer_s)
            self.layer_s["fold"] += time.perf_counter() - t0
            # Drop the chunk's lanes before the next chunk is computed.
            del d, theta


def _window_weights(amp_w, efac: float, cdt: float, afac: float, bcoef: float):
    """(wu, ws, alpha) of windows of W steps with noise amplitudes amp_w,
    shape (windows, W): r_{j+1} = efac^W r_j + sum_m wu[j, m] dw[j, m], and
    the window sum bcoef sum_m afac^m (c r dt + dw)[j, m] is alpha r_j +
    sum_m ws[j, m] dw[j, m]. The powers and sums run on Python floats."""
    width = amp_w.shape[1]
    epow = list(accumulate([efac] * (width - 1), mul, initial=1.0))
    wu = np.array(epow[::-1]) * amp_w
    apow = list(accumulate([afac] * (width - 1), mul, initial=1.0))
    # g[l] = sum_{l < m < W} afac^m efac^(m-1-l), built from the end.
    g = list(accumulate(apow[:0:-1], lambda acc, x: x + efac * acc, initial=0.0))[::-1]
    ws = bcoef * (np.array(apow) + cdt * amp_w * np.array(g))
    return wu, ws, bcoef * cdt * sum(x * y for x, y in zip(apow, epow))


def _add_weighted(acc, wins, w, tmp) -> None:
    """acc += sum_m w[:, m] wins[:, m] over (windows, W, lanes, 2), one
    elementwise multiply-add per m in order: no bit depends on lanes or blocks."""
    for m in range(wins.shape[1]):
        np.add(acc, np.multiply(wins[:, m], w[:, m, None, None], out=tmp), out=acc)


def _window_factors(wu, ws, dt: float):
    """Cholesky factors (l11, l21, l22) of G = dt [[sum wu^2, sum wu ws],
    [sum wu ws, sum ws^2]], per window the covariance of (u, S - alpha r) in
    each component (_window_weights). The sums run over m as elementwise
    multiply-adds in order; l21 = 0 where l11 = 0 (eta_det = 0)."""
    x, y, g = np.stack([wu, wu, ws]), np.stack([wu, ws, ws]), np.zeros((3, len(wu)))
    for m in range(wu.shape[1]):
        g += x[:, :, m] * y[:, :, m]
    g11, g12, g22 = dt * g
    l11 = np.sqrt(g11)
    l21 = np.divide(g12, l11, out=np.zeros_like(l11), where=l11 > 0)
    return l11, l21, np.sqrt(np.maximum(g22 - l21 * l21, 0.0))


def _tail_weights(a_win: float, n: int) -> np.ndarray:
    """A^(j - J) = a_win^(j - J) of the n windows j >= J past the valid
    window, as a chained product on Python floats."""
    return np.array(list(accumulate([a_win] * (n - 1), mul, initial=1.0))[:n])


def _add_rows(acc, rows) -> None:
    """acc += rows[0] + rows[1] + ... over (windows, lanes, 2) rows, in
    order, rows[0] overwritten. numpy reduces a leading axis that is not the
    fast one row by row, each element on its own: no bit depends on lanes or
    blocks."""
    if len(rows):
        np.add(rows[0], acc, out=rows[0])
        np.add.reduce(rows, axis=0, out=acc)


def _tail_sd(w, l22) -> float:
    """Standard deviation of sum_j w[j] l22[j] z_j over independent unit
    normals z_j, the sum taken exactly rounded."""
    return math.sqrt(math.fsum((np.multiply(w, l22) ** 2).tolist()))


#: Philox counter at which a lane's z_s draws start. Its top word is 1, so
#: under the lane's (master_seed, stream) key they never meet its z_u draws,
#: which start at 0 (dynamics.trajectory_rng).
_Z_S_COUNTER = (0, 0, 0, 1)


def _z_s_rng(seed: int, stream: int) -> np.random.Generator:
    """The generator of a lane's z_s normals and its tail normal."""
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=_Z_S_COUNTER))


def _compute_chunk(args):
    """Simulate, filter, and decimate one chunk of trajectories.

    One time-major pass over blocks of whole decimation windows takes the
    window route (_window_weights): per window j, u_j = l11 z_u and S_j =
    alpha r_j + l21 z_u + l22 z_s (_window_factors), x and y of each. Each
    lane draws z_u on every window from its trajectory_rng generator, and,
    with retrodiction, z_s from _z_s_rng on the windows j < J = valid_stop
    only. Past J a window reaches the valid nodes only through r_b[J] =
    sum_{j >= J} A^(j - J) S_j, A = afac^D: its known part alpha r_j + l21
    z_u is added forward into that row as the nodes are made, and its z_s
    parts, independent of all else, sum to one tail normal per lane and
    component of standard deviation sqrt(sum A^(2 (j - J)) l22_j^2), drawn
    last from the z_s generator. The backward steps run over J windows.

    Returns (d, theta, layer_s): d = r_hat - r_b on the valid nodes, (lanes,
    valid_stop, 2), or None without retrodiction (valid_stop None); theta
    (lanes, nodes); layer_s, seconds per kernel layer. Results depend only
    on args, not on the worker.
    """
    p, grid, v_nodes, v_mids, master_seed, lo, hi, decim, valid_stop = args
    layer_s, clock = Counter(), [time.perf_counter()]

    def lap(layer):
        clock.append(time.perf_counter())
        layer_s[layer] += clock[-1] - clock[-2]

    n, dt, lanes = grid.n_steps, grid.dt, hi - lo
    gens = [dynamics.trajectory_rng(master_seed, s) for s in range(lo, hi)]
    n_nodes = n // decim + 1
    theta = np.empty((lanes, n_nodes))
    theta[:, 0] = v_nodes[0]  # r(0) = 0 on every lane
    retrodict = valid_stop is not None
    # afac, bcoef; without retrodiction, zeros weight the unused window sums.
    back = estimation._backward_coefficients(p, dt) if retrodict else (0.0, 0.0)
    if retrodict:
        s_gens = [_z_s_rng(master_seed, s) for s in range(lo, hi)]
        rh_dec = np.zeros((valid_stop, lanes, 2))  # r_hat on the valid nodes
        # Window sums before J, the tail at J; then r_b.
        rb_dec = np.zeros((valid_stop + 1, lanes, 2))
        tail_w = _tail_weights(back[0] ** decim, -(-n // decim) - valid_stop)
        tail_l22 = []
    block = min(decim * max(1, _BLOCK_LANE_STEPS // (2 * lanes)), n)
    # z: unit normals (z_u, z_s) per window, a short last one too; zraw the
    # draws, then two window buffers. nodes: r at the block's nodes, row 0 carried.
    n_z = -(-block // decim)
    z, zraw, step = np.empty((n_z, 2, lanes, 2)), np.empty(n_z * lanes * 4), np.empty((lanes, 2))
    tmp, known = zraw.reshape(2, n_z, lanes, 2)
    nodes = np.zeros((block // decim + 1, lanes, 2))
    lap("chunk_setup")

    def window_sums(j, r_j, zw, alpha, l21, l22):
        """Windows j, j + 1, ... of zw: alpha r_j + l21 z_u + l22 z_s into
        rb_dec before J; past it, alpha r_j + l21 z_u into the tail row."""
        h = min(max(valid_stop - j, 0), len(zw))
        np.multiply(r_j[:h], alpha, out=rb_dec[j:j + h])
        _add_weighted(rb_dec[j:j + h], zw[:h], np.stack([l21, l22], axis=1)[:h], tmp[:h])
        if h < len(zw):
            w = tail_w[j + h - valid_stop:j + len(zw) - valid_stop]  # A^(j - J)
            rows = known[:len(w)]
            np.multiply(r_j[h:], (w * alpha)[:, None, None], out=rows)
            _add_weighted(rows, zw[h:, :1], (w * l21[h:])[:, None], tmp[:len(w)])
            _add_rows(rb_dec[-1], rows)
            tail_l22.extend(l22[h:].tolist())

    for s0 in range(0, n, block):
        s1 = min(s0 + block, n)
        m, j0, k = s1 - s0, s0 // decim, (s1 - s0) // decim  # k whole windows
        c, amp, efac = dynamics._mean_coefficients(p, dt, v_mids[s0:s1])
        zb = z[:-(-m // decim)]
        dynamics._draw_increments(gens, 1.0, zb[:, 0], zraw)
        if retrodict and j0 < valid_stop:
            dynamics._draw_increments(s_gens, 1.0, zb[:valid_stop - j0, 1], zraw)
        lap("draws")
        u = nodes[1:k + 1]
        wu, ws, alpha = _window_weights(amp[:k * decim].reshape(k, decim), efac, c * dt, *back)
        l11, l21, l22 = _window_factors(wu, ws, dt)
        np.multiply(zb[:k, 0], l11[:, None, None], out=u)
        lap("window_sums")
        e_win = efac ** decim
        for i in range(k):
            np.add(np.multiply(nodes[i], e_win, out=step), u[i], out=u[i])
        # theta = V + (u_x^2 + u_y^2) / 2: the sum np.sum(u * u, axis=-1) forms.
        theta[:, j0 + 1:j0 + k + 1] = (v_nodes[s0 + decim:s1 + 1:decim]
                                       + 0.5 * np.add(*(u * u).T))
        lap("node_recursion")
        if retrodict:
            rh_dec[j0 + 1:j0 + k + 1] = u[:max(min(k, len(rh_dec) - j0 - 1), 0)]
            # Window sums start from alpha r_j; a short last window has its own weights.
            window_sums(j0, nodes[:k], zb[:k], alpha, l21, l22)
            if m > k * decim:
                wu, ws, alpha = _window_weights(amp[k * decim:][None], efac, c * dt, *back)
                window_sums(j0 + k, nodes[k:k + 1], zb[k:], alpha,
                            *_window_factors(wu, ws, dt)[1:])
            lap("window_sums")
        nodes[0] = nodes[k]
    if retrodict:
        # The tail normal, drawn where window J's z_s would be.
        dynamics._draw_increments(s_gens, 1.0, z[:1, 1], zraw)
        rb_dec[-1] += _tail_sd(tail_w, tail_l22) * z[0, 1]
        lap("draws")
    # Free the block buffers, and every view of them, before the results.
    del z, zraw, tmp, known, step, nodes, zb, u
    d = None
    if retrodict:
        # In place: each window sum is read just before its r_b replaces it.
        estimation._backward_steps(rb_dec, rb_dec[:-1], back[0] ** decim)
        # d, lane-major in rh_dec's buffer: the fold reads it row by row.
        diff = np.subtract(rh_dec, rb_dec[:valid_stop], out=rb_dec[:valid_stop])
        d = dynamics._swap_pairs(diff, rh_dec.reshape(lanes, valid_stop, 2))
        lap("backward_steps")
    return d, theta, layer_s


def _route_check(p: PhysParams, grid: TimeGrid, v_mids, master_seed: int, decim: int,
                 valid_stop: int | None):
    """(photocurrent residual, filter inversion max, window route max rel):
    the route checks of an ensemble, on trajectory 0 drawn per step.

    The step helpers of simulate_trajectory and filter_record run it on the
    midpoint variances v_mids, on Python floats; the window route forms its
    node means and window sums from the same increments and, with
    retrodiction (valid_stop not None), the tail r_b[J] = sum_{j >= J}
    A^(j - J) S_j, J = valid_stop, summed forward as _compute_chunk sums it,
    against the per-step r_b at node J. The third value is the largest max
    |difference| / max |per-step value| of these pairs. No value depends on
    n_traj, chunking or worker count.
    """
    n, dt, k = grid.n_steps, grid.dt, grid.n_steps // decim  # k whole windows
    c, amp, efac = dynamics._mean_coefficients(p, dt, v_mids)
    dw, gen = np.empty((n, 1, 2)), dynamics.trajectory_rng(master_seed, 0)
    dynamics._draw_increments([gen], dt, dw, np.empty_like(dw))
    r, r_hat = np.zeros((2, n + 1, 1, 2))
    dynamics._synthesis_steps(r, dw, amp, efac)
    photo = dynamics._photocurrent(r[:-1], dw, c, dt)
    residual = dynamics._photocurrent_residual(photo, r[:-1], dw, c, dt)
    idt = photo * dt
    estimation._forward_steps(r_hat, idt, amp, efac, c, dt)
    # The window route: u_j per window, then the node recursion.
    retrodict = valid_stop is not None
    back = estimation._backward_coefficients(p, dt) if retrodict else (0.0, 0.0)
    wins = dw[:k * decim].reshape(k, decim, 1, 2)
    wu, ws, alpha = _window_weights(amp[:k * decim].reshape(k, decim), efac, c * dt, *back)
    nodes, tmp, e_win = np.zeros((k + 1, 1, 2)), np.empty((k, 1, 2)), efac ** decim
    _add_weighted(nodes[1:], wins, wu, tmp)
    for i in range(k):
        nodes[i + 1] += nodes[i] * e_win
    pairs = [(nodes[1:], r[decim::decim])]
    if retrodict:
        ref, sums = np.zeros((2, k + (n > k * decim), 1, 2))
        estimation._window_sums(ref, idt, *back, decim)
        np.multiply(nodes[:k], alpha, out=sums[:k])
        _add_weighted(sums[:k], wins, ws, tmp)
        if n > k * decim:  # the short last window, with its own weights
            _, ws, alpha = _window_weights(amp[k * decim:][None], efac, c * dt, *back)
            np.multiply(nodes[k:], alpha, out=sums[k:])
            _add_weighted(sums[k:], dw[k * decim:][None], ws, tmp[:1])
        pairs.append((sums, ref))
        tail, rows = np.zeros((1, 2)), sums[valid_stop:]
        _add_rows(tail, rows * _tail_weights(back[0] ** decim, len(rows))[:, None, None])
        # The per-step retrodiction filter from r_b(T) = 0 back to node J.
        r_b = np.zeros((n - valid_stop * decim + 1, 1, 2))
        np.multiply(idt[n + 1 - len(r_b):], back[1], out=r_b[:-1])
        estimation._backward_steps(r_b, r_b[:-1], back[0])
        pairs.append((tail, r_b[0]))
    rel = [np.abs(a - b).max(initial=0.0) / (np.abs(b).max(initial=0.0) or 1.0)
           for a, b in pairs]
    return residual, float(np.max(np.abs(r_hat - r))), float(max(rel))


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


def collect_ensemble(config: ExperimentConfig) -> EnsembleBundle:
    """Run the configured seeded ensemble chunk by chunk and fold it into an
    EnsembleBundle.

    Trajectory j uses stream index j under master_seed, so any sub-ensemble
    is bit-reproducible in isolation, and no bit depends on chunk_size or
    n_workers. The Riccati series is solved once for every chunk. Chunks run
    here or, for n_workers > 1 (0 = one per available CPU), in a process
    pool with at most one chunk per worker waiting beyond those running.
    The backward filter runs only when "reconstruct" is configured; then
    the measurement-off limit eta_det = 0 raises RegimeError.
    """
    p, grid, n_traj, decimation = config.params, config.grid(), config.n_traj, config.decimation
    if n_traj < 2:
        raise ValidationError(f"an ensemble needs n_traj >= 2, got {n_traj}")
    retrodict = "reconstruct" in config.pipelines
    v_nodes = dynamics.solve_conditional_variance(p, grid, derive_rates(p).v_uc)
    v_mids = dynamics.conditional_variance_midpoints(p, v_nodes, grid.dt)
    bounds = [(lo, min(lo + config.chunk_size, n_traj))
              for lo in range(0, n_traj, config.chunk_size)]
    grid_out = _decimated(grid, decimation)
    valid_stop = estimation._valid_stop(p, grid_out) if retrodict else None
    jobs = [(p, grid, v_nodes, v_mids, config.master_seed, lo, hi, decimation, valid_stop)
            for lo, hi in bounds]
    bundle = EnsembleBundle(
        grid_out=grid_out, v_out=v_nodes[::decimation].copy(), valid_stop=valid_stop,
        theta=np.empty((min(config.n_display, n_traj), grid_out.n_steps + 1)))
    t0 = time.perf_counter()
    checks = _route_check(p, grid, v_mids, config.master_seed, decimation, valid_stop)
    bundle.photocurrent_residual, bundle.inversion_max_abs, bundle.window_route_max_rel = checks
    bundle.layer_s["route_check"] = time.perf_counter() - t0
    n_workers = config.n_workers
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

    ens = None
    if {"reconstruct", "thermo"} & set(config.pipelines):
        with _Stage("simulate", stage_s):
            ens = collect_ensemble(config)
        checks["invariants"].append(check_record(
            "photocurrent_identity", ens.photocurrent_residual, 0.0, PHOTOCURRENT_TOL))
        checks["invariants"].append(check_record(
            "filter_inversion_max_abs", ens.inversion_max_abs, 0.0, 1e-9))
        checks["invariants"].append(check_record(
            "window_route_max_rel", ens.window_route_max_rel, 0.0, WINDOW_ROUTE_TOL))

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

    # The products are staged beside out_dir and moved in once all are
    # written, manifest.json last: a failed emit leaves out_dir as it was.
    with _Stage("emit", stage_s):
        staging = tempfile.mkdtemp(dir=os.path.dirname(os.path.abspath(config.out_dir)))
    try:
        with _Stage("emit", stage_s):
            staged = replace(result, config=replace(config, out_dir=staging))
            if "reconstruct" in config.pipelines:
                emit_reconstruction(staging, ev, v_rec)
                emit_figure_data(staged, "fig1")
            if "thermo" in config.pipelines:
                emit_figure_data(staged, "fig2")
                emit_figure_data(staged, "fig3")
            write_json(os.path.join(staging, "checks.json"), checks)
        result.wall_time_s = time.perf_counter() - t_start
        from . import __version__  # here, not at the top: the package imports this module
        manifest = {
            "config": config.echo(),
            "versions": {"python": platform.python_version(), "numpy": np.__version__,
                         "retrodyn": __version__},
            "wall_time_s": result.wall_time_s,
            "stage_wall_s": stage_s,
            "peak_rss_mb": _peak_rss_mb(),
            "files": sorted(os.listdir(staging)),
        }
        if ens is not None:
            manifest["lane_steps_per_s"] = (config.n_traj * config.grid().n_steps
                                            / stage_s["simulate"])
            manifest["kernel_layer_s"] = ens.layer_s
        with _Stage("emit"):
            write_json(os.path.join(staging, "manifest.json"), manifest)
            files.update((n, os.path.join(config.out_dir, n))
                         for n in manifest["files"] + ["manifest.json"])
            for path in filter(os.path.isdir, files.values()):
                raise IsADirectoryError(f"{path} is a directory")
            for name, path in files.items():
                os.replace(os.path.join(staging, name), path)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
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
