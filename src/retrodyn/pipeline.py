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
trajectories are keyed (master_seed, stream = trajectory index), and each
chunk reduces its lanes where it runs to exact integer sums per node
(estimation._ExactMoments), which collect_ensemble adds up in any order,
so memory does not grow with the ensemble. Only r_hat - r_b and theta = V
+ r.r/2 are summed: the entropy rates, affine in theta, come from its
moments and the display paths from its first lanes, bit for bit as
difference_variance and ensemble_average_rates give them on the same lanes.

An ensemble runs on whole decimation windows: its grid ends at grid_out's
last node, and a horizon past it runs as the horizon floored to that node.
Their coefficients are formed once per run (_window_plan). A chunk draws
blocks of windows lane-major (1.8 MB) and runs each time-major, (windows,
lanes, 2), a cache-sized tile at a time. The one chunk in flight sets a
run's peak memory, so chunks are narrow (DEFAULT_CHUNK_SIZE, 150 lanes:
about 9 MB on the reference grid). The prediction filter repeats the
synthesis up to round-off (r_hat = r), and both are linear in the draws, so
every lane takes the window route (Blelloch, CMU-CS-90-190, 1.4): per
window j of D steps, one weighted sum u_j of its increments carries the
means to the next node and another, S_j - alpha r_j, completes the
retrodiction window sum. A lane reads a window only through (u_j, S_j -
alpha r_j), a linear map of its 2 D independent N(0, dt) increments:
exactly normal, independent across windows and components, with the 2 x 2
covariance G of _window_factors. So every lane draws it in the same law,
from two normals z_u and z_s per component. The products read r_b only on
the valid nodes k < J = valid_stop, outside the backward burn-in, and a
window j >= J reaches them only through r_b[J] = sum_{j >= J} A^(j - J)
S_j. So z_s is drawn on the windows before J only, and the z_s terms past
J, independent of everything else, sum to one tail normal per lane and
component: 2 K + 2 J + 2 normals per lane for K windows, and 2 K without
retrodiction. A chunk job is the plan and a lane range. _route_check takes
trajectory 0 from simulate_trajectory, filters it with forward_filter and
backward_filter and checks both routes on it, the tail included
(checks.json). A chunk and trajectory 0 draw with dynamics._draw_lanes.
"""

from __future__ import annotations

import copy
import math
import os
import platform
import shutil
import sys
import tempfile
import time
from collections import Counter, namedtuple
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
from .estimation import EnsembleVariance, _ExactMoments
from .fullmodel import adiabatic_consistency_check
from .model import PhysParams, _number, derive_rates, load_config, validate_params
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

#: Trajectories per chunk: the unit of work handed to a worker. Each chunk
#: reduces to exact sums, so the chunk size leaves the bytes alone.
DEFAULT_CHUNK_SIZE = 150

#: (x, y) pairs per draw block of the chunk kernel, a z_u and a z_s pair per
#: lane and decimation window, lane-major (z_s before valid_stop only): 1.8
#: MB whatever the chunk holds, 375 windows (750 normals per Philox call) at
#: the default width. Whole windows: blocks leave the bytes alone.
_BLOCK_LANE_STEPS = 112_500

#: (lane, window) pairs per tile of a block, run time-major: about 170 KB
#: per (x, y) buffer, so a tile stays in cache. Tiles leave the bytes alone.
_TILE_LANE_WINDOWS = 10_800

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

    for key, kind in _RUN_KEYS.items():
        if key in run and kind in (int, float):
            run[key] = _number(key, run[key], kind)
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
    """What an ensemble run keeps: per-node exact lane sums, its first
    lanes and the route check values.

    d_moments holds the sums of r_hat - r_b on the valid window (nodes 0 <=
    k < valid_stop) and stays empty without retrodiction; theta_moments
    those of theta = V + r.r/2. theta keeps the first n_kept = min(n_display,
    n_traj) lanes, shape (n_kept, n_out + 1); no other lane is kept. grid_out
    is the decimated grid; v_out the Riccati solution on it. The check values
    come from _route_check; layer_s sums the seconds per layer of the chunks
    (_compute_chunk, whose sums are "fold") and of trajectory 0, its window
    plan and its route check ("route_check").
    """

    grid_out: TimeGrid
    v_out: np.ndarray
    valid_stop: int | None
    theta: np.ndarray
    d_moments: _ExactMoments = field(default_factory=_ExactMoments)
    theta_moments: _ExactMoments = field(default_factory=_ExactMoments)
    inversion_max_abs: float = 0.0
    photocurrent_residual: float = 0.0
    window_route_max_rel: float = 0.0
    layer_s: Counter = field(default_factory=Counter)

    def _add(self, parts) -> None:
        """Add the chunks' results (_compute_chunk), in any order."""
        for lo, theta, sums, layer_s in parts:
            self.theta[lo:lo + len(theta)] = theta
            for ours, theirs in zip((self.d_moments, self.theta_moments), sums):
                ours.merge(theirs)
            self.layer_s.update(layer_s)
            del theta, sums  # before the next chunk is computed


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


#: What a chunk reads of its run, formed once per run (_window_plan): the
#: keys, the output nodes and the window coefficients, nothing per step.
_WindowPlan = namedtuple("_WindowPlan", "master_seed valid_stop n_kept v_out theta alpha "
                         "e_win a_win l11 lw tail_alpha tail_l21 tail_sd")


def _window_plan(p: PhysParams, grid: TimeGrid, v_nodes, decim: int, valid_stop: int | None,
                 master_seed: int, n_kept: int):
    """The _WindowPlan of grid's windows of D = decim steps on the Riccati
    nodes v_nodes, and the weights (back, wu, ws, tail_w) only the route
    check reads: from the per-step (c, amp, efac) (_mean_coefficients) and
    back = (afac, bcoef) ((0, 0) without retrodiction, valid_stop None), (wu,
    ws, alpha) (_window_weights); per window l11, lw = (l21, l22)
    (_window_factors), e_win = efac^D, a_win = A = afac^D and, for j >= J =
    valid_stop, tail_w = A^(j - J) (_tail_weights) times alpha and times l21
    and tail_sd (_tail_sd); theta's empty sums (thermo._theta_moments). Each
    is elementwise per window, as in blocks."""
    v_mids = dynamics.conditional_variance_midpoints(p, v_nodes, grid.dt)
    c, amp, efac = dynamics._mean_coefficients(p, grid.dt, v_mids)
    back = (0.0, 0.0) if valid_stop is None else estimation._backward_coefficients(p, grid.dt)
    wu, ws, alpha = _window_weights(amp.reshape(-1, decim), efac, c * grid.dt, *back)
    l11, l21, l22 = _window_factors(wu, ws, grid.dt)
    stop = len(l11) if valid_stop is None else valid_stop  # no tail without retrodiction
    tail_w = _tail_weights(back[0] ** decim, len(l11) - stop)
    v_out = v_nodes[::decim].copy()
    plan = _WindowPlan(master_seed, valid_stop, n_kept, v_out, thermo._theta_moments(v_out, p),
                       alpha, efac ** decim, back[0] ** decim, l11, np.stack([l21, l22], axis=1),
                       tail_w * alpha, tail_w * l21[stop:], _tail_sd(tail_w, l22[stop:]))
    return plan, (back, wu, ws, tail_w)


def _compute_chunk(args):
    """Simulate, filter and decimate one chunk of trajectories into exact sums.

    args is (plan, lo, hi): the lanes lo to hi of the run whose _window_plan
    is plan, on a grid of whole windows of D steps. The chunk takes the window
    route (_window_weights): per window j, u_j = l11 z_u and S_j = alpha r_j +
    l21 z_u + l22 z_s (_window_factors), x and y of each. Each lane draws z_u
    on every window from its trajectory_rng generator, and, with retrodiction,
    z_s from its key at dynamics._Z_S_COUNTER on the windows j < J =
    valid_stop only, lane-major, by block (dynamics._draw_lanes). Past J a
    window reaches the valid nodes only through r_b[J] = sum_{j >= J} A^(j -
    J) S_j, A = afac^D: its known part alpha r_j + l21 z_u is added forward
    into that row as the nodes are made, and its z_s parts, independent of all
    else, sum to one tail normal per lane and component of standard deviation
    sqrt(sum A^(2 (j - J)) l22_j^2), drawn last from the z_s generator. The
    rest runs time-major, (windows, lanes, 2), one tile of a block's windows
    at a time; the sums (layer "fold") take each tile's theta rows, and d =
    r_hat - r_b after the backward steps over J windows.

    Returns (lo, theta, sums, layer_s): the lanes below n_kept, (lanes,
    nodes); the _ExactMoments of d on the valid nodes (none without
    retrodiction, valid_stop None) and of theta about V; seconds per kernel
    layer. Results depend only on args, not on the worker.
    """
    plan, lo, hi = args
    layer_s, clock = Counter(), [time.perf_counter()]

    def lap(layer):
        clock.append(time.perf_counter())
        layer_s[layer] += clock[-1] - clock[-2]

    master_seed, valid_stop, v_out = plan.master_seed, plan.valid_stop, plan.v_out
    n_win, lanes, retrodict = len(plan.l11), hi - lo, valid_stop is not None
    gens = [dynamics.trajectory_rng(master_seed, s) for s in range(lo, hi)]
    theta = np.full((max(min(plan.n_kept, hi) - lo, 0), len(v_out)), v_out[0])  # r(0) = 0
    sums = _ExactMoments(), copy.copy(plan.theta)  # theta's sums start empty
    part = sums[1].partial(lanes, v_out.shape)  # theta's node 0, at V, sums to 0
    stop = valid_stop if retrodict else 0  # z_s on the windows before stop
    if retrodict:
        s_gens = [dynamics._philox(master_seed, s, dynamics._Z_S_COUNTER) for s in range(lo, hi)]
        rh_dec = np.zeros((valid_stop, lanes, 2))  # r_hat on the valid nodes
        rb_dec = np.zeros((valid_stop + 1, lanes, 2))  # window sums, the tail; r_b
    # A block of n_z windows: the draws z = (z_u, z_s), lane-major. A tile of
    # n_t: the pairs zt, time-major, two window buffers, and r at the tile's
    # nodes (row 0 carried), also as row views.
    n_z = min(max(1, _BLOCK_LANE_STEPS // (2 * lanes)), n_win)
    n_t = min(max(1, _TILE_LANE_WINDOWS // lanes), n_z)
    z, zt = np.empty((2, lanes, n_z, 2)), np.empty((n_t, 2, lanes, 2))
    (tmp, known), nodes = np.empty((2, n_t, lanes, 2)), np.zeros((n_t + 1, lanes, 2))
    rows, step = list(nodes), np.empty((lanes, 2))
    e_win = np.asarray(plan.e_win)  # 0-d, so no ufunc call coerces it
    lap("chunk_setup")
    for j0 in range(0, n_win, n_z):
        k = min(n_z, n_win - j0)  # k windows
        dynamics._draw_lanes(gens, z[0, :, :k])
        if j0 < stop:
            dynamics._draw_lanes(s_gens, z[1, :, :min(k, stop - j0)])
        lap("draws")
        for t0 in range(0, k, n_t):
            j, t = j0 + t0, min(n_t, k - t0)  # windows j to j + t - 1, h before J
            h, zs, u = min(max(stop - j, 0), t), zt[:t], nodes[1:t + 1]
            dynamics._swap_pairs(z[0, :, t0:t0 + t], zs[:, 0])
            dynamics._swap_pairs(z[1, :, t0:t0 + h], zs[:h, 1])
            np.multiply(zs[:, 0], plan.l11[j:j + t, None, None], out=u)
            lap("window_sums")
            for prev, cur in zip(rows[:t], rows[1:t + 1]):
                np.add(np.multiply(prev, e_win, step), cur, cur)
            lap("node_recursion")
            # theta = V + (u_x^2 + u_y^2) / 2, time-major in a window buffer.
            sq, ths = np.multiply(u, u, out=tmp[:t]), known.reshape(-1)[:t * lanes]
            ths = np.add(sq[..., 0], sq[..., 1], out=ths.reshape(t, lanes))
            np.add(np.multiply(ths, 0.5, out=ths), v_out[j + 1:j + t + 1, None], out=ths)
            theta[:, j + 1:j + t + 1] = ths[:, :len(theta)].T
            sums[1].fold(part, ths.T, j + 1)
            lap("fold")
            if retrodict:
                rh_dec[j + 1:j + t + 1] = u[:max(min(t, valid_stop - j - 1), 0)]
                # Window sums alpha r_j + l21 z_u + l22 z_s into rb_dec before
                # J; past it, A^(j - J) (alpha r_j + l21 z_u) into the tail row.
                np.multiply(nodes[:h], plan.alpha, out=rb_dec[j:j + h])
                _add_weighted(rb_dec[j:j + h], zs[:h], plan.lw[j:j + h], tmp[:h])
                if h < t:
                    w, tail = slice(j + h - valid_stop, j + t - valid_stop), known[:t - h]
                    np.multiply(nodes[h:t], plan.tail_alpha[w, None, None], out=tail)
                    _add_weighted(tail, zs[h:, :1], plan.tail_l21[w, None], tmp[:t - h])
                    _add_rows(rb_dec[-1], tail)
                lap("window_sums")
            nodes[0] = nodes[t]
    if retrodict:
        # The tail normal, drawn where window J's z_s would be.
        dynamics._draw_lanes(s_gens, z[1, :, :1])
        rb_dec[-1] += plan.tail_sd * z[1, :, 0]
        lap("draws")
        # Free the block and tile buffers, and every view of them, before d.
        del z, zt, tmp, known, nodes, rows, step, zs, u, sq, ths
        # In place: each window sum is read just before its r_b replaces it.
        estimation._backward_steps(rb_dec, rb_dec[:-1], plan.a_win)
        d = np.subtract(rh_dec, rb_dec[:valid_stop], out=rh_dec)  # time-major
        lap("backward_steps")
        sums[0].add(d.transpose(1, 0, 2))  # lane-major tile by tile
        lap("fold")
    sums[1].add_sums(part, lanes)
    return lo, theta, sums, layer_s


def _route_check(p: PhysParams, traj, plan: _WindowPlan, back, wu, ws, tail_w):
    """(photocurrent residual, filter inversion max, window route max rel):
    the route checks of an ensemble on its trajectory 0 traj, with the plan
    and weights of _window_plan on traj's grid and Riccati nodes.

    forward_filter runs traj's record on those nodes; the window route forms
    its node means and window sums from the same increments with the window
    weights and, with retrodiction (valid_stop not None), the tail r_b[J] =
    sum_{j >= J} A^(j - J) S_j, J = valid_stop, summed forward as
    _compute_chunk sums it, against backward_filter's r_b at node D J. The
    third value is the largest max |difference| / max |per-step value| of
    these pairs. No value depends on n_traj, chunking or worker count.
    """
    grid, stop, (k, decim) = traj.grid, plan.valid_stop, wu.shape
    residual = dynamics._photocurrent_residual(traj, p)
    r_hat = estimation.forward_filter(traj.photocurrent, p, grid, v_series=traj.v)
    # The window route, on one lane: u_j per window, then the node recursion.
    wins, r = traj.dw.reshape(k, decim, 1, 2), traj.r[:, None]
    nodes, tmp = np.zeros((k + 1, 1, 2)), np.empty((k, 1, 2))
    _add_weighted(nodes[1:], wins, wu, tmp)
    for i in range(k):
        nodes[i + 1] += nodes[i] * plan.e_win
    pairs = [(nodes[1:], r[decim::decim])]
    if stop is not None:
        ref, sums = np.zeros((2, k, 1, 2))
        estimation._window_sums(ref, traj.photocurrent[:, None] * grid.dt, *back, decim)
        np.multiply(nodes[:k], plan.alpha, out=sums)
        _add_weighted(sums, wins, ws, tmp)
        pairs.append((sums, ref))
        tail = np.zeros((1, 2))
        _add_rows(tail, sums[stop:] * tail_w[:, None, None])
        pairs.append((tail, estimation.backward_filter(traj.photocurrent, p, grid)[stop * decim]))
    rel = [np.abs(a - b).max(initial=0.0) / (np.abs(b).max(initial=0.0) or 1.0)
           for a, b in pairs]
    return residual, float(np.max(np.abs(r_hat - traj.r))), float(max(rel))


def collect_ensemble(config: ExperimentConfig) -> EnsembleBundle:
    """Run the configured seeded ensemble chunk by chunk and sum it into an
    EnsembleBundle.

    Trajectory j uses stream index j under master_seed, so any sub-ensemble
    is bit-reproducible in isolation, and no bit depends on chunk_size or
    n_workers. The grid is config.grid() cut back to whole decimation
    windows, ending at grid_out's last node: a horizon that ends inside a
    window runs as the horizon floored to that node, and the retrodiction
    starts there, from r_b = 0. Trajectory 0 (_route_check) brings the one
    Riccati solve, for the window plan (_window_plan) that every chunk job
    reads with its lane range. Chunks run here or, for n_workers > 1 (0 =
    one per available CPU), in a process pool; each hands back its exact
    sums and display lanes only. The backward filter runs only when
    "reconstruct" is configured; then eta_det = 0 raises RegimeError.
    """
    p, grid, n_traj, decimation = config.params, config.grid(), config.n_traj, config.decimation
    if n_traj < 2:
        raise ValidationError(f"an ensemble needs n_traj >= 2, got {n_traj}")
    retrodict = "reconstruct" in config.pipelines
    grid_out = _decimated(grid, decimation)
    grid = replace(grid, n_steps=grid_out.n_steps * decimation)  # whole windows
    valid_stop = estimation._valid_stop(p, grid_out) if retrodict else None
    n_kept, size = min(config.n_display, n_traj), config.chunk_size
    t0 = time.perf_counter()
    traj = dynamics.simulate_trajectory(p, grid, derive_rates(p).v_uc, config.master_seed)
    plan, weights = _window_plan(p, grid, traj.v, decimation, valid_stop, config.master_seed,
                                 n_kept)
    checks = _route_check(p, traj, plan, *weights)
    del traj, weights  # before the first chunk
    bundle = EnsembleBundle(grid_out=grid_out, v_out=plan.v_out, valid_stop=valid_stop,
                            theta=np.empty((n_kept, grid_out.n_steps + 1)))
    bundle.photocurrent_residual, bundle.inversion_max_abs, bundle.window_route_max_rel = checks
    bundle.layer_s["route_check"] = time.perf_counter() - t0
    jobs = [(plan, lo, min(lo + size, n_traj)) for lo in range(0, n_traj, size)]
    n_workers = config.n_workers
    if n_workers == 0:
        n_workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
    if n_workers > 1 and len(jobs) > 1:
        # The pool starts all its workers at once: no more than jobs.
        n_workers = min(n_workers, len(jobs))
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            bundle._add(pool.map(_compute_chunk, jobs))
    else:
        bundle._add(map(_compute_chunk, jobs))
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
            # Nodes without ensemble scatter (node 0, where r(0) = 0, and
            # every node at eta_det = 0) have theta = V, the sums' shift, on
            # every lane: mean V exactly, variance 0. Test them as identities.
            scatter = theta_se > 0
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
        if ens is not None:  # the ensemble ran on whole windows (collect_ensemble)
            steps = ens.grid_out.n_steps * config.decimation
            manifest.update(ensemble_steps=steps, ensemble_t_final=ens.grid_out.t_final,
                            lane_steps_per_s=config.n_traj * steps / stage_s["simulate"],
                            kernel_layer_s=ens.layer_s)
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
