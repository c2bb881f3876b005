"""Conditional cumulant dynamics and photocurrent synthesis.

The conditional state of the monitored resonator stays Gaussian and isotropic,
so its evolution splits into a deterministic Riccati equation for the scalar
variance,

    dV/dt = Gamma_m (V_uc - V) - 4 eta_det Gamma_qba V^2,

and a linear stochastic equation for the means,

    dr = -(Gamma_m / 2) r dt + sqrt(4 eta_det Gamma_qba) V(t) dW,

with the homodyne record tied to the same Wiener increments through

    i(t) dt = sqrt(4 eta_det Gamma_qba) r(t) dt + dW.

Everything here works in the frame rotating at the mechanical frequency, so
no oscillation at omega_m appears. V(t) is integrated by classical RK4; r(t)
by Euler-Maruyama. The noise amplitude is sampled at step midpoints (one
deterministic half-step of RK4 ahead of each node), which removes the O(dt)
sampling bias from ensemble variances while leaving the drift update plain
Euler-Maruyama; the equation is linear in r with an r-independent noise
amplitude, so strong order 1 needs no Milstein correction.

Wiener increments come from a counter-based generator (Philox) keyed by
(seed, stream), making every (seed, stream, step, component) -> increment
mapping reproducible regardless of scheduling, batching or block size.
Draws are lane-major, one Philox call per lane (_draw_lanes, which the
chunk kernel of retrodyn.pipeline shares). The recurrences run time-major:
a batch is laid out (steps, lanes, 2), so one step updates every lane in
one contiguous row. A single lane runs the same loop on Python floats
instead (_one_lane_blocks), which performs the same IEEE operations without
numpy's per-call cost on a 2-element row. _synthesis_steps and _photocurrent
are the one implementation of the synthesis; simulate_batch runs them on
its draws and returns lane-major arrays. The route check of an ensemble in
retrodyn.pipeline takes its trajectory 0 from simulate_trajectory.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._io import write_csv
from .errors import DomainError, GridError, ShapeError, ValidationError
from .model import PhysParams, derive_rates

__all__ = [
    "TimeGrid",
    "Trajectory",
    "solve_conditional_variance",
    "conditional_variance_midpoints",
    "check_grid",
    "trajectory_rng",
    "simulate_trajectory",
    "simulate_batch",
    "verify_photocurrent_identity",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

#: Explicit-scheme guard: dt times the fastest rate must stay below this.
GRID_GUARD = 0.05

#: Default step and horizon for the reference parameters.
DEFAULT_DT = 1e-7
DEFAULT_T_FINAL = 3e-3
DEFAULT_DECIMATION = 10

CSV_HEADER = "t,rx,ry,v,ix,iy"

#: Bound on the photocurrent identity residual max |i dt - c r dt - dw| /
#: sqrt(dt): round-off, about 1e-15 on intact records.
PHOTOCURRENT_TOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid: n_steps intervals of width dt starting at t0.

    Series of node values have n_steps + 1 entries; per-step quantities
    (Wiener increments, photocurrent) have n_steps entries, each attached
    to the step that starts at the same index.
    """

    t0: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.dt)):
            raise GridError("t0 and dt must be finite")
        if self.dt <= 0:
            raise GridError(f"dt must be > 0, got {self.dt!r}")
        if self.n_steps < 1:
            raise GridError(f"n_steps must be >= 1, got {self.n_steps!r}")

    @property
    def t_final(self) -> float:
        return self.t0 + self.dt * self.n_steps

    def times(self) -> np.ndarray:
        """Node times, shape (n_steps + 1,)."""
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class Trajectory:
    """One simulated conditional trajectory at full step resolution.

    Attributes
    ----------
    grid : TimeGrid
        The integration grid.
    r : ndarray, shape (n_steps + 1, 2)
        Conditional means at the nodes.
    v : ndarray, shape (n_steps + 1,)
        Conditional variance at the nodes.
    dw : ndarray, shape (n_steps, 2)
        Wiener increments, units sqrt(s).
    photocurrent : ndarray, shape (n_steps, 2)
        Homodyne record i, units 1/sqrt(s); i[k] * dt equals
        sqrt(4 eta_det Gamma_qba) r[k] dt + dw[k] by construction.
    seed, stream : int
        Generator key of the noise realization; a batch holds streams[0].
    """

    grid: TimeGrid
    r: np.ndarray
    v: np.ndarray
    dw: np.ndarray
    photocurrent: np.ndarray
    seed: int
    stream: int = 0


def check_grid(p: PhysParams, grid: TimeGrid) -> None:
    """Raise GridError unless dt resolves the fastest contraction rate.

    The guard is dt * (Gamma_m / 2 + 4 eta_det Gamma_qba V_uc) < 0.05.
    """
    rates = derive_rates(p)
    fastest = 0.5 * p.gamma_m + 4.0 * rates.gamma_meas * rates.v_uc
    if grid.dt * fastest >= GRID_GUARD:
        raise GridError(
            f"dt = {grid.dt:g} is too coarse: dt * (Gamma_m/2 + 4 eta Gamma_qba V_uc) "
            f"= {grid.dt * fastest:.3g} >= {GRID_GUARD}; use a smaller dt"
        )


def _rk4_step(v, h, p: PhysParams, v_uc: float, four_gm: float):
    # One classical RK4 step of the Riccati equation; works on scalars or arrays.
    def f(x):
        return p.gamma_m * (v_uc - x) - four_gm * x * x

    k1 = f(v)
    k2 = f(v + 0.5 * h * k1)
    k3 = f(v + 0.5 * h * k2)
    k4 = f(v + h * k3)
    return v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def solve_conditional_variance(p: PhysParams, grid: TimeGrid, v0: float) -> np.ndarray:
    """Integrate the variance Riccati equation with classical RK4.

    Returns the node values, shape (n_steps + 1,). Starting from V_uc the
    solution decreases monotonically to the steady state V_ss. Calls with
    equal inputs share one solve; each call gets its own copy.
    """
    if not (math.isfinite(v0) and v0 > 0):
        raise DomainError(f"v0 must be a positive finite variance, got {v0!r}")
    check_grid(p, grid)
    return _riccati_series(p, grid, float(v0)).copy()


@functools.lru_cache(maxsize=2)
def _riccati_series(p: PhysParams, grid: TimeGrid, v0: float) -> np.ndarray:
    """The RK4 node series of solve_conditional_variance, read-only.

    A record is simulated and then filtered on one grid, and each step
    solves the same series; the cache keeps the last two.
    """
    rates = derive_rates(p)
    gm, v_uc, four_gm, h = p.gamma_m, rates.v_uc, 4.0 * rates.gamma_meas, grid.dt
    half, sixth = 0.5 * h, h / 6.0

    def nodes(v):
        # _rk4_step inlined on Python floats, in its operation order.
        yield v
        for _ in range(grid.n_steps):
            k1 = gm * (v_uc - v) - four_gm * v * v
            x = v + half * k1
            k2 = gm * (v_uc - x) - four_gm * x * x
            x = v + half * k2
            k3 = gm * (v_uc - x) - four_gm * x * x
            x = v + h * k3
            k4 = gm * (v_uc - x) - four_gm * x * x
            v = v + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            yield v

    out = np.fromiter(nodes(v0), float, grid.n_steps + 1)
    out.flags.writeable = False
    return out


def conditional_variance_midpoints(p: PhysParams, v_nodes: np.ndarray, dt: float) -> np.ndarray:
    """Midpoint variance samples: one RK4 half-step ahead of every node.

    Deterministic given (p, v_nodes, dt), so the synthesis and the forward
    filter rebuild bit-identical midpoint series from the same node series.
    """
    rates = derive_rates(p)
    return _rk4_step(np.asarray(v_nodes[:-1], dtype=float), 0.5 * dt, p,
                     rates.v_uc, 4.0 * rates.gamma_meas)


def trajectory_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for one noise realization.

    Philox keyed by (seed, stream) from counter 0: a record's per-step
    increments and an ensemble lane's z_u (its z_s start at _Z_S_COUNTER).
    """
    return _philox(seed, stream)


#: Philox counter of an ensemble lane's z_s draws: its top word is 1, so under
#: the lane's key they never meet those of trajectory_rng, which start at 0.
_Z_S_COUNTER = (0, 0, 0, 1)


def _philox(seed: int, stream: int, counter=None) -> np.random.Generator:
    """Philox keyed (seed mod 2^64, stream mod 2^64), from counter (0 if None)."""
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _measurement_strength(p: PhysParams) -> float:
    """c = sqrt(4 eta Gamma_qba), the weight of the means in the record."""
    return math.sqrt(4.0 * p.eta_det * p.gamma_qba)


def _mean_coefficients(p: PhysParams, dt: float, v_mids):
    """(c, amp, efac) shared by the synthesis and the forward filter.

    c is the measurement strength, amp = c V_mid the noise amplitude per
    step and efac = 1 - Gamma_m dt / 2 the drift factor.
    """
    c = _measurement_strength(p)
    return c, c * v_mids, 1.0 - 0.5 * p.gamma_m * dt


def _draw_lanes(gens, out) -> None:
    """Each lane's next unit normals into its row of out: one call per lane.
    Philox draws only what it hands out, so blocks leave the bits alone."""
    for gen, row in zip(gens, out):
        gen.standard_normal(out=row)


def _swap_pairs(x, out=None):
    """x of shape (a, b, 2) as a C-ordered (b, a, 2) array, into out if given.

    Each (x, y) pair moves as one 16-byte element: a copy of half as many,
    twice as wide elements as swapping the float axes.
    """
    out = np.empty((x.shape[1], x.shape[0], 2)) if out is None else out
    np.copyto(out.view(np.complex128)[..., 0], x.view(np.complex128)[..., 0].T)
    return out


#: Rows per block of a one-lane recursion on Python floats: enough to spread
#: the conversions, few enough that the float objects stay small.
_FLOAT_BLOCK = 512


def _one_lane_blocks(out, series, steps=None, reverse=False):
    """The operands of a time-major recursion, in the form its loop runs on.

    out has one row more than series; steps holds per-step scalars or None.
    Several lanes: the arrays, once, so each step updates a whole row. One
    lane (out[0].size == 2): for each quadrature, blocks of _FLOAT_BLOCK
    rows as lists of Python floats, on which the loop does the same IEEE
    operations without numpy's per-call cost. The loop fills the out list,
    which is written back before the next block; blocks run in time order,
    or reversed, so each starts from the row the one before wrote. series
    may alias out: a block is read before it is written.
    """
    if out[0].size != 2:
        yield out, series, steps
        return
    # Dropping the unit lane axis of a one-lane array is always a view.
    out2, series2 = out.reshape(len(out), 2), series.reshape(len(series), 2)
    starts = range(0, len(series), _FLOAT_BLOCK)
    for q in (0, 1):
        for s0 in (reversed(starts) if reverse else starts):
            s1 = min(s0 + _FLOAT_BLOCK, len(series))
            block = out2[s0:s1 + 1, q].tolist()
            yield (block, series2[s0:s1, q].tolist(),
                   None if steps is None else steps[s0:s1].tolist())
            out2[s0:s1 + 1, q] = block


def _synthesis_steps(r, dw, amp, efac: float) -> None:
    """Euler-Maruyama means over a time-major block, in place.

    r has one row more than dw; r[0] holds the starting means and row k + 1
    receives r[k] efac + amp[k] dw[k]. A row holds every lane; one lane runs
    on Python floats (_one_lane_blocks).
    """
    for rows, dws, amps in _one_lane_blocks(r, dw, amp):
        cur = rows[0]
        for k, (a, d) in enumerate(zip(amps, dws), 1):
            cur = cur * efac + a * d
            rows[k] = cur


def _photocurrent(r_start, dw, c: float, dt: float):
    """Homodyne record (c r dt + dw) / dt of the steps starting at r_start."""
    return (c * r_start * dt + dw) / dt


def _recovered_increments(photo, r_start, c: float, dt: float):
    """Wiener increments i dt - c r dt recovered from a record, the inverse
    of _photocurrent up to round-off."""
    return photo * dt - c * r_start * dt


def _photocurrent_residual(traj: Trajectory, p: PhysParams) -> float:
    """max |i dt - c r dt - dw| / sqrt(dt) of a record or a batch: the
    recovered increments against dw, over every step of every lane."""
    c, dt = _measurement_strength(p), traj.grid.dt
    rec = _recovered_increments(traj.photocurrent, traj.r[..., :-1, :], c, dt) - traj.dw
    return float(np.abs(rec, out=rec).max(initial=0.0)) / math.sqrt(dt)


def simulate_trajectory(p: PhysParams, grid: TimeGrid, v0: float, seed: int,
                        stream: int = 0) -> Trajectory:
    """Simulate one conditional trajectory from the unconditional ensemble.

    The means start at r(0) = 0 (the unconditional stationary state has
    vanishing first cumulants) and follow the Euler-Maruyama update

        r[k+1] = r[k] (1 - Gamma_m dt / 2) + sqrt(4 eta Gamma_qba) V_mid[k] dw[k],

    with the photocurrent record synthesized as
    i[k] = (sqrt(4 eta Gamma_qba) r[k] dt + dw[k]) / dt. Fixing (seed, stream)
    and rerunning gives bit-identical output.
    """
    lane = simulate_batch(p, grid, v0, seed, [stream])
    return Trajectory(grid=grid, r=lane.r[0], v=lane.v, dw=lane.dw[0],
                      photocurrent=lane.photocurrent[0], seed=seed, stream=stream)


def simulate_batch(p: PhysParams, grid: TimeGrid, v0: float, seed: int,
                   streams) -> Trajectory:
    """Simulate a batch of trajectories sharing one variance series.

    streams is a sequence of stream indices; the returned Trajectory holds
    stacked arrays with a leading batch axis (r has shape (m, n+1, 2)).
    Lane j is bit-identical to simulate_trajectory(..., stream=streams[j]).
    The draws and the returned arrays are lane-major; the means run time-major.
    """
    streams = list(streams)
    if not streams:
        raise ValidationError("simulate_batch needs at least one stream index")
    v_nodes = solve_conditional_variance(p, grid, v0)
    c, amp, efac = _mean_coefficients(
        p, grid.dt, conditional_variance_midpoints(p, v_nodes, grid.dt))
    dw = np.empty((len(streams), grid.n_steps, 2))
    _draw_lanes([trajectory_rng(seed, s) for s in streams], dw)
    dw *= math.sqrt(grid.dt)
    r = np.zeros((grid.n_steps + 1, len(streams), 2))
    _synthesis_steps(r, _swap_pairs(dw), amp, efac)
    r = _swap_pairs(r)
    photo = _photocurrent(r[:, :-1], dw, c, grid.dt)
    return Trajectory(grid=grid, r=r, v=v_nodes, dw=dw, photocurrent=photo,
                      seed=seed, stream=streams[0])


def verify_photocurrent_identity(traj: Trajectory, p: PhysParams) -> bool:
    """Check i dt = sqrt(4 eta Gamma_qba) r dt + dw at every stored step.

    The increments recovered from the record, as read_trajectory_csv
    recovers them, must match dw to PHOTOCURRENT_TOL in units of sqrt(dt):
    the residual and bound of a run's photocurrent_identity check.

    The check needs dw from an independent source, such as the Philox draws
    of simulate_trajectory. On a record read back by read_trajectory_csv, dw
    was recovered by this same formula, so the residual is exactly 0 and the
    check cannot detect a corrupted file.
    """
    return _photocurrent_residual(traj, p) <= PHOTOCURRENT_TOL


def write_trajectory_csv(traj: Trajectory, path, every: int = 1) -> None:
    """Export a trajectory as CSV with header ``t,rx,ry,v,ix,iy``.

    Floats carry 17 significant digits. ``every`` keeps one node in that
    many (decimation); the terminal node starts no step, so its ix,iy
    fields hold nan. Note that a decimated export cannot be refiltered:
    the record's increments belong to the original dt.
    """
    if every < 1:
        raise ValidationError(f"every must be >= 1, got {every!r}")
    photo = np.concatenate([traj.photocurrent, np.full((1, 2), math.nan)])
    sl = slice(None, None, every)
    write_csv(path, CSV_HEADER, [traj.grid.times()[sl], traj.r[sl, 0], traj.r[sl, 1],
                                 traj.v[sl], photo[sl, 0], photo[sl, 1]])


def read_trajectory_csv(path, p: PhysParams) -> Trajectory:
    """Rebuild a Trajectory from a full-resolution CSV export.

    The grid step is inferred from the t column; dw is recovered from the
    photocurrent identity. Raises ShapeError for ragged, non-numeric,
    non-increasing or non-uniform files and for non-finite values anywhere
    but the terminal row's photocurrent.
    """
    bad_rows = f"{path}: expected rows of 6 columns ({CSV_HEADER})"
    try:
        with warnings.catch_warnings():
            # A file without data rows is reported below, as a ShapeError.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ShapeError(bad_rows) from exc
    if data.shape[1] != 6 or data.shape[0] < 2:
        raise ShapeError(bad_rows)
    if not np.all(np.isfinite(data[:, :4])):
        raise ShapeError(f"{path}: non-finite t, r or v")
    t = data[:, 0]
    dts = np.diff(t)
    if not np.all(dts > 0):
        raise ShapeError(f"{path}: time column is not increasing")
    dt = dts[0]
    if not np.allclose(dts, dt, rtol=1e-9, atol=0.0):
        raise ShapeError(f"{path}: time column is not uniformly spaced")
    grid = TimeGrid(t0=float(t[0]), dt=float(dt), n_steps=len(t) - 1)
    r = data[:, 1:3].copy()
    v = data[:, 3].copy()
    photo = data[:-1, 4:6].copy()
    if not np.all(np.isfinite(photo)):
        raise ShapeError(f"{path}: non-finite photocurrent before the terminal row")
    dw = _recovered_increments(photo, r[:-1], _measurement_strength(p), grid.dt)
    return Trajectory(grid=grid, r=r, v=v, dw=dw, photocurrent=photo,
                      seed=-1, stream=0)
