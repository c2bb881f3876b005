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
mapping reproducible regardless of scheduling or batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv
from .errors import DomainError, GridError, NumericsError, ShapeError, ValidationError
from .model import GaussianState, PhysParams, derive_rates

__all__ = [
    "TimeGrid",
    "Trajectory",
    "riccati_rhs",
    "solve_conditional_variance",
    "conditional_variance_midpoints",
    "check_grid",
    "trajectory_rng",
    "simulate_trajectory",
    "simulate_batch",
    "unconditional_state",
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
        Generator key; (seed, stream) identifies the noise realization.
    """

    grid: TimeGrid
    r: np.ndarray
    v: np.ndarray
    dw: np.ndarray
    photocurrent: np.ndarray
    seed: int
    stream: int = 0


def riccati_rhs(v, p: PhysParams):
    """Right-hand side Gamma_m (V_uc - v) - 4 eta_det Gamma_qba v^2.

    Accepts a scalar or an ndarray of variances; returns the same shape.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise NumericsError("riccati_rhs: non-finite variance input")
    rates = derive_rates(p)
    out = p.gamma_m * (rates.v_uc - v) - 4.0 * rates.gamma_meas * v * v
    return float(out) if out.ndim == 0 else out


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
    solution decreases monotonically to the steady state V_ss.
    """
    if not (math.isfinite(v0) and v0 > 0):
        raise DomainError(f"v0 must be a positive finite variance, got {v0!r}")
    check_grid(p, grid)
    rates = derive_rates(p)
    four_gm = 4.0 * rates.gamma_meas
    out = np.empty(grid.n_steps + 1)
    out[0] = v = v0
    for k in range(grid.n_steps):
        v = _rk4_step(v, grid.dt, p, rates.v_uc, four_gm)
        out[k + 1] = v
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

    Philox keyed by (seed, stream); consecutive standard_normal draws give
    the (seed, stream, step, component) -> increment mapping.
    """
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _synthesize(p: PhysParams, grid: TimeGrid, v_nodes, v_mids, dw):
    """Synthesis kernel of simulate_batch.

    dw has shape (..., n_steps, 2); returns (r, idt_over_dt) with r of shape
    (..., n_steps + 1, 2). Elementwise updates only, so batching does not
    change any lane's bits.
    """
    dt = grid.dt
    c = math.sqrt(4.0 * p.eta_det * p.gamma_qba)
    amp = c * v_mids  # noise amplitude per step
    efac = 1.0 - 0.5 * p.gamma_m * dt
    lead = dw.shape[:-2]
    n = grid.n_steps
    r = np.zeros(lead + (n + 1, 2))
    photo = np.empty_like(dw)
    cur = r[..., 0, :]
    for k in range(n):
        dw_k = dw[..., k, :]
        photo[..., k, :] = (c * cur * dt + dw_k) / dt
        cur = cur * efac + amp[k] * dw_k
        r[..., k + 1, :] = cur
    return r, photo


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
    """
    streams = list(streams)
    if not streams:
        raise ValidationError("simulate_batch needs at least one stream index")
    v_nodes = solve_conditional_variance(p, grid, v0)
    v_mids = conditional_variance_midpoints(p, v_nodes, grid.dt)
    dw = np.empty((len(streams), grid.n_steps, 2))
    for j, s in enumerate(streams):
        gen = trajectory_rng(seed, s)
        dw[j] = gen.standard_normal((grid.n_steps, 2)) * math.sqrt(grid.dt)
    r, photo = _synthesize(p, grid, v_nodes, v_mids, dw)
    return Trajectory(grid=grid, r=r, v=v_nodes, dw=dw, photocurrent=photo,
                      seed=seed, stream=streams[0])


def unconditional_state(p: PhysParams) -> GaussianState:
    """The unconditional stationary state: r = 0, v = V_uc."""
    return GaussianState(r=np.zeros(2), v=derive_rates(p).v_uc)


def verify_photocurrent_identity(traj: Trajectory, p: PhysParams) -> bool:
    """Check i dt = sqrt(4 eta Gamma_qba) r dt + dw at every stored step.

    The comparison is bit-level: the stored record must equal the defining
    expression recomputed from r and dw.
    """
    dt = traj.grid.dt
    c = math.sqrt(4.0 * p.eta_det * p.gamma_qba)
    expected = (c * traj.r[..., :-1, :] * dt + traj.dw) / dt
    return np.array_equal(traj.photocurrent, expected)


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
    photocurrent identity. Raises ShapeError for ragged or non-uniform files.
    """
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    if data.ndim != 2 or data.shape[1] != 6 or data.shape[0] < 2:
        raise ShapeError(f"{path}: expected rows of 6 columns ({CSV_HEADER})")
    t = data[:, 0]
    dts = np.diff(t)
    dt = dts[0]
    if not np.allclose(dts, dt, rtol=1e-9, atol=0.0):
        raise ShapeError(f"{path}: time column is not uniformly spaced")
    grid = TimeGrid(t0=float(t[0]), dt=float(dt), n_steps=len(t) - 1)
    r = data[:, 1:3].copy()
    v = data[:, 3].copy()
    photo = data[:-1, 4:6].copy()
    if not np.all(np.isfinite(photo)):
        raise ShapeError(f"{path}: non-finite photocurrent before the terminal row")
    c = math.sqrt(4.0 * p.eta_det * p.gamma_qba)
    dw = photo * grid.dt - c * r[:-1] * grid.dt
    return Trajectory(grid=grid, r=r, v=v, dw=dw, photocurrent=photo,
                      seed=-1, stream=0)
