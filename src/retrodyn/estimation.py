"""Prediction and retrodiction filters and the variance reconstruction.

Given a photocurrent record i(t), the forward (prediction) filter recovers
the conditional mean by the recursion

    r_hat <- r_hat + [-(Gamma_m/2) r_hat - 4 eta Gamma_qba V r_hat] dt
             + sqrt(4 eta Gamma_qba) V i dt,

which on synthetic records inverts the synthesis exactly (same grid, same
variance series) up to accumulated round-off. The backward (retrodiction)
filter integrates, in reverse time from r_b(T) = 0,

    d r_b / dt = lambda r_b - sqrt(4 Gamma_meas) V_E i(t),

with the steady backward variance V_E and lambda = 4 Gamma_meas V_E -
Gamma_m / 2. The kernel exp(lambda (t - s)) contracts only in the reverse
direction, so lambda <= 0 is refused. A terminal window of 10 / lambda is
flagged invalid while the filter forgets its terminal condition.

The difference trajectory d(t) = r_hat(t) - r_b(t) has per-quadrature
ensemble variance

    V_d(t) = V(t) + V_ss + Gamma_m / (4 Gamma_meas),

so the conditional variance V(t) is recoverable from ensemble statistics of
filtered records alone, without access to the underlying states. That
reconstruction, with either the exact offset or the large-cooperativity
shortcut V_ss ~ V_d(inf) / 2, is what reconstruct_conditional_variance does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv
from .errors import (
    RegimeError,
    ReconstructionError,
    ShapeError,
    StatisticsError,
    ValidationError,
)
from .dynamics import TimeGrid, Trajectory, conditional_variance_midpoints, solve_conditional_variance
from .model import DerivedRates, PhysParams, derive_rates

__all__ = [
    "FilteredPath",
    "EnsembleVariance",
    "forward_filter",
    "backward_filter",
    "burn_in_steps",
    "filter_record",
    "difference_variance",
    "reconstruct_conditional_variance",
    "write_reconstruction_csv",
]

#: Fraction of the valid window used as the stationary tail by default.
DEFAULT_TAIL_FRACTION = 0.20

RECONSTRUCTION_CSV_HEADER = "t,v_d,stderr,v_rec"


@dataclass(frozen=True)
class FilteredPath:
    """Forward and backward filtered means for one record.

    valid_range is the half-open index interval (start, stop) of nodes where
    the backward burn-in has decayed; it excludes at least
    ceil(10 / (lambda dt)) steps adjacent to the terminal time. Arrays may
    carry a leading batch axis.
    """

    grid: TimeGrid
    r_hat: np.ndarray
    r_b: np.ndarray
    valid_range: tuple[int, int]


@dataclass(frozen=True)
class EnsembleVariance:
    """Pooled per-quadrature sample variance of d(t) = r_hat - r_b.

    n_samples counts pooled scalar samples (two quadratures per path), and
    stderr = v_d * sqrt(2 / (n_samples - 1)) pointwise. The grid covers only
    the valid window common to the input paths.
    """

    grid: TimeGrid
    v_d: np.ndarray
    n_samples: int
    stderr: np.ndarray


def _resolve_variance(p: PhysParams, grid: TimeGrid, v_series) -> tuple[np.ndarray, np.ndarray]:
    """Node and midpoint variance series for the filter gain."""
    if v_series is None:
        v_nodes = solve_conditional_variance(p, grid, derive_rates(p).v_uc)
    else:
        v_nodes = np.asarray(v_series, dtype=float)
        if v_nodes.shape != (grid.n_steps + 1,):
            raise ShapeError(
                f"v_series must have {grid.n_steps + 1} node values, got shape {v_nodes.shape}"
            )
    return v_nodes, conditional_variance_midpoints(p, v_nodes, grid.dt)


def forward_filter(photocurrent, p: PhysParams, grid: TimeGrid,
                   v_series=None, r0=None) -> np.ndarray:
    """Run the prediction filter over a photocurrent record.

    Parameters
    ----------
    photocurrent : ndarray, shape (..., n_steps, 2)
        Homodyne record; a leading batch axis filters many records at once.
    v_series : ndarray or None
        Variance node values. None recomputes the conditional variance from
        the unconditional initial value, which matches records synthesized by
        simulate_trajectory; passing the same node series a simulation used
        gives bit-identical gains.
    r0 : 2-vector or None
        Initial estimate, default zeros.

    Returns the estimate at the nodes, shape (..., n_steps + 1, 2).
    """
    i = np.asarray(photocurrent, dtype=float)
    if i.shape[-2:] != (grid.n_steps, 2):
        raise ShapeError(
            f"photocurrent shape {i.shape} does not match grid with {grid.n_steps} steps"
        )
    _, v_mids = _resolve_variance(p, grid, v_series)
    dt = grid.dt
    c = math.sqrt(4.0 * p.eta_det * p.gamma_qba)
    amp = c * v_mids
    efac = 1.0 - 0.5 * p.gamma_m * dt
    out = np.zeros(i.shape[:-2] + (grid.n_steps + 1, 2))
    if r0 is not None:
        out[..., 0, :] = np.asarray(r0, dtype=float)
    cur = out[..., 0, :].copy()
    for k in range(grid.n_steps):
        idt = i[..., k, :] * dt
        # algebraically (1 - Gamma_m dt/2 - 4 Gamma_meas V dt) r + amp * i dt
        cur = cur * efac + amp[k] * (idt - c * cur * dt)
        out[..., k + 1, :] = cur
    return out


def _retrodiction_rates(p: PhysParams) -> DerivedRates:
    """Derived rates, refused unless the backward filter contracts."""
    rates = derive_rates(p)
    lam = rates.lambda_b
    if not (lam > 0):
        raise RegimeError(
            f"retrodiction needs lambda > 0, got {lam!r}: measurement too weak"
        )
    if not (math.isfinite(lam) and math.isfinite(rates.v_e)):
        raise RegimeError("retrodiction undefined in the measurement-off limit")
    return rates


def burn_in_steps(p: PhysParams, dt: float) -> int:
    """Number of grid steps in the backward burn-in window 10 / lambda."""
    return math.ceil(10.0 / (_retrodiction_rates(p).lambda_b * dt))


def backward_filter(photocurrent, p: PhysParams, grid: TimeGrid) -> np.ndarray:
    """Run the retrodiction filter backward from r_b(T) = 0.

    Reverse-time explicit Euler of d r_b/dt = lambda r_b - sqrt(4 Gamma_meas)
    V_E i(t):

        r_b[k] = (1 - lambda dt) r_b[k+1] + sqrt(4 Gamma_meas) V_E i[k] dt.

    Returns node values, shape (..., n_steps + 1, 2). Estimates inside the
    terminal burn-in window (the last ceil(10/(lambda dt)) steps) still carry
    the arbitrary terminal condition; burn_in_steps gives the cutoff.
    """
    i = np.asarray(photocurrent, dtype=float)
    if i.shape[-2:] != (grid.n_steps, 2):
        raise ShapeError(
            f"photocurrent shape {i.shape} does not match grid with {grid.n_steps} steps"
        )
    rates = _retrodiction_rates(p)
    lam = rates.lambda_b
    dt = grid.dt
    afac = 1.0 - lam * dt
    bcoef = math.sqrt(4.0 * rates.gamma_meas) * rates.v_e
    out = np.zeros(i.shape[:-2] + (grid.n_steps + 1, 2))
    cur = out[..., -1, :].copy()
    for k in range(grid.n_steps - 1, -1, -1):
        cur = cur * afac + bcoef * (i[..., k, :] * dt)
        out[..., k, :] = cur
    return out


def filter_record(photocurrent, p: PhysParams, grid: TimeGrid,
                  v_series=None) -> FilteredPath:
    """Forward- and backward-filter one record (or a batch) into a FilteredPath."""
    r_hat = forward_filter(photocurrent, p, grid, v_series)
    r_b = backward_filter(photocurrent, p, grid)
    burn = burn_in_steps(p, grid.dt)
    stop = max(grid.n_steps + 1 - burn, 0)
    return FilteredPath(grid=grid, r_hat=r_hat, r_b=r_b, valid_range=(0, stop))


def filter_trajectory(traj: Trajectory, p: PhysParams) -> FilteredPath:
    """Filter a synthetic trajectory using its own variance series."""
    return filter_record(traj.photocurrent, p, traj.grid, v_series=traj.v)


def _stack_paths(paths) -> tuple[TimeGrid, np.ndarray, np.ndarray, tuple[int, int]]:
    paths = list(paths)
    if not paths:
        raise StatisticsError("difference_variance needs at least 2 paths, got 0")
    grid = paths[0].grid
    lo, hi = paths[0].valid_range
    r_hat, r_b = [], []
    for path in paths:
        if path.grid != grid:
            raise ShapeError("all FilteredPaths must share one grid")
        lo = max(lo, path.valid_range[0])
        hi = min(hi, path.valid_range[1])
        rh = path.r_hat if path.r_hat.ndim == 3 else path.r_hat[None]
        rb = path.r_b if path.r_b.ndim == 3 else path.r_b[None]
        r_hat.append(rh)
        r_b.append(rb)
    return grid, np.concatenate(r_hat), np.concatenate(r_b), (lo, hi)


def difference_variance(paths) -> EnsembleVariance:
    """Pooled sample variance of the difference trajectory over an ensemble.

    paths is a collection of FilteredPath on one common grid (batched paths
    count each lane as one sample). The ensemble mean is subtracted even
    though it vanishes in theory; sums over the ensemble use pairwise
    reduction (numpy), so the result does not depend on worker scheduling
    upstream.
    """
    grid, r_hat, r_b, (lo, hi) = _stack_paths(paths)
    n_paths = r_hat.shape[0]
    if n_paths < 2:
        raise StatisticsError(f"difference_variance needs at least 2 paths, got {n_paths}")
    if hi - lo < 1:
        raise StatisticsError("no valid window is left after the backward burn-in")
    d = r_hat[:, lo:hi, :] - r_b[:, lo:hi, :]
    var_q = d.var(axis=0, ddof=1)          # per-quadrature, mean subtracted
    v_d = var_q.mean(axis=1)               # pooled over the two quadratures
    n_samples = 2 * n_paths
    stderr = v_d * math.sqrt(2.0 / (n_samples - 1))
    sub = TimeGrid(t0=grid.t0 + lo * grid.dt, dt=grid.dt, n_steps=hi - lo - 1)
    return EnsembleVariance(grid=sub, v_d=v_d, n_samples=n_samples, stderr=stderr)


def _tail_is_stationary(v_d, stderr, n_tail) -> bool:
    # Two-half-means test with one effective sample per half: the samples are
    # strongly time-correlated, so an OLS slope stderr would be anti-conservative.
    tail = v_d[-n_tail:]
    half = n_tail // 2
    m1, m2 = tail[:half].mean(), tail[half:].mean()
    sigma = float(np.mean(stderr[-n_tail:]))
    return abs(m2 - m1) <= 3.0 * math.sqrt(2.0) * sigma


def reconstruct_conditional_variance(ev: EnsembleVariance, p: PhysParams,
                                     mode: str = "exact",
                                     tail_fraction: float = DEFAULT_TAIL_FRACTION,
                                     ):
    """Recover V(t) from the difference-trajectory variance.

    mode "exact" removes the full offset: v_ss_est = (tail mean - Gamma_m /
    (4 Gamma_meas)) / 2 and V(t) = v_d(t) - v_ss_est - Gamma_m/(4 Gamma_meas).
    mode "paper-approx" uses the large-cooperativity shortcut v_ss_est =
    tail mean / 2 and V(t) = v_d(t) - v_ss_est, which carries a relative
    bias Gamma_m / (8 Gamma_meas V_ss) in v_ss_est.

    The tail is the trailing tail_fraction of the valid window and must pass
    a stationarity test (two half-means within 3 sigma), otherwise a
    ReconstructionError suggests a longer horizon.

    Returns (v_rec, v_ss_est).
    """
    if mode not in ("exact", "paper-approx"):
        raise ValidationError(f"mode must be 'exact' or 'paper-approx', got {mode!r}")
    if not 0.0 < tail_fraction <= 1.0:
        raise ValidationError(f"tail_fraction must lie in (0, 1], got {tail_fraction!r}")
    v_d = np.asarray(ev.v_d, dtype=float)
    n_tail = max(int(tail_fraction * len(v_d)), 2)
    if n_tail > len(v_d):
        raise StatisticsError("ensemble window too short for the requested tail")
    if not _tail_is_stationary(v_d, ev.stderr, n_tail):
        raise ReconstructionError(
            "tail of v_d is not stationary at 3 sigma; "
            "extend the horizon so the conditional variance settles"
        )
    tail_mean = float(v_d[-n_tail:].mean())
    offset = p.gamma_m / (4.0 * derive_rates(p).gamma_meas)
    if mode == "exact":
        v_ss_est = 0.5 * (tail_mean - offset)
        v_rec = v_d - v_ss_est - offset
    else:
        v_ss_est = 0.5 * tail_mean
        v_rec = v_d - v_ss_est
    return v_rec, v_ss_est


def write_reconstruction_csv(path, ev: EnsembleVariance, v_rec) -> None:
    """Write the ``t,v_d,stderr,v_rec`` data product for an ensemble."""
    v_rec = np.asarray(v_rec, dtype=float)
    if v_rec.shape != ev.v_d.shape:
        raise ShapeError("v_rec and ev.v_d must have matching shapes")
    write_csv(path, RECONSTRUCTION_CSV_HEADER, [ev.grid.times(), ev.v_d, ev.stderr, v_rec])
