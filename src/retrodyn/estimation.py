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

Its Euler step r_b[k] = afac r_b[k+1] + bcoef i[k] dt is linear, so it
composes over windows of D steps (Blelloch, CMU-CS-90-190, 1.4): r_b[D j]
= afac^D r_b[D (j+1)] + B[j], B[j] = bcoef sum_{m<D} afac^m i[D j + m] dt.

The difference trajectory d(t) = r_hat(t) - r_b(t) has per-quadrature
ensemble variance

    V_d(t) = V(t) + V_ss + Gamma_m / (4 Gamma_meas),

so the conditional variance V(t) is recoverable from ensemble statistics of
filtered records alone, without access to the underlying states. That
reconstruction, with either the exact offset or the large-cooperativity
shortcut V_ss ~ V_d(inf) / 2, is what reconstruct_conditional_variance does.

Both filters have one implementation, the time-major step helpers
_forward_steps, _window_sums and _backward_steps over (steps, lanes, 2)
blocks; a single record runs the recursions on Python floats
(dynamics._one_lane_blocks). forward_filter and backward_filter move the
time axis to the front, run them over the whole record and move it back;
the ensemble kernel in retrodyn.pipeline runs _backward_steps on its window
sums, and its route check runs forward_filter, backward_filter and
_window_sums on trajectory 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv
from .errors import (
    NumericsError,
    RegimeError,
    ReconstructionError,
    ShapeError,
    StatisticsError,
    ValidationError,
)
from .dynamics import (
    TimeGrid,
    _mean_coefficients,
    _one_lane_blocks,
    conditional_variance_midpoints,
    solve_conditional_variance,
)
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


def _variance_midpoints(p: PhysParams, grid: TimeGrid, v_series) -> np.ndarray:
    """Midpoint variance series for the filter gain, from v_series (node
    values) or, when None, from the Riccati solution."""
    if v_series is None:
        v_nodes = solve_conditional_variance(p, grid, derive_rates(p).v_uc)
    else:
        v_nodes = np.asarray(v_series, dtype=float)
        if v_nodes.shape != (grid.n_steps + 1,):
            raise ShapeError(
                f"v_series must have {grid.n_steps + 1} node values, got shape {v_nodes.shape}"
            )
    return conditional_variance_midpoints(p, v_nodes, grid.dt)


def _time_major_increments(photocurrent, grid: TimeGrid) -> np.ndarray:
    """Record increments i dt, shape-checked, as a C-ordered (n_steps, ..., 2) array."""
    i = np.asarray(photocurrent, dtype=float)
    if i.shape[-2:] != (grid.n_steps, 2):
        raise ShapeError(
            f"photocurrent shape {i.shape} does not match grid with {grid.n_steps} steps"
        )
    return np.ascontiguousarray(np.moveaxis(i, -2, 0)) * grid.dt


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
    idt = _time_major_increments(photocurrent, grid)
    c, amp, efac = _mean_coefficients(p, grid.dt, _variance_midpoints(p, grid, v_series))
    out = np.zeros((grid.n_steps + 1,) + idt.shape[1:])
    if r0 is not None:
        out[0] = np.asarray(r0, dtype=float)
    _forward_steps(out, idt, amp, efac, c, grid.dt)
    return np.ascontiguousarray(np.moveaxis(out, 0, -2))


def _forward_steps(r_hat, idt, amp, efac: float, c: float, dt: float) -> None:
    """Prediction filter over a time-major block of records i dt, in place.

    r_hat has one row more than idt; r_hat[0] holds the starting estimate.
    Algebraically r_hat[k+1] = (1 - Gamma_m dt/2 - 4 Gamma_meas V dt) r_hat[k]
    + amp[k] i[k] dt.
    """
    for rows, xs, amps in _one_lane_blocks(r_hat, idt, amp):
        cur = rows[0]
        for k, (a, x) in enumerate(zip(amps, xs), 1):
            cur = cur * efac + a * (x - c * cur * dt)
            rows[k] = cur


def _backward_steps(r_b, bidt, afac: float) -> None:
    """Retrodiction filter over a time-major block, in reverse time, in place.

    r_b has one row more than bidt; r_b[-1] holds the terminal estimate and
    row k receives r_b[k+1] afac + bidt[k], where bidt = sqrt(4 Gamma_meas)
    V_E i dt, or its window sums with afac^D in place of afac. Several lanes
    run row by row on views bound once, with the same two operations as
    ufuncs into one row of scratch, afac 0-d so that no call coerces it; one
    lane on Python floats.
    """
    if r_b[0].size != 2:
        rows, step, afac = list(r_b), np.empty_like(r_b[0]), np.asarray(afac)
        for nxt, row, x in zip(rows[:0:-1], rows[-2::-1], list(bidt)[::-1]):
            np.add(np.multiply(nxt, afac, step), x, row)
        return
    for rows, xs, _ in _one_lane_blocks(r_b, bidt, reverse=True):
        cur = rows[-1]
        for k in range(len(xs) - 1, -1, -1):
            cur = cur * afac + xs[k]
            rows[k] = cur


def _window_sums(out, idt, afac: float, bcoef: float, decim: int) -> None:
    """out[j] = bcoef sum_{m<decim} afac^m idt[decim j + m] by Horner's rule,
    over the whole windows of idt (len(idt) a multiple of decim), into
    out[:len(idt) // decim].

    Elementwise over a (windows, decim, lanes, 2) view of the time-major
    idt, so the bits do not depend on splitting it into whole windows.
    """
    rows = idt.reshape((-1, decim) + idt.shape[1:])
    acc = rows[:, -1]
    for m in range(decim - 2, -1, -1):
        acc = acc * afac + rows[:, m]
    np.multiply(bcoef, acc, out=out[:len(rows)])


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


def _valid_stop(p: PhysParams, grid: TimeGrid) -> int:
    """End of the nodes 0 <= k < stop of grid outside the backward burn-in."""
    return max(grid.n_steps + 1 - burn_in_steps(p, grid.dt), 0)


def backward_filter(photocurrent, p: PhysParams, grid: TimeGrid) -> np.ndarray:
    """Run the retrodiction filter backward from r_b(T) = 0.

    Reverse-time explicit Euler of d r_b/dt = lambda r_b - sqrt(4 Gamma_meas)
    V_E i(t):

        r_b[k] = (1 - lambda dt) r_b[k+1] + sqrt(4 Gamma_meas) V_E i[k] dt.

    Returns the nodes, shape (..., n_steps + 1, 2). Nodes inside the
    terminal burn-in window (the last ceil(10/(lambda dt)) steps) still
    carry the arbitrary terminal condition; burn_in_steps gives the cutoff.
    """
    idt = _time_major_increments(photocurrent, grid)
    afac, bcoef = _backward_coefficients(p, grid.dt)
    out = np.zeros((grid.n_steps + 1,) + idt.shape[1:])
    np.multiply(bcoef, idt, out=out[:-1])
    _backward_steps(out, out[:-1], afac)
    return np.ascontiguousarray(np.moveaxis(out, 0, -2))


def _backward_coefficients(p: PhysParams, dt: float) -> tuple[float, float]:
    """(1 - lambda dt, sqrt(4 Gamma_meas) V_E) of the retrodiction recursion."""
    rates = _retrodiction_rates(p)
    return 1.0 - rates.lambda_b * dt, math.sqrt(4.0 * rates.gamma_meas) * rates.v_e


def filter_record(photocurrent, p: PhysParams, grid: TimeGrid,
                  v_series=None) -> FilteredPath:
    """Forward- and backward-filter one record (or a batch) into a FilteredPath."""
    r_hat = forward_filter(photocurrent, p, grid, v_series)
    r_b = backward_filter(photocurrent, p, grid)
    return FilteredPath(grid=grid, r_hat=r_hat, r_b=r_b,
                        valid_range=(0, _valid_stop(p, grid)))


#: Each x becomes q = round((x - shift) 2^29 / s), s the largest power of
#: two up to the node's expected spread. |q| < 2^51 splits into limbs of 26
#: bits whose int64 sums over 2048 lanes stay below 2^63; 128 nodes fit in cache.
_GRID_BITS, _LANE_BLOCK, _NODE_BLOCK = 29, 2048, 128


class _ExactMoments:
    """Count and exact per-node sums (sum q, sum q^2) over lanes, where q
    rounds each value x, less shift, once to a fixed grid scaled by spread.

    Integer sums depend on neither the order nor the partition of the lanes
    (Demmel & Nguyen, ARITH 2013); mean() and variance() are each correctly
    rounded from them. shift (V for theta, 0 for d) and spread (V_uc - V, 1)
    are known before the run, so lanes all at shift give mean shift,
    variance 0. Each is one value, or one per node of the first node axis;
    the grid's scale 2^29 / s is formed with them. A value 2^22 spreads from
    shift, or not finite, raises NumericsError.
    """

    def __init__(self, shift=0.0, spread=1.0):
        self.shift, self.exp, self.count, self.sums = shift, np.frexp(spread)[1], 0, 0
        self.scale = np.ldexp(1.0, _GRID_BITS + 1 - self.exp)

    def add(self, lanes) -> None:
        """Add the lanes lanes[0], lanes[1], ... (the leading axis)."""
        lanes = np.asarray(lanes, dtype=float)
        part = self.partial(len(lanes), lanes.shape[1:])
        self.fold(part, lanes, 0)
        self.add_sums(part, len(lanes))

    @staticmethod
    def partial(lanes: int, shape) -> np.ndarray:
        """Zero int64 sums of lanes lanes on nodes of the given shape, for fold."""
        return np.zeros((-(-lanes // _LANE_BLOCK), 4, *shape), dtype=np.int64)

    def fold(self, part, x, at: int) -> None:
        """Sum the lanes x (leading axis) on nodes at, at + 1, ... of the
        first node axis into part (partial): per tile of _LANE_BLOCK lanes and
        _NODE_BLOCK nodes, the int64 sums of q = hi 2^26 + lo (0 <= lo <
        2^26), hi^2, hi lo and lo^2. Only a tile's scratch is made."""
        for n0 in range(0, x.shape[1], _NODE_BLOCK):
            nodes = slice(at + n0, at + min(n0 + _NODE_BLOCK, x.shape[1]))
            shift, scale = (a[nodes] if np.ndim(a) else a for a in (self.shift, self.scale))
            for b, l0 in enumerate(range(0, len(x), _LANE_BLOCK)):
                f = np.subtract(x[l0:l0 + _LANE_BLOCK, n0:n0 + _NODE_BLOCK], shift,
                                order="C")  # lane-major, whatever x's layout
                f = np.rint(np.multiply(f, scale, out=f), out=f)
                top = max(f.max(initial=0.0), -f.min(initial=0.0))  # NaN if any is
                if not top < 2.0 ** 51:
                    raise NumericsError(
                        f"an ensemble value lies {top / 2 ** _GRID_BITS:.6g} expected spreads "
                        "from its reference; the exact sums hold less than 2^22")
                q = f.astype(np.int64)
                hi, lo = q >> 26, q & (2 ** 26 - 1)
                part[b, :, nodes] = (q.sum(0), np.multiply(hi, hi, out=q).sum(0),
                                     np.multiply(hi, lo, out=hi).sum(0),
                                     np.multiply(lo, lo, out=lo).sum(0))
                del f, q, hi, lo  # before the next tile's scratch

    def add_sums(self, part, count: int) -> None:
        """Add the sums part of count lanes, folded (fold)."""
        for s1, hh, hl, ll in part.astype(object):
            self.sums = self.sums + np.array([s1, (hh << 52) + (hl << 27) + ll])
        self.count += count

    def merge(self, other: "_ExactMoments") -> None:
        """Add other's lanes; self takes other's shift and grid."""
        self.shift, self.exp, self.scale = other.shift, other.exp, other.scale
        self.count, self.sums = self.count + other.count, self.sums + other.sums

    def mean(self) -> np.ndarray:
        """Sample mean: the shift plus the correctly rounded mean of q, scaled."""
        mean_q = np.asarray(self.sums[0] / self.count, dtype=float)
        return self.shift + np.ldexp(mean_q, self.exp - _GRID_BITS - 1)

    def variance(self) -> np.ndarray:
        """Sample variance, correctly rounded from the integer sums."""
        (s1, s2), n = self.sums, self.count
        var_q = np.asarray((n * s2 - s1 * s1) / (n * (n - 1)), dtype=float)
        return np.ldexp(var_q, 2 * (self.exp - _GRID_BITS - 1))


def difference_variance(paths) -> EnsembleVariance:
    """Pooled sample variance of the difference trajectory over an ensemble.

    paths is a collection of FilteredPath on one common grid (batched paths
    count each lane as one sample), each with r_hat and r_b of one shape,
    (nodes, 2) or (lanes, nodes, 2), nodes = grid.n_steps + 1. The ensemble
    mean is subtracted even though it vanishes in theory. The lanes reduce
    to exact sums (_ExactMoments), whatever their order or batching; paths
    may be a generator.
    """
    moments = _ExactMoments()
    grid, lo, hi = None, 0, math.inf
    for path in paths:
        if grid is None:
            grid = path.grid
        elif path.grid != grid:
            raise ShapeError("all FilteredPaths must share one grid")
        r_hat, r_b = np.asarray(path.r_hat), np.asarray(path.r_b)
        nodes = grid.n_steps + 1
        if r_hat.shape != r_b.shape or r_hat.shape[-2:] != (nodes, 2) or r_hat.ndim > 3:
            raise ShapeError(
                f"r_hat {r_hat.shape} and r_b {r_b.shape} must both be ({nodes}, 2) "
                f"or (lanes, {nodes}, 2) on a grid of {grid.n_steps} steps")
        lo = max(lo, path.valid_range[0])
        hi = min(hi, path.valid_range[1])
        d = r_hat - r_b
        # The window is applied after the sums, which are node by node.
        moments.add(d if d.ndim == 3 else d[None])
    if moments.count < 2:
        raise StatisticsError(
            f"difference_variance needs at least 2 paths, got {moments.count}")
    return _pooled_difference_variance(moments.variance()[lo:hi], moments.count,
                                       grid, lo)


def _pooled_difference_variance(var_q, n_paths: int, grid: TimeGrid,
                                lo: int) -> EnsembleVariance:
    """EnsembleVariance from the per-quadrature sample variance var_q of d
    on the window of nodes lo <= k < lo + len(var_q) of grid."""
    if len(var_q) < 1:
        raise StatisticsError("no valid window is left after the backward burn-in")
    v_d = var_q.mean(axis=1)               # pooled over the two quadratures
    n_samples = 2 * n_paths
    stderr = v_d * math.sqrt(2.0 / (n_samples - 1))
    sub = TimeGrid(t0=grid.t0 + lo * grid.dt, dt=grid.dt, n_steps=len(var_q) - 1)
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
    write_csv(path, RECONSTRUCTION_CSV_HEADER, [ev.grid.times(), ev.v_d, ev.stderr, v_rec])
