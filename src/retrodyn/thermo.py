"""Entropy flux, entropy production, and information rates.

All entropies are Wigner differential entropies in nats; rates are nats per
second. For an isotropic single-mode Gaussian state with variance V the
entropy is S = 1 + ln(2 pi) + ln V, so along the conditional trajectory
dS/dt = V'/V, which equals the information rate

    I_dot(V) = Gamma_m (V_uc / V - 1) - 4 eta_det Gamma_qba V.

The stochastic flux and production rates depend on the trajectory only
through theta = V + r.r/2:

    phi_c = Gamma_m - k theta,
    pi_c  = k theta + Gamma_m (V_uc / V - 2) - 4 eta_det Gamma_qba V,

with k = Gamma_m / nbar + 4 Gamma_qba and nbar = n_th + 1/2. Both rates here
share the computed theta term, so their sum cancels it exactly and the
balance dS/dt = phi_c + pi_c holds along every trajectory to round-off, not
merely on average. Being affine in theta, their ensemble statistics follow
from theta's alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv
from .errors import DomainError, ShapeError, StatisticsError
from .dynamics import TimeGrid
from .estimation import _ExactMoments
from .model import PhysParams, derive_rates

__all__ = [
    "EnsembleRates",
    "wigner_entropy",
    "theta_rates",
    "information_rate",
    "differential_gain",
    "phonon_noise_rate",
    "unconditional_rates",
    "ensemble_average_rates",
    "write_rates_csv",
]

RATES_CSV_HEADER = "t,phi_c,pi_c,i_dot,g_diff,stderr_phi_c,stderr_pi_c"

_LOG_2PI = math.log(2.0 * math.pi)


def _as_positive(v, what: str):
    v = np.asarray(v, dtype=float)
    if not np.all(v > 0):
        raise DomainError(f"{what} requires variance > 0")
    return v


def wigner_entropy(v):
    """Entropy 1 + ln(2 pi) + ln v of an isotropic Gaussian, in nats."""
    v = _as_positive(v, "wigner_entropy")
    out = 1.0 + _LOG_2PI + np.log(v)
    return float(out) if out.ndim == 0 else out


def _theta_slope(p: PhysParams) -> float:
    """k = Gamma_m / nbar + 4 Gamma_qba: pi_c rises and phi_c falls by k per unit theta."""
    return p.gamma_m / (p.n_th + 0.5) + 4.0 * p.gamma_qba


def theta_rates(theta, v, p: PhysParams):
    """Flux and production rates from theta = V + r.r/2 directly.

    phi_c is the rate at which entropy leaves the resonator into the thermal
    and measurement channels, pi_c the irreversible production. theta and v
    broadcast, so one call serves a state, a record or an ensemble; the
    theta term is shared between the two outputs so their sum cancels it
    exactly (the entropy balance holds to round-off along trajectories).
    """
    # u appears with opposite signs in the two rates; compute it once.
    v = _as_positive(v, "stochastic rates")
    rates = derive_rates(p)
    u = np.asarray(theta, dtype=float) * _theta_slope(p)
    phi_c = p.gamma_m - u
    pi_c = u + (p.gamma_m * (rates.v_uc / v - 2.0) - 4.0 * rates.gamma_meas * v)
    return phi_c, pi_c


def phonon_noise_rate(v, p: PhysParams):
    """Bath contribution Gamma_m (V_uc / v - 1) to the information rate."""
    v = _as_positive(v, "phonon_noise_rate")
    out = p.gamma_m * (derive_rates(p).v_uc / v - 1.0)
    return float(out) if out.ndim == 0 else out


def differential_gain(v, p: PhysParams):
    """Measurement gain -4 eta_det Gamma_qba v, in nats/s.

    Negative because acquiring information contracts the conditional state.
    """
    v = _as_positive(v, "differential_gain")
    out = -4.0 * derive_rates(p).gamma_meas * v
    return float(out) if out.ndim == 0 else out


def information_rate(v, p: PhysParams):
    """Net information rate I_dot(v), zero exactly at v = v_ss.

    Equals the Riccati right-hand side divided by v, so it is also the
    conditional entropy rate dS/dt.
    """
    v = _as_positive(v, "information_rate")
    out = phonon_noise_rate(v, p) + differential_gain(v, p)
    return float(out) if np.ndim(out) == 0 else out


def unconditional_rates(p: PhysParams, v) -> tuple:
    """Unmonitored flux and production rates at variance v.

    Full expressions, valid off the steady state:

        phi_uc = Gamma_m - v Gamma_m / nbar - 4 v Gamma_qba,
        pi_uc  = -2 Gamma_m + v Gamma_m / nbar + nbar Gamma_m / v
                 + 4 v Gamma_qba + Gamma_qba / v.

    At v = V_uc they satisfy phi_uc = -pi_uc.
    """
    v = _as_positive(v, "unconditional_rates")
    nbar = p.n_th + 0.5
    phi_uc = p.gamma_m - v * p.gamma_m / nbar - 4.0 * v * p.gamma_qba
    pi_uc = (-2.0 * p.gamma_m + v * p.gamma_m / nbar + nbar * p.gamma_m / v
             + 4.0 * v * p.gamma_qba + p.gamma_qba / v)
    if np.ndim(phi_uc) == 0:
        return float(phi_uc), float(pi_uc)
    return phi_uc, pi_uc


@dataclass(frozen=True)
class EnsembleRates:
    """Pointwise ensemble means of the stochastic rates, with standard errors.

    i_dot is reported as pi_c minus the steady unconditional production rate,
    which is the ensemble estimator of the information rate.
    """

    grid: TimeGrid
    phi_c: np.ndarray
    pi_c: np.ndarray
    i_dot: np.ndarray
    g_diff: np.ndarray
    stderr_phi_c: np.ndarray
    stderr_pi_c: np.ndarray
    n_samples: int


def ensemble_average_rates(theta, v, grid: TimeGrid, p: PhysParams) -> EnsembleRates:
    """Pointwise sample means of phi_c and pi_c over an ensemble.

    theta holds one lane of theta = V + r.r/2 per row, shape (lanes,
    grid.n_steps + 1), on the variance series v. The lanes reduce to exact
    sums (_theta_moments), whatever their order. Standard errors are k *
    sample-std(theta) / sqrt(N).
    """
    theta, v = np.asarray(theta, dtype=float), np.asarray(v, dtype=float)
    nodes = grid.n_steps + 1
    if theta.ndim != 2 or theta.shape[1] != nodes or v.shape != (nodes,):
        raise ShapeError(
            f"theta must be (lanes, {nodes}) and v ({nodes},) on a grid of "
            f"{grid.n_steps} steps, got {theta.shape} and {v.shape}")
    moments = _theta_moments(v, p)
    moments.add(theta)
    return _ensemble_rates(moments, v, grid, p)


def _theta_moments(v, p: PhysParams) -> _ExactMoments:
    """Empty exact sums for theta lanes on the variance series v: about V,
    on a grid scaled by V_uc - V, the mean of r.r/2 and so of its spread."""
    return _ExactMoments(v, derive_rates(p).v_uc - v)


def _ensemble_rates(theta: _ExactMoments, v, grid: TimeGrid,
                    p: PhysParams) -> EnsembleRates:
    """EnsembleRates from theta's lane moments: the rates of the mean theta."""
    n = theta.count
    if n < 2:
        raise StatisticsError(f"ensemble_average_rates needs at least 2 lanes, got {n}")
    pi_uc_ss = unconditional_rates(p, derive_rates(p).v_uc)[1]
    phi_c, pi_c = theta_rates(theta.mean(), v, p)
    stderr = _theta_slope(p) * np.sqrt(theta.variance()) / math.sqrt(n)
    return EnsembleRates(
        grid=grid,
        phi_c=phi_c,
        pi_c=pi_c,
        i_dot=pi_c - pi_uc_ss,
        g_diff=differential_gain(v, p),
        stderr_phi_c=stderr,
        stderr_pi_c=stderr,
        n_samples=n,
    )


def write_rates_csv(path, rates: EnsembleRates, display_phi=(), display_pi=()) -> None:
    """Write the ensemble-rate data product, then path J of display_phi/pi as
    the column pair phi_c_pathJ,pi_c_pathJ (one row per grid node)."""
    t = rates.grid.times()
    header = RATES_CSV_HEADER
    cols = [rates.phi_c, rates.pi_c, rates.i_dot, rates.g_diff,
            rates.stderr_phi_c, rates.stderr_pi_c]
    if len(display_phi) != len(display_pi):
        raise ShapeError("display_phi and display_pi must hold the same number of paths")
    for j, pair in enumerate(zip(display_phi, display_pi), start=1):
        header += f",phi_c_path{j},pi_c_path{j}"
        cols.extend(pair)
    write_csv(path, header, [t] + cols)
