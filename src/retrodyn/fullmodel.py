"""Matrix-level Gaussian thermodynamics for the composite optomechanical model.

Quadratures are ordered (X_mech, Y_mech, X_opt, Y_opt). A model is a
Hamiltonian drift matrix plus a list of irreversible channels, each with its
own drift contribution A_irr and diffusion matrix D. The unconditional
steady state solves the Lyapunov equation A V + V A^T + D = 0 with the summed
drift and diffusion, and per-channel entropy rates are

    phi = -Tr[A_irr] - 2 Tr[M V] - 2 r^T M r,
    pi  =  2 Tr[A_irr] + 2 Tr[M V] + 2 r^T M r + (1/2) Tr[V^{-1} D],

with M = A_irr^T D^+ A_irr and D^+ the pseudo-inverse on the support of D.
Splitting by channel matters: the totals hide which bath carries the flux.
Many physically sensible channels have singular D (a measurement channel
heats only one quadrature), so A_irr must map into the support of D for the
pseudo-inverse to be meaningful; that condition is checked and violations
raise ModelError rather than silently returning support-dependent numbers.

Two builders cover the regimes used elsewhere in the package: the full 4x4
model with an explicit cavity, and the 2x2 adiabatic model obtained when the
cavity is eliminated, whose three channels (thermal, and one backaction
channel per quadrature) reproduce the scalar rate formulas of the thermo
module exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._io import check_record
from .errors import ConfigError, DomainError, ModelError, NumericsError, ShapeError, StabilityError
from .model import PhysParams, derive_rates

__all__ = [
    "Channel",
    "GaussianModel",
    "CovMatrix",
    "ChannelRates",
    "build_optomech_model",
    "build_adiabatic_model",
    "lyapunov_steady_state",
    "channel_entropy_rates",
    "total_entropy_rates",
    "adiabatic_consistency_check",
    "symplectic_form",
    "symplectic_eigenvalues",
]

#: Lyapunov solve acceptance: ||A V + V A^T + D|| < this times ||D||.
LYAPUNOV_RESIDUAL_TOL = 1e-10

#: Support condition acceptance: ||D D+ A - A|| <= this times ||A||.
SUPPORT_TOL = 1e-12

_VACUUM_TOL = 1e-9


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, [[0, 1], [-1, 0]] per mode."""
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return scipy.linalg.block_diag(*([j] * n_modes))


def symplectic_eigenvalues(v: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, ascending.

    Computed as the moduli of the eigenvalues of Omega V (each value appears
    twice as a conjugate pair; one copy per mode is returned).
    """
    v = np.asarray(v, dtype=float)
    n_modes = v.shape[0] // 2
    mods = np.sort(np.abs(np.linalg.eigvals(symplectic_form(n_modes) @ v)))
    return mods[1::2]


def _check_square(name: str, a: np.ndarray, dim: int | None) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} must be a square matrix, got shape {a.shape}")
    if a.shape[0] % 2:
        raise ShapeError(f"{name} must be 2n x 2n, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise ShapeError(f"{name} has shape {a.shape}, expected ({dim}, {dim})")
    return a.shape[0]


@dataclass(frozen=True)
class Channel:
    """One irreversible channel: drift contribution, diffusion, and a label."""

    a_irr: np.ndarray
    d: np.ndarray
    label: str

    def __post_init__(self):
        a = np.asarray(self.a_irr, dtype=float)
        d = np.asarray(self.d, dtype=float)
        dim = _check_square(f"channel {self.label!r} a_irr", a, None)
        _check_square(f"channel {self.label!r} d", d, dim)
        scale = float(np.linalg.norm(d))
        if np.linalg.norm(d - d.T) > 1e-9 * max(scale, 1e-300):
            raise ModelError(f"channel {self.label!r}: diffusion matrix must be symmetric")
        if np.linalg.eigvalsh(d).min() < -1e-9 * max(scale, 1.0):
            raise ModelError(f"channel {self.label!r}: diffusion matrix must be positive semidefinite")
        a.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "a_irr", a)
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class GaussianModel:
    """Drift/diffusion description of a linearly driven, monitored system."""

    a_ham: np.ndarray
    channels: tuple
    c_meas: np.ndarray
    gamma_meas_mat: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a_ham, dtype=float)
        dim = _check_square("a_ham", a, None)
        channels = tuple(self.channels)
        if not channels:
            raise ModelError("a GaussianModel needs at least one channel")
        for ch in channels:
            _check_square(f"channel {ch.label!r} a_irr", ch.a_irr, dim)
        c = np.asarray(self.c_meas, dtype=float)
        g = np.asarray(self.gamma_meas_mat, dtype=float)
        _check_square("c_meas", c, dim)
        _check_square("gamma_meas_mat", g, dim)
        for arr in (a, c, g):
            arr.setflags(write=False)
        object.__setattr__(self, "a_ham", a)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "c_meas", c)
        object.__setattr__(self, "gamma_meas_mat", g)

    @property
    def dim(self) -> int:
        return self.a_ham.shape[0]

    def drift_total(self) -> np.ndarray:
        """A_H plus every channel's irreversible drift."""
        a = self.a_ham.copy()
        for ch in self.channels:
            a += ch.a_irr
        return a

    def diffusion_total(self) -> np.ndarray:
        d = np.zeros_like(self.a_ham)
        for ch in self.channels:
            d += ch.d
        return d


@dataclass(frozen=True)
class CovMatrix:
    """Physical covariance matrix (symplectic eigenvalues >= 1/2)."""

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        _check_square("covariance", v, None)
        scale = float(np.linalg.norm(v))
        if np.linalg.norm(v - v.T) > 1e-9 * max(scale, 1e-300):
            raise ShapeError("covariance matrix must be symmetric")
        nu_min = symplectic_eigenvalues(v).min()
        if nu_min < 0.5 - _VACUUM_TOL:
            raise DomainError(
                f"covariance is unphysical: smallest symplectic eigenvalue {nu_min!r} < 1/2"
            )
        v.setflags(write=False)
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class ChannelRates:
    label: str
    phi: float
    pi: float


def build_optomech_model(p: PhysParams) -> GaussianModel:
    """Full 4x4 model: mechanical mode, cavity mode, thermal and optical channels.

    Requires omega_m, kappa, g (delta defaults to zero). The Hamiltonian
    drift couples X_mech to the cavity phase quadrature with strength 2g; the
    thermal channel damps and heats the mechanical block at rates Gamma_m and
    Gamma_m (n_th + 1/2), and the optical channel relaxes the cavity at kappa
    toward vacuum. Measurement matrices describe homodyne detection of the
    output light phase quadrature with efficiency eta_det.
    """
    if not p.has_cavity:
        missing = [k for k in ("omega_m", "kappa", "g") if getattr(p, k) is None]
        raise ConfigError(
            "build_optomech_model needs the full-model parameters; missing: "
            + ", ".join(missing)
        )
    om, kap, g, dlt = p.omega_m, p.kappa, p.g, p.delta
    nbar = p.n_th + 0.5
    a_ham = np.array([
        [0.0, om, 0.0, 0.0],
        [-om, 0.0, -2.0 * g, 0.0],
        [0.0, 0.0, 0.0, -dlt],
        [-2.0 * g, 0.0, dlt, 0.0],
    ])
    thermal = Channel(
        a_irr=np.diag([-0.5 * p.gamma_m, -0.5 * p.gamma_m, 0.0, 0.0]),
        d=np.diag([p.gamma_m * nbar, p.gamma_m * nbar, 0.0, 0.0]),
        label="thermal",
    )
    optical = Channel(
        a_irr=np.diag([0.0, 0.0, -0.5 * kap, -0.5 * kap]),
        d=np.diag([0.0, 0.0, 0.5 * kap, 0.5 * kap]),
        label="optical",
    )
    c_meas = np.zeros((4, 4))
    c_meas[3, 3] = np.sqrt(2.0 * kap * p.eta_det)
    gamma_mat = np.zeros((4, 4))
    gamma_mat[3, 3] = -np.sqrt(0.5 * kap * p.eta_det)
    return GaussianModel(a_ham=a_ham, channels=(thermal, optical),
                         c_meas=c_meas, gamma_meas_mat=gamma_mat)


def build_adiabatic_model(p: PhysParams) -> GaussianModel:
    """2x2 mechanical model after cavity elimination, with three channels.

    The backaction splits into one channel per quadrature, each heating a
    single quadrature (singular diffusion) while displacing the other; their
    drift contributions sum to an antisymmetric matrix with zero trace, so
    together they heat isotropically without damping. The rotating frame
    removes the mechanical oscillation, a_ham = 0.
    """
    nbar = p.n_th + 0.5
    qba = p.gamma_qba
    thermal = Channel(
        a_irr=np.diag([-0.5 * p.gamma_m, -0.5 * p.gamma_m]),
        d=np.diag([p.gamma_m * nbar, p.gamma_m * nbar]),
        label="thermal",
    )
    meas_x = Channel(
        a_irr=np.array([[0.0, 0.0], [-qba, 0.0]]),
        d=np.diag([0.0, qba]),
        label="meas_x",
    )
    meas_y = Channel(
        a_irr=np.array([[0.0, qba], [0.0, 0.0]]),
        d=np.diag([qba, 0.0]),
        label="meas_y",
    )
    c_meas = np.sqrt(4.0 * derive_rates(p).gamma_meas) * np.eye(2)
    return GaussianModel(a_ham=np.zeros((2, 2)), channels=(thermal, meas_x, meas_y),
                         c_meas=c_meas, gamma_meas_mat=np.zeros((2, 2)))


def lyapunov_steady_state(m: GaussianModel) -> CovMatrix:
    """Steady covariance of the unmonitored model, A V + V A^T + D = 0.

    Raises StabilityError when the total drift is not Hurwitz (no steady
    state exists) and NumericsError when the solver residual exceeds
    1e-10 times ||D||.
    """
    a = m.drift_total()
    d = m.diffusion_total()
    eig_real = np.linalg.eigvals(a).real
    if eig_real.max() >= 0:
        raise StabilityError(
            f"total drift is not Hurwitz (max Re eigenvalue {eig_real.max():g}); "
            "no steady state"
        )
    v = scipy.linalg.solve_continuous_lyapunov(a, -d)
    v = 0.5 * (v + v.T)
    resid = np.linalg.norm(a @ v + v @ a.T + d)
    if resid >= LYAPUNOV_RESIDUAL_TOL * np.linalg.norm(d):
        raise NumericsError(
            f"Lyapunov residual {resid:g} exceeds {LYAPUNOV_RESIDUAL_TOL:g} * ||D||"
        )
    return CovMatrix(v=v)


def _support_projected_weight(ch: Channel) -> np.ndarray:
    d_pinv = np.linalg.pinv(ch.d, hermitian=True)
    norm_a = np.linalg.norm(ch.a_irr)
    resid = np.linalg.norm(ch.d @ d_pinv @ ch.a_irr - ch.a_irr)
    if resid > SUPPORT_TOL * max(norm_a, 1e-300):
        raise ModelError(
            f"channel {ch.label!r}: a_irr maps outside the support of its diffusion "
            "matrix, so its entropy rates are ill-defined (singular-channel issue)"
        )
    return ch.a_irr.T @ d_pinv @ ch.a_irr


def channel_entropy_rates(m: GaussianModel, v: CovMatrix, r=None):
    """Per-channel entropy flux and production at state (r, V).

    Returns a tuple of ChannelRates in channel order; totals are plain sums.
    The mean enters through the quadratic form r^T M r, negative in the flux
    and positive in the production.
    """
    vm = v.v
    if vm.shape != (m.dim, m.dim):
        raise ShapeError(f"covariance shape {vm.shape} does not match model dim {m.dim}")
    if r is None:
        r = np.zeros(m.dim)
    r = np.asarray(r, dtype=float)
    if r.shape != (m.dim,):
        raise ShapeError(f"mean vector shape {r.shape} does not match model dim {m.dim}")
    v_inv = np.linalg.inv(vm)
    out = []
    for ch in m.channels:
        mw = _support_projected_weight(ch)
        tr_a = float(np.trace(ch.a_irr))
        quad = float(2.0 * np.trace(mw @ vm) + 2.0 * r @ mw @ r)
        phi = -tr_a - quad
        pi = 2.0 * tr_a + quad + 0.5 * float(np.trace(v_inv @ ch.d))
        out.append(ChannelRates(label=ch.label, phi=phi, pi=pi))
    return tuple(out)


def total_entropy_rates(m: GaussianModel, v: CovMatrix, r=None) -> tuple[float, float]:
    """Summed (flux, production) over all channels."""
    rates = channel_entropy_rates(m, v, r)
    return sum(c.phi for c in rates), sum(c.pi for c in rates)


def adiabatic_consistency_check(p: PhysParams) -> list[dict]:
    """Cross-validate the 4x4 model against the eliminated-cavity description.

    Returns one record per check, each {name, value, reference, tolerance,
    pass}, with relative tolerances (absolute when the reference is zero).
    Checks: the mechanical marginal of the 4x4 steady state vs V_uc; summed
    adiabatic channel rates vs the scalar unconditional rates at V_uc; flux
    plus production vanishing at the adiabatic steady state; and, when cavity
    parameters are present, Gamma_qba vs 4 g^2 / kappa. Failures are carried
    in the records, not raised.
    """
    from .thermo import unconditional_rates

    rates = derive_rates(p)
    v_uc = rates.v_uc
    report = []

    if p.has_cavity:
        full = build_optomech_model(p)
        v4 = lyapunov_steady_state(full).v
        mech = 0.5 * (v4[0, 0] + v4[1, 1])
        report.append(check_record("mech_marginal_vs_v_uc", mech, v_uc, 2e-2))
        report.append(check_record("qba_vs_4g2_over_kappa",
                                   4.0 * p.g * p.g / p.kappa, p.gamma_qba, 5e-3))

    adia = build_adiabatic_model(p)
    phi_ref, pi_ref = unconditional_rates(p, v_uc)
    phi_sum, pi_sum = total_entropy_rates(adia, CovMatrix(v=v_uc * np.eye(2)))
    report.append(check_record("adiabatic_flux_sum_rule", phi_sum, phi_ref, 1e-9))
    report.append(check_record("adiabatic_production_sum_rule", pi_sum, pi_ref, 1e-9))

    v_ness = lyapunov_steady_state(adia)
    phi_ss, pi_ss = total_entropy_rates(adia, v_ness)
    denom = abs(pi_ss) if pi_ss != 0 else 1.0
    report.append(check_record("ness_flux_plus_production_rel",
                               (phi_ss + pi_ss) / denom, 0.0, 1e-12))
    return report
