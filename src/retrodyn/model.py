"""Physical parameters and derived rates.

This module fixes the unit conventions for the whole package: rates are stored
in angular units (rad/s), times in seconds, entropies in nats. Configuration
files and keyword maps may spell any rate in ordinary Hz by suffixing the key
with ``_hz``; the conversion by 2*pi happens exactly once, here.

The monitored resonator is described by four mandatory rates and efficiencies
(gamma_m, n_th, gamma_qba, eta_det) plus optional cavity-level parameters
(omega_m, kappa, g, delta) that are only needed by the full 4x4 model. All
cumulant dynamics downstream use the derived quantities collected in
:class:`DerivedRates`:

    Gamma_meas = eta_det * Gamma_qba
    V_uc  = n_th + 1/2 + Gamma_qba / Gamma_m
    mu    = Gamma_m / (8 eta_det Gamma_qba)
    V_ss  = -mu + sqrt(mu (mu + 2 V_uc))
    V_E   = V_ss + Gamma_m / (4 Gamma_meas)
    lambda = 4 Gamma_meas V_E - Gamma_m / 2
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, NumericsError, ValidationError

__all__ = [
    "PhysParams",
    "DerivedRates",
    "validate_params",
    "derive_rates",
    "parse_config_text",
    "load_config",
]

TWO_PI = 2.0 * math.pi

#: Allowed relative mismatch between gamma_qba and 4 g^2 / kappa.
QBA_CONSISTENCY_TOL = 0.05


@dataclass(frozen=True)
class PhysParams:
    """Physical rates and efficiencies of the monitored resonator.

    All rates are angular (rad/s). The cavity-level fields (omega_m, kappa,
    g, delta) may be None for the adiabatic scalar model; they are required
    only by the 4x4 builder in :mod:`retrodyn.fullmodel`.

    Attributes
    ----------
    gamma_m : float
        Effective mechanical damping rate.
    n_th : float
        Effective thermal bath occupation (dimensionless, >= 0).
    gamma_qba : float
        Quantum backaction rate (equals 4 g^2 / kappa when the cavity
        parameters are given).
    eta_det : float
        Detection efficiency in [0, 1]; eta_det = 0 selects unconditional
        dynamics.
    omega_m, kappa, g, delta : float or None
        Mechanical frequency, cavity linewidth, multi-photon coupling and
        detuning of the full model.
    """

    gamma_m: float
    n_th: float
    gamma_qba: float
    eta_det: float
    omega_m: float | None = None
    kappa: float | None = None
    g: float | None = None
    delta: float = 0.0

    def __post_init__(self):
        for name in ("gamma_m", "n_th", "gamma_qba", "eta_det", "delta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v!r}")
        if self.gamma_m <= 0:
            raise ValidationError(f"gamma_m must be > 0, got {self.gamma_m!r}")
        if self.gamma_qba < 0:
            raise ValidationError(
                f"gamma_qba must be >= 0, got {self.gamma_qba!r}"
            )
        if self.n_th < 0:
            raise ValidationError(f"n_th must be >= 0, got {self.n_th!r}")
        if not 0.0 <= self.eta_det <= 1.0:
            raise ValidationError(f"eta_det must lie in [0,1], got {self.eta_det!r}")
        for name in ("omega_m", "kappa"):
            v = getattr(self, name)
            if v is not None:
                if not math.isfinite(v):
                    raise ValidationError(f"{name} must be finite, got {v!r}")
                if v <= 0:
                    raise ValidationError(f"{name} must be > 0, got {v!r}")
        if self.g is not None:
            # g = 0 is the decoupled cavity (then gamma_qba must be 0 too)
            if not math.isfinite(self.g) or self.g < 0:
                raise ValidationError(f"g must be >= 0, got {self.g!r}")
        if self.g is not None and self.kappa is not None:
            implied = 4.0 * self.g * self.g / self.kappa
            scale = max(self.gamma_qba, implied)
            if scale > 0.0:
                rel = abs(self.gamma_qba - implied) / scale
                if rel >= QBA_CONSISTENCY_TOL:
                    raise ValidationError(
                        "gamma_qba is inconsistent with 4 g^2 / kappa: "
                        f"relative mismatch {rel:.3g} >= {QBA_CONSISTENCY_TOL}"
                    )

    @property
    def has_cavity(self) -> bool:
        """True when all full-model fields (omega_m, kappa, g) are present."""
        return None not in (self.omega_m, self.kappa, self.g)


@dataclass(frozen=True)
class DerivedRates:
    """Closed-form rates derived from :class:`PhysParams`.

    In the measurement-off limit (eta_det = 0) the quantities mu, v_e and
    lambda_b are +inf and v_ss equals v_uc; these limits are well defined
    and returned as such. NaN results are rejected.
    """

    gamma_meas: float
    coop: float
    v_uc: float
    mu: float
    v_ss: float
    v_e: float
    lambda_b: float


_REQUIRED_KEYS = ("gamma_m", "n_th", "gamma_qba", "eta_det")
_OPTIONAL_KEYS = ("omega_m", "kappa", "g", "delta")
_DIMENSIONLESS = {"n_th", "eta_det"}


def validate_params(raw: dict) -> PhysParams:
    """Build a validated :class:`PhysParams` from a key-value map.

    Rates may be given in angular units under their bare names or in ordinary
    Hz under the ``_hz`` suffixed names (converted by 2*pi exactly once).
    Supplying both spellings of one key is an error. n_th and eta_det are
    dimensionless and accept no suffix.

    Raises
    ------
    ConfigError
        If a required key is missing, a key is duplicated or unknown, or a
        value is not a number.
    ValidationError
        If a value violates its bound.
    """
    values: dict[str, float] = {}
    leftover = dict(raw)
    for key in _REQUIRED_KEYS + _OPTIONAL_KEYS:
        bare = leftover.pop(key, None)
        hz = leftover.pop(key + "_hz", None) if key not in _DIMENSIONLESS else None
        if bare is not None and hz is not None:
            raise ConfigError(f"both {key} and {key}_hz supplied; give exactly one")
        if hz is not None:
            values[key] = TWO_PI * _number(key + "_hz", hz)
        elif bare is not None:
            values[key] = _number(key, bare)
    unknown = sorted(leftover)
    if unknown:
        raise ConfigError(f"unknown parameter keys: {', '.join(unknown)}")
    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(f"missing required parameter: {key} (or {key}_hz)")
    return PhysParams(**values)


def _number(key: str, value, kind=float):
    """kind(value), or a ConfigError naming key if value is not a number."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad numeric value for {key}: {value!r}") from exc


def derive_rates(p: PhysParams) -> DerivedRates:
    """Evaluate the closed-form derived rates for parameters ``p``.

    v_ss is computed in the cancellation-free conjugate form
    2 V_uc / (1 + sqrt(1 + 2 V_uc / mu)), algebraically identical to
    -mu + sqrt(mu (mu + 2 V_uc)) but exact in the mu -> inf limit.
    """
    gamma_meas = p.eta_det * p.gamma_qba
    coop = p.gamma_qba / p.gamma_m
    v_uc = p.n_th + 0.5 + coop
    if gamma_meas == 0.0:
        mu = math.inf
        v_ss = v_uc
        v_e = math.inf
        lambda_b = math.inf
    else:
        mu = p.gamma_m / (8.0 * gamma_meas)
        v_ss = 2.0 * v_uc / (1.0 + math.sqrt(1.0 + 2.0 * v_uc / mu))
        v_e = v_ss + p.gamma_m / (4.0 * gamma_meas)
        lambda_b = 4.0 * gamma_meas * v_e - 0.5 * p.gamma_m
    out = DerivedRates(
        gamma_meas=gamma_meas, coop=coop, v_uc=v_uc,
        mu=mu, v_ss=v_ss, v_e=v_e, lambda_b=lambda_b,
    )
    for name, val in vars(out).items():
        if math.isnan(val):
            raise NumericsError(f"derived rate {name} is NaN for {p!r}")
    return out


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` configuration text into a string map.

    Blank lines are skipped; a ``#`` starts a comment anywhere on a line.
    Values are returned verbatim (callers convert types); keys must be
    unique.
    """
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, val = body.split("=", 1)
        key = key.strip()
        val = val.strip()
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = val
    return out


def load_config(path) -> dict[str, str]:
    """Read and parse a UTF-8 configuration file (see :func:`parse_config_text`)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)
