"""Parameter validation and closed-form derived rates."""

import math

import pytest
from hypothesis import given, strategies as st

import retrodyn as rd
from retrodyn.model import TWO_PI

REF = dict(gamma_m=TWO_PI * 19.0, n_th=14.0, gamma_qba=TWO_PI * 360.0, eta_det=0.74)


def make(**overrides) -> rd.PhysParams:
    kw = dict(REF)
    kw.update(overrides)
    return rd.PhysParams(**kw)


class TestPhysParams:
    def test_reference_values_accepted(self, params):
        assert params.gamma_m == pytest.approx(119.38052083641213)
        assert params.has_cavity

    def test_eta_bounds(self):
        make(eta_det=0.0)
        make(eta_det=1.0)
        with pytest.raises(rd.ValidationError, match="eta_det"):
            make(eta_det=1.2)
        with pytest.raises(rd.ValidationError, match="eta_det"):
            make(eta_det=-0.1)

    def test_positive_rates_required(self):
        with pytest.raises(rd.ValidationError, match="gamma_m"):
            make(gamma_m=0.0)
        with pytest.raises(rd.ValidationError, match="gamma_qba"):
            make(gamma_qba=-1.0)
        with pytest.raises(rd.ValidationError, match="n_th"):
            make(n_th=-0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(rd.ValidationError):
            make(gamma_m=math.inf)
        with pytest.raises(rd.ValidationError):
            make(n_th=math.nan)

    def test_qba_cavity_consistency(self):
        # 4 g^2 / kappa must agree with gamma_qba within 5% when both given
        make(omega_m=TWO_PI * 1.14e6, kappa=TWO_PI * 18.5e6, g=TWO_PI * 40.8e3)
        with pytest.raises(rd.ValidationError, match="4 g"):
            make(omega_m=TWO_PI * 1.14e6, kappa=TWO_PI * 18.5e6, g=TWO_PI * 80e3)

    def test_gamma_qba_zero_allowed(self):
        p = make(gamma_qba=0.0)
        assert rd.derive_rates(p).gamma_meas == 0.0


class TestDerivedRates:
    def test_measurement_rate(self, rates, params):
        assert rates.gamma_meas == params.eta_det * params.gamma_qba
        assert rates.gamma_meas == pytest.approx(1673.8405658326417, rel=1e-15)

    def test_cooperativity(self, rates):
        assert rates.coop == pytest.approx(360.0 / 19.0, rel=1e-12)

    def test_unconditional_variance(self, rates):
        # n_th + 1/2 + gamma_qba / gamma_m
        assert rates.v_uc == pytest.approx(33.44736842105263, rel=1e-15)
        assert abs(rates.v_uc - 33.45) < 0.1

    def test_steady_state_variance_root(self, params, rates):
        # v_ss must solve gamma_m (v_uc - v) = 4 gamma_meas v^2
        v = rates.v_ss
        lhs = params.gamma_m * (rates.v_uc - v)
        rhs = 4.0 * rates.gamma_meas * v * v
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert v == pytest.approx(0.7633911910158194, rel=1e-15)
        assert abs(v - 0.763) < 0.01

    def test_mu_and_v_e(self, rates, params):
        assert rates.mu == pytest.approx(params.gamma_m / (8.0 * rates.gamma_meas), rel=1e-15)
        assert rates.mu == pytest.approx(0.008915165165165165, rel=1e-15)
        # retrodicted-filter variance sits one full offset above v_ss
        assert rates.v_e == pytest.approx(rates.v_ss + 2.0 * rates.mu, rel=1e-12)
        assert rates.v_e == pytest.approx(0.7812215213461497, rel=1e-15)

    def test_lambda_b(self, rates, params):
        lam = 4.0 * rates.gamma_meas * rates.v_e - 0.5 * params.gamma_m
        assert rates.lambda_b == pytest.approx(lam, rel=1e-12)
        assert rates.lambda_b == pytest.approx(5170.8708329045, rel=1e-12)

    def test_measurement_off_limit(self):
        # eta_det = 0: steady variance reverts to the unconditional one
        d = rd.derive_rates(make(eta_det=0.0))
        assert d.gamma_meas == 0.0
        assert d.v_ss == d.v_uc
        assert math.isinf(d.mu) and math.isinf(d.v_e) and math.isinf(d.lambda_b)

    def test_v_ss_below_v_uc(self, rates):
        assert 0.5 <= rates.v_ss < rates.v_uc

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_v_ss_monotone_in_mu(self, scale):
        # weaker detection (larger mu) leaves more conditional variance
        base = make()
        weaker = make(eta_det=0.74 / 2.0)
        assert rd.derive_rates(weaker).v_ss > rd.derive_rates(base).v_ss
        p = make(gamma_qba=REF["gamma_qba"] * scale)
        d = rd.derive_rates(p)
        assert 0.0 < d.v_ss <= d.v_uc


class TestValidateParams:
    def test_hz_suffix_conversion(self):
        p = rd.validate_params({"gamma_m_hz": "19.0", "n_th": "14",
                                "gamma_qba_hz": "360", "eta_det": "0.74"})
        assert p.gamma_m == pytest.approx(TWO_PI * 19.0, rel=1e-15)

    def test_duplicate_spelling_rejected(self):
        with pytest.raises(rd.ConfigError, match="exactly one"):
            rd.validate_params({"gamma_m": 1.0, "gamma_m_hz": 1.0, "n_th": 14,
                                "gamma_qba": 10.0, "eta_det": 0.5})

    def test_unknown_key_rejected(self):
        with pytest.raises(rd.ConfigError, match="unknown"):
            rd.validate_params(dict(REF, typo_key=1.0))

    @pytest.mark.parametrize("named", ["gamma_m (or gamma_m_hz)", "n_th",
                                       "gamma_qba (or gamma_qba_hz)", "eta_det"],
                             ids=lambda named: named.split()[0])
    def test_missing_key_named(self, named):
        # n_th and eta_det are dimensionless: no _hz spelling is offered.
        raw = {"gamma_m": 1.0, "n_th": 1.0, "gamma_qba": 1.0, "eta_det": 0.5}
        del raw[named.split()[0]]
        with pytest.raises(rd.ConfigError) as err:
            rd.validate_params(raw)
        assert str(err.value) == f"missing required parameter: {named}"


class TestConfigText:
    def test_parse_comments_and_blanks(self):
        text = "# heading\na = 1.0\n\nb = two   # trailing\n"
        assert rd.parse_config_text(text) == {"a": "1.0", "b": "two"}

    def test_duplicate_key(self):
        with pytest.raises(rd.ConfigError, match="duplicate"):
            rd.parse_config_text("a = 1\na = 2\n")

    def test_missing_equals(self):
        with pytest.raises(rd.ConfigError, match="key = value"):
            rd.parse_config_text("just words\n")

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("gamma_m = 119.4\n# c\nn_th = 14\n", encoding="utf-8")
        assert rd.load_config(path) == {"gamma_m": "119.4", "n_th": "14"}
