"""Matrix-level Gaussian thermodynamics: model builders, Lyapunov steady
states, per-channel entropy rates, and the adiabatic cross-validation."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import retrodyn as rd


def cavity_params(**overrides):
    base = dict(gamma_m=2.0 * math.pi * 19.0, n_th=14.0,
                gamma_qba=2.0 * math.pi * 360.0, eta_det=0.74,
                omega_m=2.0 * math.pi * 1.14e6, kappa=2.0 * math.pi * 18.5e6,
                g=2.0 * math.pi * 40.8e3, delta=0.0)
    base.update(overrides)
    return rd.PhysParams(**base)


def decoupled_params():
    return cavity_params(gamma_qba=0.0, g=0.0)


class TestSymplectic:
    def test_form_one_mode(self):
        np.testing.assert_array_equal(rd.symplectic_form(1),
                                      [[0.0, 1.0], [-1.0, 0.0]])

    def test_form_two_modes_block_structure(self):
        f = rd.symplectic_form(2)
        assert f.shape == (4, 4)
        assert not np.any(f[:2, 2:]) and not np.any(f[2:, :2])

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_form_is_scipy_block_diag_bitwise(self, n_modes):
        # No -0.0 entries, as np.kron(eye, j) would write.
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        f = rd.symplectic_form(n_modes)
        expect = scipy.linalg.block_diag(*([j] * n_modes))
        assert f.dtype == expect.dtype and f.shape == expect.shape
        assert f.tobytes() == expect.tobytes()

    def test_eigenvalues_vacuum(self):
        np.testing.assert_allclose(
            rd.symplectic_eigenvalues(0.5 * np.eye(2)), [0.5], rtol=1e-14)

    def test_eigenvalues_two_modes_sorted(self):
        nu = rd.symplectic_eigenvalues(np.diag([2.0, 2.0, 0.7, 0.7]))
        np.testing.assert_allclose(nu, [0.7, 2.0], rtol=1e-12)

    def test_eigenvalues_squeezed(self):
        # diag(a, b) has symplectic eigenvalue sqrt(ab)
        nu = rd.symplectic_eigenvalues(np.diag([2.0, 0.125]))
        np.testing.assert_allclose(nu, [0.5], rtol=1e-12)


class TestValidation:
    def test_channel_requires_symmetric_psd_diffusion(self):
        with pytest.raises(rd.ModelError, match="symmetric"):
            rd.Channel(a_irr=np.zeros((2, 2)),
                       d=np.array([[1.0, 0.5], [0.0, 1.0]]), label="bad")
        with pytest.raises(rd.ModelError, match="semidefinite"):
            rd.Channel(a_irr=np.zeros((2, 2)), d=np.diag([1.0, -1.0]),
                       label="bad")

    def test_channel_shape_checks(self):
        with pytest.raises(rd.ShapeError, match="square"):
            rd.Channel(a_irr=np.zeros((2, 3)), d=np.eye(2), label="bad")
        with pytest.raises(rd.ShapeError, match="2n"):
            rd.Channel(a_irr=np.zeros((3, 3)), d=np.eye(3), label="bad")

    def test_model_needs_channels_and_matching_dims(self):
        ch4 = rd.Channel(a_irr=np.zeros((4, 4)), d=np.eye(4), label="c")
        with pytest.raises(rd.ModelError, match="channel"):
            rd.GaussianModel(a_ham=np.zeros((2, 2)), channels=())
        with pytest.raises(rd.ShapeError):
            rd.GaussianModel(a_ham=np.zeros((2, 2)), channels=(ch4,))

    def test_cov_matrix_rejects_asymmetric(self):
        with pytest.raises(rd.ShapeError, match="symmetric"):
            rd.CovMatrix(v=np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_cov_matrix_rejects_below_vacuum(self):
        with pytest.raises(rd.DomainError, match="symplectic"):
            rd.CovMatrix(v=0.3 * np.eye(2))
        with pytest.raises(rd.DomainError):
            rd.CovMatrix(v=np.diag([2.0, 0.124]))
        rd.CovMatrix(v=np.diag([2.0, 0.125]))  # exactly at the bound

    def test_arrays_frozen(self):
        m = rd.build_adiabatic_model(cavity_params())
        with pytest.raises(ValueError):
            m.a_ham[0, 0] = 1.0
        with pytest.raises(ValueError):
            m.channels[0].d[0, 0] = 1.0


class TestOptomechModel:
    def test_hamiltonian_drift_entries(self):
        p = cavity_params(delta=1234.5)
        m = rd.build_optomech_model(p)
        a = m.a_ham
        assert a[0, 1] == p.omega_m and a[1, 0] == -p.omega_m
        assert a[1, 2] == -2.0 * p.g and a[3, 0] == -2.0 * p.g
        assert a[2, 3] == -p.delta and a[3, 2] == p.delta
        assert a[0, 0] == a[2, 2] == 0.0

    def test_channel_matrices(self):
        p = cavity_params()
        m = rd.build_optomech_model(p)
        thermal, optical = m.channels
        assert thermal.label == "thermal" and optical.label == "optical"
        nbar = p.n_th + 0.5
        np.testing.assert_array_equal(
            thermal.d, np.diag([p.gamma_m * nbar, p.gamma_m * nbar, 0.0, 0.0]))
        np.testing.assert_array_equal(
            thermal.a_irr,
            np.diag([-0.5 * p.gamma_m, -0.5 * p.gamma_m, 0.0, 0.0]))
        np.testing.assert_array_equal(
            optical.d, np.diag([0.0, 0.0, 0.5 * p.kappa, 0.5 * p.kappa]))

    def test_decoupled_blocks_at_zero_coupling(self):
        m = rd.build_optomech_model(decoupled_params())
        assert not np.any(m.a_ham[:2, 2:]) and not np.any(m.a_ham[2:, :2])

    def test_missing_cavity_parameters(self, params):
        bare = rd.PhysParams(gamma_m=params.gamma_m, n_th=params.n_th,
                             gamma_qba=params.gamma_qba, eta_det=params.eta_det)
        with pytest.raises(rd.ConfigError, match="omega_m"):
            rd.build_optomech_model(bare)

    def test_total_drift_and_diffusion(self):
        p = cavity_params()
        m = rd.build_optomech_model(p)
        a = m.drift_total()
        assert a[0, 0] == -0.5 * p.gamma_m
        assert a[2, 2] == -0.5 * p.kappa
        d = m.diffusion_total()
        assert d[0, 0] == p.gamma_m * (p.n_th + 0.5)
        assert d[3, 3] == 0.5 * p.kappa


class TestAdiabaticModel:
    def test_three_channels_and_free_drift(self, params):
        m = rd.build_adiabatic_model(params)
        assert [c.label for c in m.channels] == ["thermal", "meas_x", "meas_y"]
        assert not np.any(m.a_ham)

    def test_backaction_channels_heat_one_quadrature_each(self, params):
        m = rd.build_adiabatic_model(params)
        _, mx, my = m.channels
        q = params.gamma_qba
        np.testing.assert_array_equal(mx.d, np.diag([0.0, q]))
        np.testing.assert_array_equal(my.d, np.diag([q, 0.0]))
        # drifts sum to a traceless antisymmetric matrix: heating, no damping
        s = mx.a_irr + my.a_irr
        np.testing.assert_array_equal(s, np.array([[0.0, q], [-q, 0.0]]))


class TestLyapunov:
    def test_decoupled_steady_state_is_thermal(self):
        p = decoupled_params()
        v = rd.lyapunov_steady_state(rd.build_optomech_model(p)).v
        nbar = p.n_th + 0.5
        np.testing.assert_allclose(v, np.diag([nbar, nbar, 0.5, 0.5]),
                                   rtol=0, atol=1e-12 * nbar)

    def test_mechanical_marginal_near_v_uc(self, rates):
        v = rd.lyapunov_steady_state(rd.build_optomech_model(cavity_params())).v
        mech = 0.5 * (v[0, 0] + v[1, 1])
        assert abs(mech / rates.v_uc - 1.0) < 0.02

    def test_adiabatic_ness_is_v_uc_identity(self, params, rates):
        v = rd.lyapunov_steady_state(rd.build_adiabatic_model(params)).v
        np.testing.assert_allclose(v, rates.v_uc * np.eye(2),
                                   rtol=0, atol=1e-9 * rates.v_uc)

    def test_non_hurwitz_rejected(self):
        ch = rd.Channel(a_irr=0.1 * np.eye(2), d=np.eye(2), label="anti")
        m = rd.GaussianModel(a_ham=np.zeros((2, 2)), channels=(ch,))
        with pytest.raises(rd.StabilityError, match="Hurwitz"):
            rd.lyapunov_steady_state(m)

    def test_detuned_cavity_stability_depends_on_sign(self):
        # red-detuned side damps and keeps a physical steady state;
        # blue-detuned side anti-damps the mechanics past instability
        kappa = 2.0 * math.pi * 18.5e6
        red = rd.build_optomech_model(cavity_params(delta=-0.5 * kappa))
        v = rd.lyapunov_steady_state(red).v
        assert rd.symplectic_eigenvalues(v).min() >= 0.5 - 1e-9
        blue = rd.build_optomech_model(cavity_params(delta=0.5 * kappa))
        with pytest.raises(rd.StabilityError, match="Hurwitz"):
            rd.lyapunov_steady_state(blue)

    @given(st.floats(min_value=1.0, max_value=8.0))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity_in_diffusion(self, s):
        base = rd.build_adiabatic_model(cavity_params())
        scaled = rd.GaussianModel(
            a_ham=base.a_ham,
            channels=tuple(rd.Channel(a_irr=c.a_irr, d=s * c.d, label=c.label)
                           for c in base.channels))
        v1 = rd.lyapunov_steady_state(base).v
        v2 = rd.lyapunov_steady_state(scaled).v
        np.testing.assert_allclose(v2, s * v1, rtol=1e-9, atol=1e-12)


def _one_bath_model(a, d):
    return rd.GaussianModel(
        a_ham=a, channels=(rd.Channel(a_irr=np.zeros_like(a), d=d, label="bath"),))


def _scipy_steady_state(a, d):
    v = scipy.linalg.solve_continuous_lyapunov(a, -d)
    return 0.5 * (v + v.T)


class TestLyapunovSolve:
    """The numpy Kronecker solve against scipy's Bartels-Stewart solver."""

    @staticmethod
    def _random_model(n, seed):
        """Drift with symmetric part <= -0.1 I (so every Re eigenvalue <= -0.1
        and ||L^-1|| <= 5 for L(V) = A V + V A^T) and a PSD diffusion of rank
        1 to n, scaled so that the steady state is a physical covariance."""
        rng = np.random.default_rng(seed)
        m, k = rng.uniform(-1.0, 1.0, (2, n, n))
        a = -(m @ m.T) - 0.1 * np.eye(n) + (k - k.T)
        b = rng.uniform(-1.0, 1.0, (n, rng.integers(1, n + 1)))
        d = b @ b.T
        nu = rd.symplectic_eigenvalues(_scipy_steady_state(a, d)).min()
        assume(nu > 1e-6)  # V is singular when (A, B) is not controllable
        return a, d * max(1.0, 0.6 / nu)

    @given(st.sampled_from([2, 4]), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_hurwitz_drift_agrees_with_scipy(self, n, seed):
        a, d = self._random_model(n, seed)
        assert np.linalg.eigvals(a).real.max() <= -0.1
        v = rd.lyapunov_steady_state(_one_bath_model(a, d)).v
        ref = _scipy_steady_state(a, d)
        assert np.linalg.norm(v - ref) <= 1e-9 * np.linalg.norm(ref)
        resid = np.linalg.norm(a @ v + v @ a.T + d)
        assert resid < rd.fullmodel.LYAPUNOV_RESIDUAL_TOL * np.linalg.norm(d)

    @given(st.sampled_from([2, 4]), st.integers(0, 2**32 - 1),
           st.floats(min_value=1e-3, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_non_hurwitz_drift_raises(self, n, seed, re_max):
        a, d = self._random_model(n, seed)
        # Shift the spectrum so that its largest real part is re_max > 0
        # (a real part of exactly 0 does not survive the round-off of the
        # shift).
        a = a + (re_max - np.linalg.eigvals(a).real.max()) * np.eye(n)
        with pytest.raises(rd.StabilityError, match="Hurwitz"):
            rd.lyapunov_steady_state(_one_bath_model(a, d))

    @pytest.mark.parametrize("build", [rd.build_optomech_model, rd.build_adiabatic_model])
    def test_default_models_agree_with_scipy(self, params, build):
        m = build(params)
        ref = _scipy_steady_state(m.drift_total(), m.diffusion_total())
        v = rd.lyapunov_steady_state(m).v
        assert np.linalg.norm(v - ref) <= 1e-12 * np.linalg.norm(ref)


class TestChannelRates:
    def test_backaction_channel_values_at_v_uc(self, params, rates):
        # frozen closed forms: phi = -2 V_uc Gamma_qba per quadrature channel,
        # pi = Gamma_qba (2 V_uc + 1/(2 V_uc))
        m = rd.build_adiabatic_model(params)
        cov = rd.CovMatrix(v=rates.v_uc * np.eye(2))
        thermal, mx, my = rd.channel_entropy_rates(m, cov)
        q = params.gamma_qba
        assert mx.phi == pytest.approx(-2.0 * rates.v_uc * q, rel=1e-12)
        assert mx.pi == pytest.approx(q * (2.0 * rates.v_uc
                                           + 0.5 / rates.v_uc), rel=1e-12)
        assert my.phi == pytest.approx(mx.phi, rel=1e-14)
        assert my.pi == pytest.approx(mx.pi, rel=1e-14)
        nbar = params.n_th + 0.5
        assert thermal.phi == pytest.approx(
            params.gamma_m * (1.0 - rates.v_uc / nbar), rel=1e-12)

    def test_thermal_channel_equilibrium(self, params):
        nbar = params.n_th + 0.5
        m = rd.build_adiabatic_model(params)
        thermal = rd.channel_entropy_rates(m, rd.CovMatrix(v=nbar * np.eye(2)))[0]
        assert thermal.phi == pytest.approx(0.0, abs=1e-10 * params.gamma_m)
        assert thermal.pi == pytest.approx(0.0, abs=1e-10 * params.gamma_m)

    def test_zero_coupling_rates_all_vanish(self):
        p = decoupled_params()
        nbar = p.n_th + 0.5
        m = rd.build_adiabatic_model(p)
        for ch in rd.channel_entropy_rates(m, rd.CovMatrix(v=nbar * np.eye(2))):
            assert ch.phi == pytest.approx(0.0, abs=1e-10 * p.gamma_m)
            assert ch.pi == pytest.approx(0.0, abs=1e-10 * p.gamma_m)

    def test_mean_enters_quadratically(self, params, rates):
        m = rd.build_adiabatic_model(params)
        cov = rd.CovMatrix(v=rates.v_uc * np.eye(2))
        x = 3.0
        at0 = rd.channel_entropy_rates(m, cov)
        atx = rd.channel_entropy_rates(m, cov, r=np.array([x, 0.0]))
        # meas_x weight is diag(Gamma_qba, 0): displacing X adds 2 q x^2
        extra = 2.0 * params.gamma_qba * x * x
        assert atx[1].phi - at0[1].phi == pytest.approx(-extra, rel=1e-12)
        assert atx[1].pi - at0[1].pi == pytest.approx(extra, rel=1e-12)
        # meas_y weight does not see an X displacement
        assert atx[2].phi == pytest.approx(at0[2].phi, rel=1e-14)

    def test_support_violation_rejected(self):
        bad = rd.Channel(a_irr=np.array([[0.0, 0.0], [1.0, 0.0]]),
                         d=np.diag([1.0, 0.0]), label="off-support")
        m = rd.GaussianModel(a_ham=np.zeros((2, 2)), channels=(bad,))
        with pytest.raises(rd.ModelError, match="support"):
            rd.channel_entropy_rates(m, rd.CovMatrix(v=np.eye(2)))

    def test_shape_mismatches(self, params):
        m = rd.build_adiabatic_model(params)
        with pytest.raises(rd.ShapeError, match="covariance"):
            rd.channel_entropy_rates(m, rd.CovMatrix(v=np.eye(4)))
        with pytest.raises(rd.ShapeError, match="mean"):
            rd.channel_entropy_rates(m, rd.CovMatrix(v=np.eye(2)),
                                     r=np.zeros(4))

    def test_sum_rule_matches_scalar_rates(self, params):
        # summed channel rates reproduce the scalar unconditional formulas
        # for any isotropic physical variance
        m = rd.build_adiabatic_model(params)
        for v in np.logspace(math.log10(0.5), math.log10(200.0), 25):
            phi_sum, pi_sum = rd.total_entropy_rates(
                m, rd.CovMatrix(v=float(v) * np.eye(2)))
            phi_ref, pi_ref = rd.unconditional_rates(params, float(v))
            assert phi_sum == pytest.approx(phi_ref, rel=1e-12)
            assert pi_sum == pytest.approx(pi_ref, rel=1e-12)

    def test_ness_antisymmetry(self, params):
        m = rd.build_adiabatic_model(params)
        ness = rd.lyapunov_steady_state(m)
        phi, pi = rd.total_entropy_rates(m, ness)
        assert abs(phi + pi) <= 1e-12 * abs(pi)


class TestConsistencyReport:
    def test_reference_parameters_all_pass(self):
        report = rd.adiabatic_consistency_check(cavity_params())
        names = [r["name"] for r in report]
        assert names == ["mech_marginal_vs_v_uc", "qba_vs_4g2_over_kappa",
                         "adiabatic_flux_sum_rule",
                         "adiabatic_production_sum_rule",
                         "ness_flux_plus_production_rel"]
        for r in report:
            assert set(r) == {"name", "value", "reference", "tolerance", "pass"}
            assert r["pass"], r

    def test_without_cavity_only_adiabatic_records(self, params):
        bare = rd.PhysParams(gamma_m=params.gamma_m, n_th=params.n_th,
                             gamma_qba=params.gamma_qba, eta_det=params.eta_det)
        report = rd.adiabatic_consistency_check(bare)
        assert [r["name"] for r in report] == [
            "adiabatic_flux_sum_rule", "adiabatic_production_sum_rule",
            "ness_flux_plus_production_rel"]
        assert all(r["pass"] for r in report)

    def _with_kappa_factor(self, factor):
        base = cavity_params()
        kappa = factor * base.omega_m
        g = math.sqrt(base.gamma_qba * kappa / 4.0)
        return cavity_params(kappa=kappa, g=g)

    def test_bad_cavity_degradation(self):
        # the mechanical-marginal deviation follows the (omega_m/kappa)^2
        # adiabaticity error; at kappa = 10 omega_m it exceeds the 2% gate
        report10 = rd.adiabatic_consistency_check(self._with_kappa_factor(10.0))
        by_name = {r["name"]: r for r in report10}
        mech = by_name["mech_marginal_vs_v_uc"]
        assert not mech["pass"]
        assert abs(mech["value"] / mech["reference"] - 1.0) > 0.02
        assert by_name["qba_vs_4g2_over_kappa"]["pass"]

    def test_deviation_scales_with_adiabaticity(self, rates):
        devs = {}
        for factor in (10.0, 30.0):
            report = rd.adiabatic_consistency_check(self._with_kappa_factor(factor))
            mech = next(r for r in report if r["name"] == "mech_marginal_vs_v_uc")
            devs[factor] = abs(mech["value"] / rates.v_uc - 1.0)
        ratio = devs[10.0] / devs[30.0]
        assert 7.0 < ratio < 11.0  # (30/10)^2 = 9 up to higher-order terms
