"""Entropy flux, production, and information rate.

Point values are frozen against independent evaluation of the closed-form
rate expressions; identity tests exploit the shared-term construction in
theta_rates (the theta term cancels exactly in the sum, so the balance holds
along every trajectory to round-off).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import retrodyn as rd

# frozen closed-form point values for the reference parameters
PI_UC_SS = 302780.6562357196         # unconditional production at V_uc
PI_C_AT_UC = 78838.40790168935       # pi_c(r=0, V=V_uc)
I_DOT_AT_UC = -223942.24833403027    # information rate at V_uc
G_DIFF_SS = -5111.180572486293       # differential gain at V_ss
S_AT_UC = 6.347850177872413
S_AT_SS = 2.5678923885255984


def _theta(traj):
    """theta = V + r.r/2 at every node of a record."""
    return traj.v + 0.5 * np.sum(traj.r * traj.r, axis=-1)


class TestWignerEntropy:
    def test_vacuum_noise_floor(self):
        # v = 1/2 gives 1 + ln(pi)
        assert rd.wigner_entropy(0.5) == pytest.approx(1.0 + math.log(math.pi),
                                                       rel=1e-15)

    def test_reference_values(self, rates):
        assert rd.wigner_entropy(rates.v_uc) == pytest.approx(S_AT_UC, rel=1e-14)
        assert rd.wigner_entropy(rates.v_ss) == pytest.approx(S_AT_SS, rel=1e-14)

    def test_array_input(self):
        out = rd.wigner_entropy(np.array([0.5, 1.0, 2.0]))
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0)

    def test_domain(self):
        for bad in (0.0, -1.0):
            with pytest.raises(rd.DomainError):
                rd.wigner_entropy(bad)

    @given(st.floats(min_value=0.5, max_value=1e3),
           st.floats(min_value=1.001, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_log_law(self, v, factor):
        # scaling the variance adds ln(factor), independent of v
        diff = rd.wigner_entropy(factor * v) - rd.wigner_entropy(v)
        assert diff == pytest.approx(math.log(factor), rel=1e-10, abs=1e-12)


class TestStochasticRates:
    def test_unconditional_point(self, params, rates):
        # at theta = v = V_uc (r = 0) the flux is minus the steady production
        phi_c, pi_c = rd.theta_rates(rates.v_uc, rates.v_uc, params)
        assert phi_c == pytest.approx(-PI_UC_SS, rel=1e-12)
        assert pi_c == pytest.approx(PI_C_AT_UC, rel=1e-12)
        # decomposition pi_c = Pi_uc + I_dot at that point
        assert pi_c == pytest.approx(PI_UC_SS + I_DOT_AT_UC, rel=1e-9)

    def test_thermal_equilibrium_is_reversible(self):
        p = rd.PhysParams(gamma_m=2.0 * math.pi * 19.0, n_th=14.0,
                          gamma_qba=0.0, eta_det=0.0)
        nbar = p.n_th + 0.5
        phi_c, pi_c = rd.theta_rates(nbar, nbar, p)
        assert phi_c == pytest.approx(0.0, abs=1e-10 * p.gamma_m)
        assert pi_c == pytest.approx(0.0, abs=1e-10 * p.gamma_m)

    def test_production_matches_ness_at_conditional_steady_state(self, params,
                                                                 rates):
        # with mean energy r.r/2 = V_uc - V_ss on top of V_ss, theta equals
        # V_uc and the stochastic production reproduces the unmonitored
        # steady rate (the V_ss Riccati root kills the remainder)
        rr = 2.0 * (rates.v_uc - rates.v_ss)
        _, pi_c = rd.theta_rates(rates.v_ss + 0.5 * rr, rates.v_ss, params)
        assert pi_c == pytest.approx(PI_UC_SS, rel=1e-9)

    def test_rates_linear_in_theta(self, params, rates):
        thetas = np.array([1.0, 5.0, 25.0])
        phi, pi = rd.theta_rates(thetas, rates.v_ss, params)
        slope_phi = np.diff(phi) / np.diff(thetas)
        slope_pi = np.diff(pi) / np.diff(thetas)
        assert slope_phi[0] == pytest.approx(slope_phi[1], rel=1e-12)
        assert slope_pi[0] == pytest.approx(-slope_phi[0], rel=1e-12)

    def test_balance_identity_along_trajectory(self, small_traj, params):
        # phi_c + pi_c equals the entropy rate dS/dt = I_dot(V) pointwise
        phi_c, pi_c = rd.theta_rates(_theta(small_traj), small_traj.v, params)
        i_dot = rd.information_rate(small_traj.v, params)
        assert np.max(np.abs((phi_c + pi_c) / i_dot - 1.0)) < 1e-9

    def test_domain(self, params):
        with pytest.raises(rd.DomainError):
            rd.theta_rates(1.0, 0.0, params)


class TestInformationRate:
    def test_zero_at_conditional_steady_state(self, params, rates):
        scale = params.gamma_m * rates.v_uc / rates.v_ss
        assert abs(rd.information_rate(rates.v_ss, params)) < 1e-12 * scale

    def test_value_at_unconditional_variance(self, params, rates):
        assert rd.information_rate(rates.v_uc, params) == pytest.approx(
            I_DOT_AT_UC, rel=1e-12)
        # bath term vanishes there, so the rate is pure differential gain
        assert rd.differential_gain(rates.v_uc, params) == pytest.approx(
            I_DOT_AT_UC, rel=1e-12)
        assert rd.differential_gain(rates.v_ss, params) == pytest.approx(
            G_DIFF_SS, rel=1e-12)

    def test_equals_variance_log_derivative(self, params, rates):
        # I_dot(v) = dV/dt / v, the Riccati right-hand side over v
        v = np.linspace(rates.v_ss / 2.0, 2.0 * rates.v_uc, 200)
        lhs = rd.information_rate(v, params)
        rhs = (params.gamma_m * (rates.v_uc - v) - 4.0 * rates.gamma_meas * v * v) / v
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_gain_bounds_rate_from_below(self, params, rates):
        # I_dot - g_diff = Gamma_m (V_uc/v - 1) >= 0 whenever v <= V_uc
        v = np.linspace(0.05, rates.v_uc, 300)
        gap = rd.information_rate(v, params) - rd.differential_gain(v, params)
        assert np.all(gap >= 0.0)

    def test_additive_split(self, params):
        v = np.linspace(0.1, 50.0, 97)
        total = rd.information_rate(v, params)
        parts = rd.phonon_noise_rate(v, params) + rd.differential_gain(v, params)
        assert np.array_equal(total, parts)


class TestUnconditionalRates:
    def test_ness_antisymmetry(self, params, rates):
        phi, pi = rd.unconditional_rates(params, rates.v_uc)
        assert pi == pytest.approx(PI_UC_SS, rel=1e-12)
        assert (phi + pi) / abs(pi) == pytest.approx(0.0, abs=1e-12)

    def test_equilibrium_rates_vanish(self):
        p = rd.PhysParams(gamma_m=5.0, n_th=3.0, gamma_qba=0.0, eta_det=0.0)
        phi, pi = rd.unconditional_rates(p, p.n_th + 0.5)
        assert phi == pytest.approx(0.0, abs=1e-12 * p.gamma_m)
        assert pi == pytest.approx(0.0, abs=1e-12 * p.gamma_m)

    def test_production_nonnegative_across_parameters(self):
        # second law at the unmonitored steady state over a parameter sweep
        for n_th in np.logspace(-2, 3, 10):
            for c in np.logspace(-2, 4, 10):
                p = rd.PhysParams(gamma_m=100.0, n_th=float(n_th),
                                  gamma_qba=float(c) * 100.0, eta_det=0.5)
                pi = rd.unconditional_rates(p, rd.derive_rates(p).v_uc)[1]
                assert pi >= -1e-12 * (1.0 + abs(pi))

    def test_production_positive_off_steady_state(self, params, rates):
        v = np.array([rates.v_ss, 1.0, 10.0, rates.v_uc, 100.0])
        _, pi = rd.unconditional_rates(params, v)
        assert np.all(pi > 0.0)

    def test_array_shapes(self, params):
        phi, pi = rd.unconditional_rates(params, np.ones(5))
        assert phi.shape == pi.shape == (5,)


class TestEntropySeries:
    def test_finite_difference_entropy_rate(self, params, rates):
        # the second-order stencil carries O(dt^2 S''') error, largest in
        # the fast initial transient (~3e-4); it collapses once V settles
        g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=5000)
        v = rd.solve_conditional_variance(params, g, rates.v_uc)
        fd = rd.entropy_rate_fd(rd.wigner_entropy(v), g.dt)
        rel = np.abs(fd / rd.information_rate(v, params) - 1.0)
        assert np.max(rel) < 5e-4
        assert np.max(rel[2500:]) < 1e-6


class TestEnsembleAverageRates:
    def _two_lanes(self, params):
        """theta of two records stacked (lanes, nodes), their variance and grid."""
        g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=300)
        v0 = rd.derive_rates(params).v_uc
        trajs = [rd.simulate_trajectory(params, g, v0, seed=91, stream=s)
                 for s in (0, 1)]
        return np.stack([_theta(t) for t in trajs]), trajs[0].v, g

    def test_means_and_stderr(self, params):
        theta, v, g = self._two_lanes(params)
        out = rd.ensemble_average_rates(theta, v, g, params)
        phi, _ = rd.theta_rates(theta, v, params)
        np.testing.assert_allclose(out.phi_c, phi.mean(axis=0), rtol=1e-14)
        # Both rates have slope -k and +k in theta, so both standard errors
        # are k times theta's (node 0 has no scatter: both read 0 there).
        k = params.gamma_m / (params.n_th + 0.5) + 4.0 * params.gamma_qba
        np.testing.assert_allclose(
            out.stderr_phi_c, k * theta.std(axis=0, ddof=1) / math.sqrt(2), rtol=1e-14)
        assert out.stderr_phi_c.tobytes() == out.stderr_pi_c.tobytes()
        assert out.n_samples == 2

    def test_information_estimator_subtracts_ness_production(self, params,
                                                             rates):
        out = rd.ensemble_average_rates(*self._two_lanes(params), params)
        pi_uc = rd.unconditional_rates(params, rates.v_uc)[1]
        assert np.array_equal(out.i_dot, out.pi_c - pi_uc)

    def test_too_few_lanes(self, params):
        theta, v, g = self._two_lanes(params)
        for lanes in (theta[:1], theta[:0]):
            with pytest.raises(rd.StatisticsError):
                rd.ensemble_average_rates(lanes, v, g, params)

    def test_grid_mismatch(self, params):
        # theta must be (lanes, grid.n_steps + 1): one node too many or too
        # few, or a single lane without its lane axis, is refused.
        theta, v, g = self._two_lanes(params)
        longer = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=301)
        for args in ((theta, v, longer), (theta[:, :-1], v[:-1], g), (theta[0], v, g)):
            with pytest.raises(rd.ShapeError, match="theta must be"):
                rd.ensemble_average_rates(*args, params)

    def test_variance_mismatch(self, params):
        # The rates are derived from the mean theta on one variance series,
        # which must cover the same nodes.
        theta, v, g = self._two_lanes(params)
        with pytest.raises(rd.ShapeError, match="theta must be"):
            rd.ensemble_average_rates(theta, v[:-1], g, params)

    def test_csv_export(self, params, tmp_path):
        theta, v, g = self._two_lanes(params)
        out = rd.ensemble_average_rates(theta, v, g, params)
        path = tmp_path / "rates.csv"
        rd.write_rates_csv(path, out)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,phi_c,pi_c,i_dot,g_diff,stderr_phi_c,stderr_pi_c"
        assert len(lines) == 1 + 301
        with pytest.raises(rd.ShapeError, match="number of paths"):
            rd.write_rates_csv(path, out, [out.phi_c], [])


class TestEnsembleThermoStatistics:
    """Statistical laws on the shared session ensemble (fixed seed)."""

    def test_mean_theta_is_conserved(self, ensemble, rates):
        # E[theta] = V_uc at every time; node 0 is a float identity
        assert abs(ensemble.theta[:, 0].mean() - rates.v_uc) < 1e-12
        n = ensemble.theta.shape[0]
        mean = ensemble.theta[:, 1:].mean(axis=0)
        se = ensemble.theta[:, 1:].std(axis=0, ddof=1) / math.sqrt(n)
        assert np.max(np.abs(mean - rates.v_uc) / se) < 3.0

    def test_mean_flux_stays_at_unconditional_value(self, ensemble_rates,
                                                    params, rates):
        phi_uc = rd.unconditional_rates(params, rates.v_uc)[0]
        dev0 = abs(ensemble_rates.phi_c[0] - phi_uc) / abs(phi_uc)
        assert dev0 < 1e-9  # node 0: two float expressions of one number
        z = np.abs(ensemble_rates.phi_c[1:] - phi_uc) / ensemble_rates.stderr_phi_c[1:]
        assert np.max(z) < 3.0

    def test_mean_production_decomposition(self, ensemble, ensemble_rates,
                                           params, rates):
        # E[pi_c(t)] = Pi_uc + I_dot(V(t)) within 3 se at >= 99% of nodes
        pi_uc = rd.unconditional_rates(params, rates.v_uc)[1]
        target = pi_uc + rd.information_rate(ensemble.v_out, params)
        dev0 = abs(ensemble_rates.pi_c[0] - target[0]) / abs(target[0])
        assert dev0 < 1e-9
        z = np.abs(ensemble_rates.pi_c[1:] - target[1:]) / ensemble_rates.stderr_pi_c[1:]
        assert (z <= 3.0).mean() >= 0.99

    def test_mean_production_nonnegative(self, ensemble_rates):
        assert np.all(ensemble_rates.pi_c > 0.0)

    def test_information_estimator_tracks_analytic_rate(self, ensemble,
                                                        ensemble_rates, params):
        analytic = rd.information_rate(ensemble.v_out, params)
        z = np.abs(ensemble_rates.i_dot[1:] - analytic[1:]) / ensemble_rates.stderr_pi_c[1:]
        assert (z <= 3.0).mean() >= 0.99
