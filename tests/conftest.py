"""Shared fixtures: reference parameters and one session-scoped ensemble.

The big ensemble (N = 3600 trajectories, dt = 1e-7 s, 3 ms horizon,
decimation 10) is expensive, so it is built once per session and shared by
the estimation, thermo, and acceptance tests. All statistical assertions
against it are deterministic because the master seed is fixed.
"""

import numpy as np
import pytest

import retrodyn as rd

MASTER_SEED = 1234
N_TRAJ = 3600


@pytest.fixture(scope="session")
def params() -> rd.PhysParams:
    return rd.default_params()


@pytest.fixture(scope="session")
def rates(params) -> rd.DerivedRates:
    return rd.derive_rates(params)


@pytest.fixture(scope="session")
def grid(params) -> rd.TimeGrid:
    return rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=30000)


@pytest.fixture(scope="session")
def ensemble(params, grid, rates) -> rd.EnsembleBundle:
    """The reference ensemble, decimated to 3001 output nodes."""
    return rd.collect_ensemble(params, grid, N_TRAJ, MASTER_SEED,
                               decimation=10, chunk_size=300)


@pytest.fixture(scope="session")
def ensemble_variance(ensemble) -> rd.EnsembleVariance:
    return rd.difference_variance([rd.FilteredPath(
        ensemble.grid_out, ensemble.r_hat, ensemble.r_b, (0, ensemble.valid_stop))])


@pytest.fixture(scope="session")
def ensemble_rates(ensemble, params) -> rd.EnsembleRates:
    return rd.ensemble_average_rates(ensemble.theta, ensemble.v_out, ensemble.grid_out,
                                     params)


@pytest.fixture()
def small_traj(params):
    """A short single trajectory for cheap structural tests."""
    g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=2000)
    v0 = rd.derive_rates(params).v_uc
    return rd.simulate_trajectory(params, g, v0, seed=20, stream=0)


def pooled_mean_se(x: np.ndarray):
    """Pointwise mean and standard error over the leading (lane) axis."""
    n = x.shape[0]
    return x.mean(axis=0), x.std(axis=0, ddof=1) / np.sqrt(n)
