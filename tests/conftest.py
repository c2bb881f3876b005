"""Shared fixtures: reference parameters, the reference ensemble's moments
and a smaller set of lanes filtered at full resolution.

The reference ensemble (N = 3600 trajectories, dt = 1e-7 s, 3 ms horizon,
decimation 10, seed 1234: the ensemble of the reference run) is expensive,
so it is built once per session, on one worker, and shared by the
estimation, thermo, dynamics and acceptance tests. It keeps no lanes but
the first few theta lanes: the tests read its per-node moments of
d = r_hat - r_b and of theta = V + |r|^2 / 2, through the helpers
run_experiment reads them with. Laws of r_hat and r_b that the moments do
not carry run on FILTERED_LANES lanes of simulate_batch and filter_record.
All statistical assertions are deterministic because the seeds are fixed.
"""

import types

import numpy as np
import pytest

import retrodyn as rd
from retrodyn import estimation, thermo

MASTER_SEED = 1234
N_TRAJ = 3600

#: The r_hat and r_b laws run on FILTERED_LANES lanes of simulate_batch
#: through filter_record over the reference horizon at twice the step,
#: FILTERED_BATCH lanes at a time; every FILTERED_EVERY-th node is kept, so
#: the nodes are 1 us apart as in the reference run.
FILTERED_LANES = 400
FILTERED_BATCH = 50
FILTERED_GRID = rd.TimeGrid(t0=0.0, dt=2e-7, n_steps=15000)
FILTERED_EVERY = 5


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
def ensemble(params) -> rd.EnsembleBundle:
    """The reference ensemble's moments, decimated to 3001 output nodes."""
    cfg = rd.ExperimentConfig(params=params, n_traj=N_TRAJ, master_seed=MASTER_SEED,
                              n_workers=1)
    assert cfg.grid().n_steps == 30000 and cfg.decimation == 10
    return rd.collect_ensemble(cfg)


@pytest.fixture(scope="session")
def ensemble_variance(ensemble) -> rd.EnsembleVariance:
    return estimation._pooled_difference_variance(
        ensemble.d_moments.variance(), ensemble.d_moments.count, ensemble.grid_out, 0)


@pytest.fixture(scope="session")
def ensemble_rates(ensemble, params) -> rd.EnsembleRates:
    return thermo._ensemble_rates(ensemble.theta_moments, ensemble.v_out,
                                  ensemble.grid_out, params)


@pytest.fixture(scope="session")
def filtered_lanes(params, rates) -> types.SimpleNamespace:
    """FILTERED_LANES lanes (seed 4321) filtered on FILTERED_GRID, kept on
    every FILTERED_EVERY-th node: r_hat and r_b, shape (lanes, nodes, 2),
    the Riccati variance v on those nodes, and stop, the end of the nodes
    0 <= k < stop outside the backward burn-in."""
    g, every = FILTERED_GRID, FILTERED_EVERY
    r_hat, r_b = [], []
    for lo in range(0, FILTERED_LANES, FILTERED_BATCH):
        traj = rd.simulate_batch(params, g, rates.v_uc, 4321, range(lo, lo + FILTERED_BATCH))
        path = rd.filter_record(traj.photocurrent, params, g, v_series=traj.v)
        r_hat.append(path.r_hat[:, ::every].copy())
        r_b.append(path.r_b[:, ::every].copy())
        del traj, path
    return types.SimpleNamespace(
        r_hat=np.concatenate(r_hat), r_b=np.concatenate(r_b),
        v=rd.solve_conditional_variance(params, g, rates.v_uc)[::every],
        stop=-(-estimation._valid_stop(params, g) // every))


@pytest.fixture()
def small_traj(params):
    """A short single trajectory for cheap structural tests."""
    g = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=2000)
    v0 = rd.derive_rates(params).v_uc
    return rd.simulate_trajectory(params, g, v0, seed=20, stream=0)
