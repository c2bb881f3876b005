"""Golden sha256 digests of the byte-contract data products.

The determinism tests compare products within one version; these digests
pin them across versions, so a refactor that moves a single bit fails here.
Any change to a digest below needs a CHANGES.md entry saying why the bytes
moved.
"""

import hashlib

import pytest

import retrodyn as rd
from retrodyn.pipeline import default_config, run_experiment

# Default horizon and step (so the reconstruction window stays valid) at a
# small ensemble; four chunks, one worker.
GOLDEN_RUN = dict(n_traj=240, chunk_size=60, n_workers=1, n_display=3)

RUN_DIGESTS = {
    "variance.csv":
        "0899ed4fbfc82949f841db61ca3c68e59b81800e220be3cc77906274b3309a60",
    "reconstruction.csv":
        "77ae77e4d6328be6677a7ba3f7cfce6581f7f5ebd1d4276ea1124c835315bead",
    "entropy_rates.csv":
        "3bcb9fba1d77ba4e0bd1f92c3b464b6be38f68723998eff9cc5f563b3da352d0",
    "information.csv":
        "e59c66be4610b5446af5324af7ddf2a18c41e3ee233db3435d505b1251429925",
    "checks.json":
        "af12a2fdf2967c28a88ee15828ff2ec2248ed89ef1362ead2a6a4f8ab4fc074c",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_products_match_golden_digests(tmp_path):
    run_experiment(default_config(out_dir=str(tmp_path), **GOLDEN_RUN))
    assert {name: _sha256(tmp_path / name) for name in RUN_DIGESTS} == RUN_DIGESTS


# every = 7 does not divide 30 000 steps, so that export has no terminal row.
@pytest.mark.parametrize("every, digest", [
    (1, "2a51ce3cb06558ce1fd08a1ae06fef02e8a30fbc2c75f3133089fc0b2aebf8ef"),
    (7, "7325cd74bfb41226fe4449c4231c5cf82c88939044353fa97c1c0cb42b438eba"),
])
def test_trajectory_csv_matches_golden_digest(tmp_path, params, every, digest):
    grid = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=30000)
    v0 = rd.derive_rates(params).v_uc
    traj = rd.simulate_trajectory(params, grid, v0, seed=1234, stream=0)
    path = tmp_path / "trajectory.csv"
    rd.write_trajectory_csv(traj, path, every=every)
    assert _sha256(path) == digest
