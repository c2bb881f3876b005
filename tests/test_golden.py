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
        "39a93d51386ba7c327f6111065933deb51ecbe8fbd52bdd74fa6929732f3aeef",
    "reconstruction.csv":
        "e974e743f5dd3ad6dbcd003c4f67f26cac8d92fbbc86bd45fc92da37b24f0250",
    "entropy_rates.csv":
        "8dd9c77eb2da09ded8526b29d711fca32490a0bdb16a5cc50b9c362eab0b9d74",
    "information.csv":
        "e59c66be4610b5446af5324af7ddf2a18c41e3ee233db3435d505b1251429925",
    "checks.json":
        "818588b0eacdafae9f82e1507062488053cb4f8a5480b4a71143e2c45a326043",
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
