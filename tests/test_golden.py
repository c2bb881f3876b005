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
        "43e0c8822b7c860f8b2ab923a9374ba5387fa0c63467ba04eeec213debd2904b",
    "reconstruction.csv":
        "579615fd95c61b1f282e6474ea08a5b692e21ebde274222bdac8c87be8ba73c1",
    "entropy_rates.csv":
        "3becf4ee2cd8bab8a1440902d07f945d5b22ac91d9331b43bb10e21d5ce574af",
    "information.csv":
        "e59c66be4610b5446af5324af7ddf2a18c41e3ee233db3435d505b1251429925",
    "checks.json":
        "630e2ce4a0bf3faa964c7830615c64c31e5883188d6af8296f5628658f6ed3a7",
}


# Thermo only at a short horizon, two chunks, the second of ten lanes.
WINDOW_RUN = dict(n_traj=460, t_final=3e-4, n_workers=1, n_display=3,
                  pipelines=("thermo",))

WINDOW_RUN_DIGESTS = {
    "entropy_rates.csv":
        "62748c626ee8b8a38dc8741c0ea63d1168e7d87c261a08fd71309be2334442a0",
    "information.csv":
        "29773f296fde608bc91f65570332c14f7166056cb83ce9322a9a74a9d22eb05b",
    "checks.json":
        "c6e7db8e61d5afa96519eae56205cc24dd6fb6fdf6324aaed6cfa99b8870c5ff",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_products_match_golden_digests(tmp_path):
    run_experiment(default_config(out_dir=str(tmp_path), **GOLDEN_RUN))
    assert {name: _sha256(tmp_path / name) for name in RUN_DIGESTS} == RUN_DIGESTS


def test_window_drawn_run_matches_golden_digests(tmp_path):
    run_experiment(default_config(out_dir=str(tmp_path), **WINDOW_RUN))
    assert ({name: _sha256(tmp_path / name) for name in WINDOW_RUN_DIGESTS}
            == WINDOW_RUN_DIGESTS)


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
