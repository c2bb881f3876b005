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
        "ff4358872d9e4a337bb9afbd5692c6ece4ec7721ef6befb1b14abe241a088741",
    "reconstruction.csv":
        "6b32aab507b47da098d0f529e0b1b89ddd8a69c40a95424e001dea479144b077",
    "entropy_rates.csv":
        "8b6d87a52ffdaf3ba27a44c7791e5dcde24faf53b29ae4fdb5c3bc02719e79bd",
    "information.csv":
        "e59c66be4610b5446af5324af7ddf2a18c41e3ee233db3435d505b1251429925",
    "checks.json":
        "70173b2f237719ba4e4cad6a33659f242b01a440ef305d04e4403782d834d86c",
}


# Thermo only at a short horizon, two chunks, the second of ten lanes.
WINDOW_RUN = dict(n_traj=460, t_final=3e-4, n_workers=1, n_display=3,
                  pipelines=("thermo",))

WINDOW_RUN_DIGESTS = {
    "entropy_rates.csv":
        "0749231cf7c3f4896160469031efb64eae48e852d5338fc197c2713dbfb24e57",
    "information.csv":
        "29773f296fde608bc91f65570332c14f7166056cb83ce9322a9a74a9d22eb05b",
    "checks.json":
        "1d13997935ae3a97196468ce3585b92f0b9a98c41c5fafc9c120d4b50ac00c37",
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
