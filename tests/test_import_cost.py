"""No run of the package loads scipy, and only a run that starts a process
pool loads the pool's modules.

The Lyapunov solve of the full-model check is numpy's, so importing the
package, the record path, the ensemble pipelines, check-fullmodel and all
leave every scipy module unloaded (scipy.linalg alone costs a process about
0.25 s and 30 MB). The process pool is imported by the one branch of
collect_ensemble that starts it, so the same steps leave concurrent.futures
and multiprocessing unloaded too (with them socket and logging: about
1.5 MB of the serial reference run's peak). A 2-worker, 2-chunk run then
loads concurrent.futures.process and writes the 1-worker bytes. The probe
runs once, in a fresh interpreter, since this test process has long since
loaded scipy and the pool through other tests.
"""

import json
import os
import subprocess
import sys

import pytest

import retrodyn

SRC = os.path.dirname(os.path.dirname(os.path.abspath(retrodyn.__file__)))
STEPS = ["import", "record", "reconstruct_thermo", "check_fullmodel", "all"]

PROBE = r"""
import json, os, sys
out = sys.argv[1]
roots = lambda *names: sorted(m for m in sys.modules if m.split(".")[0].lstrip("_") in names)
loaded = lambda: {"scipy": roots("scipy"), "pool": roots("concurrent", "multiprocessing")}
seen = {}

import retrodyn as rd
from retrodyn import cli
seen["import"] = loaded()

p = rd.default_params()
grid = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=2000)
traj = rd.simulate_trajectory(p, grid, rd.derive_rates(p).v_uc, seed=7)
path = os.path.join(out, "trajectory.csv")
rd.write_trajectory_csv(traj, path)
back = rd.read_trajectory_csv(path, p)
rd.filter_record(back.photocurrent, p, back.grid)
seen["record"] = loaded()

rd.run_experiment(rd.default_config(
    out_dir=os.path.join(out, "run"), n_traj=4, dt=2e-7, t_final=4e-3,
    decimation=20, n_workers=1, pipelines=("reconstruct", "thermo")))
seen["reconstruct_thermo"] = loaded()

code = cli.main(["check-fullmodel", "--out", os.path.join(out, "fm")])
seen["check_fullmodel"] = loaded()

# A 40-lane ensemble fails the statistical reconstruction check (exit 1),
# so the run counts as done when it has written its manifest.
cfg = os.path.join(out, "all.cfg")
with open(cfg, "w") as fh:
    fh.write("n_traj = 40\ndt = 2e-7\nt_final = 4e-3\nmaster_seed = 77\n"
             "decimation = 20\nn_workers = 1\n")
cli.main(["all", "--config", cfg, "--out", os.path.join(out, "all")])
seen["all"] = loaded()
done = os.path.exists(os.path.join(out, "all", "manifest.json"))

rates = []
for n_workers in (1, 2):
    run = os.path.join(out, f"thermo{n_workers}")
    rd.run_experiment(rd.default_config(
        out_dir=run, n_traj=4, chunk_size=2, dt=2e-7, t_final=4e-3, decimation=20,
        n_workers=n_workers, pipelines=("thermo",)))
    with open(os.path.join(run, "entropy_rates.csv"), "rb") as fh:
        rates.append(fh.read())
seen["pool_run"] = loaded()
print(json.dumps({"seen": seen, "code": code, "all_done": done,
                  "same_rates": rates[0] == rates[1]}))
"""


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path_factory.mktemp("probe"))],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_no_run_loads_scipy(probe):
    assert probe["code"] == 0 and probe["all_done"]
    assert {step: found["scipy"] for step, found in probe["seen"].items()} == {
        step: [] for step in STEPS + ["pool_run"]}


def test_only_a_pool_run_loads_the_pool(probe):
    assert {step: probe["seen"][step]["pool"] for step in STEPS} == {step: [] for step in STEPS}
    assert "concurrent.futures.process" in probe["seen"]["pool_run"]["pool"]
    assert probe["same_rates"]
