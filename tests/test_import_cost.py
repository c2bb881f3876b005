"""No run of the package loads scipy.

The Lyapunov solve of the full-model check is numpy's, so importing the
package, the record path, the ensemble pipelines, check-fullmodel and all
leave every scipy module unloaded (scipy.linalg alone costs a process about
0.25 s and 30 MB). Each probe runs in a fresh interpreter, since this test
process has long since loaded scipy through other tests.
"""

import json
import os
import subprocess
import sys

import retrodyn

SRC = os.path.dirname(os.path.dirname(os.path.abspath(retrodyn.__file__)))

PROBE = r"""
import json, os, sys
out = sys.argv[1]
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
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
print(json.dumps({"seen": seen, "code": code, "all_done": done}))
"""


def test_no_run_loads_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 0 and result["all_done"]
    assert result["seen"] == {"import": [], "record": [], "reconstruct_thermo": [],
                              "check_fullmodel": [], "all": []}
