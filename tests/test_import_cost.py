"""scipy.linalg is a cost of the full-model check alone.

Importing the package, the record path and the ensemble pipelines must not
load it (about 0.3 s and 30 MB per process); check-fullmodel does. Each
probe runs in a fresh interpreter, since this test process has long since
loaded scipy.linalg through other tests.
"""

import json
import os
import subprocess
import sys

import retrodyn

SRC = os.path.dirname(os.path.dirname(os.path.abspath(retrodyn.__file__)))

PROBE = """
import json, os, sys
out = sys.argv[1]
loaded = lambda: "scipy.linalg" in sys.modules
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
print(json.dumps({"seen": seen, "code": code}))
"""


def test_scipy_linalg_loads_only_for_the_fullmodel_check(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 0
    assert result["seen"] == {"import": False, "record": False,
                              "reconstruct_thermo": False, "check_fullmodel": True}
