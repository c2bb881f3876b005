"""Entropy flux and production along monitored trajectories.

Single trajectories carry wildly fluctuating conditional rates phi_c and
pi_c; averaged over the ensemble they settle onto the unconditional NESS
values plus the information rate. This script prints a few sample-path
snapshots and then verifies the ensemble decomposition.

Run:  python3 demos/02_entropy_rates.py [out.csv]
"""

import sys

import numpy as np

import retrodyn as rd
from retrodyn.pipeline import collect_ensemble
from retrodyn.thermo import RATES_CSV_HEADER


def main(out_path="entropy_rates_demo.csv"):
    p = rd.default_params()
    rates = rd.derive_rates(p)
    phi_uc, pi_uc = rd.unconditional_rates(p, rates.v_uc)
    print(f"NESS flux        Phi_uc = {phi_uc:+.4e} nats/s")
    print(f"NESS production  Pi_uc  = {pi_uc:+.4e} nats/s")
    print(f"sum (detailed balance violation): {phi_uc + pi_uc:+.1e}")
    print()

    grid = rd.TimeGrid(t0=0.0, dt=2e-7, n_steps=10000)
    bundle = collect_ensemble(p, grid, n_traj=200, master_seed=7,
                              decimation=20, chunk_size=50)
    t = bundle.grid_out.times()

    # a single lane fluctuates at the scale of Pi_uc itself
    (series,) = bundle.series()
    lane = series.pi_c[0]
    print("single-trajectory production rate (lane 0):")
    for k in (1, 100, 250, 500):
        print(f"  t = {t[k] * 1e3:5.2f} ms   pi_c = {lane[k]:+.4e} nats/s "
              f"({lane[k] / pi_uc:+.2f} x Pi_uc)")
    print()

    er = rd.ensemble_average_rates([series], p)
    target = pi_uc + rd.information_rate(bundle.v_out, p)
    z_pi = np.abs(er.pi_c[1:] - target[1:]) / er.stderr_pi_c[1:]
    z_phi = np.abs(er.phi_c[1:] - phi_uc) / er.stderr_phi_c[1:]
    print(f"ensemble of {bundle.theta.shape[0]}: "
          f"max |z| for Pi_c = Pi_uc + I_dot(V): {float(z_pi.max()):.2f}")
    print(f"ensemble of {bundle.theta.shape[0]}: "
          f"max |z| for Phi_c = Phi_uc        : {float(z_phi.max()):.2f}")

    rd.write_rates_csv(out_path, er)
    print(f"wrote {out_path} (columns: {RATES_CSV_HEADER})")


if __name__ == "__main__":
    main(*sys.argv[1:])
