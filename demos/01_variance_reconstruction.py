"""Reconstruct the conditional variance from synthetic photocurrent records.

Simulates a monitored-resonator ensemble, runs the forward and backward
filters on each record, forms the difference-trajectory variance, and
recovers V(t) without ever looking at the simulator's internal state. The
recovered curve is compared against the deterministic Riccati solution on
the same grid.

Run:  python3 demos/01_variance_reconstruction.py [out_dir]
"""

import sys

import numpy as np

import retrodyn as rd


def main(out_dir="variance_demo"):
    p = rd.default_params()
    rates = rd.derive_rates(p)
    print(f"unconditional variance  V_uc = {rates.v_uc:.4f}")
    print(f"conditional steady state V_ss = {rates.v_ss:.4f}")
    print(f"retrodicted steady state V_E  = {rates.v_e:.4f}")

    # 200 records over 4 ms: enough for a clean curve in a few seconds
    cfg = rd.ExperimentConfig(params=p, dt=2e-7, t_final=4e-3, n_traj=200,
                              master_seed=42, decimation=20, chunk_size=50,
                              n_workers=1, out_dir=out_dir,
                              pipelines=("reconstruct",))
    result = rd.run_experiment(cfg)
    ev, v_rec, v_ss_exact = result.ev, result.v_rec, result.v_ss_est
    print(f"simulated + filtered 200 records in {result.wall_time_s:.1f} s")
    print(f"valid window: {ev.grid.n_steps + 1} points "
          f"(backward burn-in trims the tail)")

    _, v_ss_paper = rd.reconstruct_conditional_variance(ev, p,
                                                        mode="paper-approx")
    print(f"v_ss estimate, exact offset handling : {v_ss_exact:.4f} "
          f"({100 * (v_ss_exact / rates.v_ss - 1):+.2f}%)")
    print(f"v_ss estimate, large-C approximation : {v_ss_paper:.4f} "
          f"({100 * (v_ss_paper / rates.v_ss - 1):+.2f}%)")

    # The run's own check: at N = 200 the rms lies above its 5% bound.
    (rms,) = [rec for rec in result.checks["invariants"]
              if rec["name"] == "reconstruction_rms_rel"]
    v_true = result.v_riccati[:ev.grid.n_steps + 1]
    z_max = float(np.max(np.abs(v_rec - v_true) / ev.stderr))
    print(f"reconstruction vs Riccati truth: rms {100 * rms['value']:.1f}%, "
          f"max |z| {z_max:.2f}")
    print(f"(check {rms['name']} {'passes' if rms['pass'] else 'fails'} its "
          f"{100 * rms['tolerance']:.0f}% bound; noise shrinks as 1/sqrt(N): "
          "the N=3600 reference run lands near 3% rms)")

    print(f"wrote {result.files['reconstruction.csv']} "
          "(columns: t, v_d, stderr, v_rec)")


if __name__ == "__main__":
    main(*sys.argv[1:])
