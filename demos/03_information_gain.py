"""Information rate anatomy: bath noise in, measurement gain out.

The net information rate I_dot(V) splits into the phonon-noise term
Gamma_m (V_uc/V - 1), which pumps entropy in from the bath, and the
differential gain -4 eta Gamma_qba V, which the measurement extracts.
At V = V_ss they cancel; at V = V_uc the gain alone survives. No
randomness here: everything follows the deterministic Riccati flow.

Run:  python3 demos/03_information_gain.py [out.csv]
"""

import sys

import numpy as np

import retrodyn as rd


def main(out_path="information_demo.csv"):
    p = rd.default_params()
    rates = rd.derive_rates(p)

    print("endpoints:")
    print(f"  I_dot(V_uc) = {rd.information_rate(rates.v_uc, p):+.6e} nats/s"
          f"   (= -4 eta Gamma_qba V_uc)")
    print(f"  I_dot(V_ss) = {rd.information_rate(rates.v_ss, p):+.1e} nats/s"
          f"   (steady state: gain balances bath noise)")
    print(f"  G(V_ss)     = {rd.differential_gain(rates.v_ss, p):+.6e} nats/s"
          f"   (late-time differential gain)")
    print()

    grid = rd.TimeGrid(t0=0.0, dt=1e-7, n_steps=12000)
    v = rd.solve_conditional_variance(p, grid, rates.v_uc)
    t = grid.times()
    i_dot = rd.information_rate(v, p)
    gain = rd.differential_gain(v, p)
    bath = rd.phonon_noise_rate(v, p)

    half = rates.v_ss + 0.5 * (rates.v_uc - rates.v_ss)
    k_half = int(np.argmin(np.abs(v - half)))
    print(f"variance halves by t = {t[k_half] * 1e6:.2f} us; "
          f"I_dot there is {i_dot[k_half]:+.3e} nats/s")

    # dS/dt = I_dot: the rate integrates to the Wigner entropy that
    # conditioning on the record removes
    ds = rd.wigner_entropy(v[-1]) - rd.wigner_entropy(v[0])
    integral = float(np.sum(0.5 * (i_dot[1:] + i_dot[:-1]))) * grid.dt
    print(f"entropy change S(V(T)) - S(V_uc) = {ds:+.5f} nats; "
          f"trapezoid integral of I_dot = {integral:+.5f} nats")

    # the split is exact by construction, not just to tolerance
    assert np.array_equal(i_dot, gain + bath)

    header = "t,v,i_dot,g_diff,bath_term"
    data = np.column_stack([t, v, i_dot, gain, bath])
    np.savetxt(out_path, data, delimiter=",", header=header, comments="",
               fmt="%.17g")
    print(f"wrote {out_path} (columns: {header})")


if __name__ == "__main__":
    main(*sys.argv[1:])
