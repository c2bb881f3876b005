"""The benchmark's operations and the correctness gate each one must pass.

An operation is the unit the closed loop times. A reference operation is
one ``run_experiment`` on the reference configuration; a record operation
(``record_op``) simulates one 30 000-step record, writes it as CSV, reads it
back and filters it. Each ``check_*`` function raises ``OpFailed`` when the
outputs are wrong and otherwise returns the operation's exact counts and
digests.

Package functions are called through their module attributes
(``dynamics.simulate_trajectory``, not a local import) so that the tracer in
``spans.py`` sees them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from retrodyn import dynamics, estimation
from retrodyn.model import derive_rates

#: The byte-contract products of a reference run.
PRODUCTS = ("variance.csv", "reconstruction.csv", "entropy_rates.csv",
            "information.csv", "checks.json")

#: Largest |r_hat - r| accepted between the filtered re-read record and the
#: simulated means (the run's own filter_inversion_max_abs bound).
INVERSION_TOL = 1e-9


class OpFailed(Exception):
    """An operation returned, but its outputs fail the benchmark's gate."""


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_reference(cfg) -> dict:
    """Gate one finished reference run on the files it wrote.

    Fails on a check record with ``pass: false``, on NaN anywhere in a
    product, and on a product the configured pipelines should have written
    but did not. The check values are returned too, so that every report
    shows how close the statistical checks came to their bounds.
    """
    with open(os.path.join(cfg.out_dir, "checks.json"), encoding="utf-8") as fh:
        checks = json.load(fh)
    records = [rec for group in checks.values() for rec in group]
    failing = [rec["name"] for rec in records if not rec["pass"]]
    if failing:
        raise OpFailed(f"check records failed: {', '.join(failing)}")
    if any(isinstance(v, float) and math.isnan(v)
           for rec in records for v in rec.values()):
        raise OpFailed("checks.json holds NaN")
    expected = {"checks.json"}
    if "reconstruct" in cfg.pipelines:
        expected |= {"variance.csv", "reconstruction.csv"}
    if "thermo" in cfg.pipelines:
        expected |= {"entropy_rates.csv", "information.csv"}
    digests = {}
    for name in PRODUCTS:
        path = os.path.join(cfg.out_dir, name)
        if not os.path.exists(path):
            if name in expected:
                raise OpFailed(f"{name} was not written")
            continue
        if name.endswith(".csv"):
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            if np.isnan(data).any():
                raise OpFailed(f"{name} holds NaN")
        digests[name] = _sha256(path)
    combined = hashlib.sha256("".join(
        f"{name}:{digests[name]}\n" for name in sorted(digests)).encode()).hexdigest()
    return {
        "check_values": {rec["name"]: rec["value"] for rec in records},
        "bytes_written": sum(os.path.getsize(os.path.join(cfg.out_dir, name))
                             for name in digests),
        "products_sha256": combined,
        "product_sha256": digests,
    }


def record_op(p, grid, seed: int, stream: int, path: str):
    """Simulate, write, re-read and filter one record."""
    traj = dynamics.simulate_trajectory(p, grid, derive_rates(p).v_uc,
                                        seed, stream)
    dynamics.write_trajectory_csv(traj, path, every=1)
    back = dynamics.read_trajectory_csv(path, p)
    fp = estimation.filter_record(back.photocurrent, p, back.grid)
    return traj, back, fp


def check_record(p, path: str, out) -> dict:
    """Gate one record round trip against the in-memory record."""
    traj, back, fp = out
    if back.grid != traj.grid:
        raise OpFailed(f"re-read grid {back.grid} differs from {traj.grid}")
    if not _bitwise_equal(back.photocurrent, traj.photocurrent):
        raise OpFailed("re-read photocurrent is not bitwise equal to the record")
    mem = estimation.filter_record(traj.photocurrent, p, traj.grid)
    if not (_bitwise_equal(fp.r_hat, mem.r_hat) and _bitwise_equal(fp.r_b, mem.r_b)
            and fp.valid_range == mem.valid_range):
        raise OpFailed("filtering the re-read record differs from filtering in memory")
    if np.isnan(fp.r_hat).any() or np.isnan(fp.r_b).any():
        raise OpFailed("filter output holds NaN")
    inv = float(np.max(np.abs(fp.r_hat - traj.r)))
    if not inv <= INVERSION_TOL:
        raise OpFailed(f"max|r_hat - r| = {inv:.3g} > {INVERSION_TOL:g}")
    return {
        "csv_bytes": os.path.getsize(path),
        "csv_sha256": _sha256(path),
    }
