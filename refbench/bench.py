"""Closed-loop measurement of the three workloads, untraced and traced.

``measure`` times one workload with tracing off and returns the end-to-end
metrics; ``measure_traced`` runs the traced pass that gives the per-layer
metrics. Both return ``(result, report)``: ``result`` is the benchmark's
result object, ``report`` holds per-operation timings, exact counts,
product digests and the run metadata that explains noise.

Import this module only after ``run.prepare()`` has capped the native
thread pools and put the checkout's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import numpy as np
import scipy

import spans
import workloads
from retrodyn import pipeline

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Products and record CSVs of a run live here, inside the checkout, and
#: are removed when the run ends.
SCRATCH = os.path.join(ROOT, ".refbench_out")

#: Set-up probes per run, half before and half after the timed loop so
#: that they sample the whole run; setup_s is their median.
SETUP_PROBES = 6
#: Records in the traced pass; record layers are reported per record.
TRACED_RECORDS = 3
#: What a fresh process does before it can run: imports and config
#: validation. It then reports ready on stdout and exits.
PROBE = ("import numpy, scipy, retrodyn\n"
         "from retrodyn import pipeline\n"
         "pipeline.default_config()\n"
         "print('ready', flush=True)\n")

MB = 1e6


@dataclass
class Op:
    duration_s: float
    cpu_s: float  # user + system, this process and reaped children
    info: dict | None  # counts and digests from the gate, None on failure
    error: str | None


def _cpu_s() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def run_op(op, check, pause=contextlib.nullcontext) -> Op:
    """Time ``op()``, then gate its output with ``check`` outside the timing.

    Any exception from either counts the operation as failed; the loop
    keeps going.
    """
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        out = op()
    except Exception as exc:  # a raising operation is a failed operation
        traceback.print_exc(file=sys.stderr)
        return Op(time.perf_counter() - t0, _cpu_s() - cpu0, None,
                  f"{type(exc).__name__}: {exc}")
    duration, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    try:
        with pause():
            info = check(out)
    except Exception as exc:  # the gate rejected the outputs
        if not isinstance(exc, workloads.OpFailed):
            traceback.print_exc(file=sys.stderr)
        return Op(duration, cpu, None, f"{type(exc).__name__}: {exc}")
    return Op(duration, cpu, info, None)


def closed_loop(op, check, seconds: float) -> list[Op]:
    """One client: start operation j + 1 only after operation j returned.

    Stops before an operation that would end past ``seconds``, judged by
    the last one's length; always runs at least one.
    """
    ops: list[Op] = []
    start = time.perf_counter()
    for j in itertools.count():
        t0 = time.perf_counter()
        ops.append(run_op(functools.partial(op, j), check))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return ops


def workload_ops(name: str, seed: int, run_dir: str, sizes: dict,
                 reference_seed: int = pipeline.DEFAULT_MASTER_SEED):
    """(op(j), check(out), lane-steps per op) for one workload.

    ``seed`` seeds the records; record j uses stream j. The reference runs
    use ``reference_seed`` as their master_seed, by default the reference
    configuration's own, 1234 (see README, "Seeds").
    """
    cfg = pipeline.default_config(**sizes)
    if name in ("reference_serial", "reference_parallel"):
        n_workers = 2 if name == "reference_parallel" else 1

        def op(j):
            run_cfg = pipeline.default_config(
                out_dir=os.path.join(run_dir, f"{name}-{j}"), master_seed=reference_seed,
                n_workers=n_workers, **sizes)
            pipeline.run_experiment(run_cfg)
            return run_cfg

        def check(run_cfg):
            try:
                return workloads.check_reference(run_cfg)
            finally:
                shutil.rmtree(run_cfg.out_dir, ignore_errors=True)

        return op, check, cfg.n_traj * cfg.grid().n_steps
    if name == "record_roundtrip":
        p, grid = cfg.params, cfg.grid()
        path = os.path.join(run_dir, "record.csv")
        return (lambda j: workloads.record_op(p, grid, seed, j, path),
                lambda out: workloads.check_record(p, path, out), grid.n_steps)
    raise ValueError(f"unknown workload {name!r}")


@contextlib.contextmanager
def run_dir():
    os.makedirs(SCRATCH, exist_ok=True)
    path = tempfile.mkdtemp(dir=SCRATCH)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)


def setup_probes(n: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to it being ready, n times.

    The clock stops when the probe's "ready" line arrives, read by a
    blocking readline: waiting with a timeout would poll the child and
    round the time up to the polling interval.
    """
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
    return times


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def run_metadata(load_before) -> dict:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "child_peak_rss_mb": c.ru_maxrss * 1024 / MB,
        "minflt": {"self": s.ru_minflt, "children": c.ru_minflt},
        "majflt": {"self": s.ru_majflt, "children": c.ru_majflt},
        "nvcsw": {"self": s.ru_nvcsw, "children": c.ru_nvcsw},
        "nivcsw": {"self": s.ru_nivcsw, "children": c.ru_nivcsw},
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
        "thread_caps": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def _peak_rss_mb(who) -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(who).ru_maxrss * 1024 / MB


def _result(ops: list[Op], metrics: dict) -> dict:
    failed = sum(o.error is not None for o in ops)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _op_report(ops: list[Op]) -> list[dict]:
    return [{"duration_s": o.duration_s, "cpu_s": o.cpu_s, "error": o.error,
             **(o.info or {})} for o in ops]


def measure(workload: str, seed: int, seconds: float, sizes: dict | None = None,
            reference_seed: int = pipeline.DEFAULT_MASTER_SEED):
    """Untraced run of one workload: the end-to-end metrics."""
    sizes = sizes or {}
    probes = setup_probes(SETUP_PROBES // 2)
    load_before = os.getloadavg()
    with run_dir() as d:
        op, check, lane_steps = workload_ops(workload, seed, d, sizes, reference_seed)
        ops = closed_loop(op, check, seconds)
    probes += setup_probes(SETUP_PROBES - SETUP_PROBES // 2)
    wall = statistics.median(o.duration_s for o in ops)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(probes), "s"),
        "cpu_s": (statistics.median(o.cpu_s for o in ops), "s"),
        "peak_rss_mb": (_peak_rss_mb(resource.RUSAGE_SELF), "MB"),
        "lane_steps_per_s": (lane_steps / wall, "1/s"),
    }
    report = {
        "workload": workload, "seed": seed, "reference_seed": reference_seed,
        "seconds": seconds, "trace": 0,
        "sizes": sizes, "lane_steps_per_op": lane_steps, "setup_probes_s": probes,
        "ops": _op_report(ops), "meta": run_metadata(load_before),
    }
    return _result(ops, metrics), report


def _layer_table(summary: dict) -> dict:
    return {name: {"total_s": st.total_s, "self_s": st.self_s, "calls": st.calls,
                   "out_bytes": st.out_bytes} for name, st in sorted(summary.items())}


def measure_traced(seed: int, sizes: dict | None = None,
                   reference_seed: int = pipeline.DEFAULT_MASTER_SEED):
    """The traced pass: per-layer metrics, whatever the workload.

    One traced reference run at 1 worker, one untraced reference run at 2
    workers (for the pool's CPU overhead and the worker-count digest check)
    and TRACED_RECORDS traced record round trips. Reference layers are
    totals for the run; record layers are per record.
    """
    sizes = sizes or {}
    load_before = os.getloadavg()
    ref, rec = spans.Tracer(), spans.Tracer()
    with run_dir() as d:
        op_ser, check_ref, _ = workload_ops("reference_serial", seed, d, sizes,
                                            reference_seed)
        op_par, _, _ = workload_ops("reference_parallel", seed, d, sizes, reference_seed)
        with ref.installed():
            ser = run_op(functools.partial(op_ser, 0), check_ref, ref.paused)
        par = run_op(functools.partial(op_par, 1), check_ref)
        worker_rss_mb = _peak_rss_mb(resource.RUSAGE_CHILDREN)
        if ser.info and par.info and (ser.info["products_sha256"]
                                      != par.info["products_sha256"]):
            par.error = "products differ between 1 and 2 workers"
        op_rec, check_rec, _ = workload_ops("record_roundtrip", seed, d, sizes)
        records = []
        with rec.installed():
            for j in range(TRACED_RECORDS):
                rec.op = j
                records.append(run_op(functools.partial(op_rec, j), check_rec, rec.paused))
    ops = [ser, par] + records

    ref_layers, rec_layers = ref.summary(), rec.summary()
    zero = spans.LayerStats()

    def r(name):
        return ref_layers.get(name, zero)

    def per_rec(name, field):
        return getattr(rec_layers.get(name, zero), field) / len(records)

    chunk_bytes = sum(s.out_bytes for s in (ref.first("dynamics.simulate_batch"),
                                            ref.first("estimation.forward_filter"),
                                            ref.first("estimation.backward_filter"))
                      if s is not None)
    rec_ok = [o for o in records if o.info]
    metrics = {
        "dynamics.simulate_batch_self_s": (r("dynamics.simulate_batch").self_s, "s"),
        "dynamics.philox_draws_s": (r("dynamics.trajectory_rng").total_s
                                    + r(spans.PHILOX_DRAW).total_s, "s"),
        "dynamics.philox_draw_calls": (r(spans.PHILOX_DRAW).calls, "count"),
        "estimation.forward_filter_s": (r("estimation.forward_filter").total_s, "s"),
        "estimation.backward_filter_s": (r("estimation.backward_filter").total_s, "s"),
        "dynamics.solve_conditional_variance_s":
            (r("dynamics.solve_conditional_variance").total_s, "s"),
        "dynamics.solve_conditional_variance_calls":
            (r("dynamics.solve_conditional_variance").calls, "count"),
        "dynamics.verify_photocurrent_identity_s":
            (r("dynamics.verify_photocurrent_identity").total_s, "s"),
        "pipeline.collect_ensemble_self_s": (r("pipeline.collect_ensemble").self_s, "s"),
        "pipeline.bundle_mb": (r("pipeline.collect_ensemble").out_bytes / MB, "MB"),
        "pipeline.chunk_full_res_mb": (chunk_bytes / MB, "MB"),
        "pipeline.pool_overhead_cpu_s": (par.cpu_s - ser.cpu_s, "s"),
        "pipeline.parallel_wall_s": (par.duration_s, "s"),
        "pipeline.parallel_worker_rss_mb": (worker_rss_mb, "MB"),
        "estimation.difference_variance_s": (r("estimation.difference_variance").total_s, "s"),
        "thermo.theta_rates_s": (r("thermo.theta_rates").total_s, "s"),
        "thermo.ensemble_average_rates_s": (r("thermo.ensemble_average_rates").total_s, "s"),
        "pipeline.emit_figure_data_s": (r("pipeline.emit_figure_data").total_s, "s"),
        "estimation.write_reconstruction_csv_s":
            (r("estimation.write_reconstruction_csv").total_s, "s"),
        "pipeline.bytes_written": ((ser.info or {}).get("bytes_written", 0), "bytes"),
        "fullmodel.adiabatic_consistency_check_s":
            (r("fullmodel.adiabatic_consistency_check").total_s, "s"),
        "trace.reference_serial_wall_s": (ser.duration_s, "s"),
        "dynamics.simulate_trajectory_s": (per_rec("dynamics.simulate_trajectory", "total_s"), "s"),
        "dynamics.write_trajectory_csv_s": (per_rec("dynamics.write_trajectory_csv", "total_s"), "s"),
        "dynamics.read_trajectory_csv_s": (per_rec("dynamics.read_trajectory_csv", "total_s"), "s"),
        "estimation.filter_record_s": (per_rec("estimation.filter_record", "total_s"), "s"),
        "dynamics.record_riccati_s": (per_rec("dynamics.solve_conditional_variance", "total_s"), "s"),
        "dynamics.record_riccati_calls": (per_rec("dynamics.solve_conditional_variance", "calls"),
                                          "count"),
        "dynamics.csv_bytes": (rec_ok[0].info["csv_bytes"] if rec_ok else 0, "bytes"),
        "trace.record_wall_s": (statistics.median(o.duration_s for o in records), "s"),
    }
    report = {
        "workload": "traced pass", "seed": seed, "reference_seed": reference_seed,
        "trace": 1, "sizes": sizes,
        "ops": {"reference_serial_traced": _op_report([ser]),
                "reference_parallel": _op_report([par]),
                "record_roundtrip_traced": _op_report(records)},
        "layers": {"reference_serial": _layer_table(ref_layers),
                   "record_roundtrip": _layer_table(rec_layers)},
        "meta": run_metadata(load_before),
    }
    return _result(ops, metrics), report
