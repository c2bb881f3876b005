#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 refbench/selftest.py

Checks that every workload emits every metric of BENCHMARK.json with its
unit, that a configuration failing a check or raising counts as a failed
operation instead of crashing the run, that exact counts and digests repeat,
that the traced pass leaves the product digests unchanged, and that the
benchmark exits non-zero without a result where there is no package source.
Takes about a minute; exit status 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

SEED = 1234
#: Small enough to run in seconds and still pass every check record; the
#: reconstruction needs t_final past the 1.9 ms backward burn-in, so it is
#: left out here.
TINY = {"n_traj": 64, "t_final": 5e-4, "chunk_size": 32,
        "pipelines": ("thermo", "fullmodel")}
#: The reference horizon at N = 600 fails reconstruction_rms_rel (0.0549 > 0.05).
FAILS_CHECK = {"n_traj": 600}
#: Reconstruction on a horizon shorter than the burn-in raises StatisticsError.
RAISES = {"n_traj": 64, "t_final": 5e-4, "chunk_size": 32}


def _units(result: dict) -> dict:
    return {k: m["unit"] for k, m in result["metrics"].items()}


def main() -> int:
    if not run.prepare():
        print("selftest: no retrodyn source under src/", file=sys.stderr)
        return 2
    import bench

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []

    def expect(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    untraced = {}
    for w in run.WORKLOADS:
        result, report = bench.measure(w, SEED, 1, TINY)
        untraced[w] = report["ops"][0]
        expect(_units(result) == e2e, f"{w}: every end-to-end metric with its unit")
        expect(result["failed"] == 0 and result["correct"], f"{w}: no failed operation")
        expect(all(isinstance(m["value"], (int, float)) and m["value"] > 0
                   for m in result["metrics"].values()), f"{w}: every metric > 0")

    traced, treport = bench.measure_traced(SEED, TINY)
    expect(_units(traced) == layers, "traced pass: every per-layer metric with its unit")
    expect(traced["failed"] == 0, "traced pass: no failed operation")
    ser = treport["ops"]["reference_serial_traced"][0]
    par = treport["ops"]["reference_parallel"][0]
    rec = treport["ops"]["record_roundtrip_traced"][0]
    expect(ser["products_sha256"] == untraced["reference_serial"]["products_sha256"],
           "traced products equal untraced products")
    expect(par["products_sha256"] == untraced["reference_parallel"]["products_sha256"]
           == ser["products_sha256"], "products equal at 1 and 2 workers")
    expect(rec["csv_sha256"] == untraced["record_roundtrip"]["csv_sha256"],
           "traced record CSV equals untraced record CSV")

    counts = ("bytes_written", "products_sha256")
    again = bench.measure("reference_serial", SEED, 1, TINY)[1]["ops"][0]
    expect(all(again[k] == untraced["reference_serial"][k] for k in counts),
           "reference counts and digests repeat")
    other = bench.measure("reference_serial", SEED + 1, 1, TINY)[1]["ops"][0]
    expect(other["products_sha256"] == untraced["reference_serial"]["products_sha256"],
           "--seed leaves the reference products unchanged")
    other = bench.measure("reference_serial", SEED, 1, TINY, reference_seed=SEED + 1)
    expect(other[1]["ops"][0]["products_sha256"]
           != untraced["reference_serial"]["products_sha256"],
           "--reference-seed changes the reference products")
    again = bench.measure("record_roundtrip", SEED, 1, TINY)[1]["ops"][0]
    expect(all(again[k] == untraced["record_roundtrip"][k]
               for k in ("csv_bytes", "csv_sha256")),
           "record counts and digests repeat")
    exact = [n for n, u in layers.items() if u in ("count", "bytes")]
    exact += ["pipeline.bundle_mb", "pipeline.chunk_full_res_mb"]  # computed from sizes
    traced2 = bench.measure_traced(SEED, TINY)[0]
    expect(all(traced2["metrics"][n]["value"] == traced["metrics"][n]["value"]
               for n in exact), "traced exact counts repeat: " + ", ".join(exact))

    for name, sizes, reason in (("failing check", FAILS_CHECK, "reconstruction_rms_rel"),
                                ("raising config", RAISES, "StatisticsError")):
        result, report = bench.measure("reference_serial", SEED, 1, sizes)
        expect(result["failed"] == result["attempted"] >= 1 and not result["correct"]
               and reason in (report["ops"][0]["error"] or ""),
               f"{name} counts as a failed operation ({reason})")

    bare = tempfile.mkdtemp(dir=run.ROOT, prefix=".refbench_bare-")
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                        os.path.join(bare, "refbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, "refbench/run.py", "--workload",
                               run.WORKLOADS[0], "--seconds", "1"], cwd=bare, env=env,
                              capture_output=True, text=True, timeout=60)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "no package source: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
