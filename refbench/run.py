#!/usr/bin/env python3
"""Reference-run benchmark for retrodyn.

    python3 refbench/run.py --workload reference_serial [--seed 1234] \
        [--seconds 45] [--trace 0|1] [--reference-seed 1234]

Workloads: reference_serial, reference_parallel, record_roundtrip (see
refbench/README.md). --seed seeds the records; the reference runs use
--reference-seed as master_seed, by default the reference configuration's
own (README, "Seeds"). The package is imported from ``src/`` of the checkout
that holds this file; nothing is installed. The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}; the
line before it is {"report": ...} with per-operation timings, exact counts,
product digests and run metadata. With --trace 0 the metrics are the
end-to-end ones of the workload; with --trace 1 the traced pass runs and
the metrics are the per-layer ones.

Exit status 0 after a measurement (failed operations are counted in the
result), 2 when the checkout holds no retrodyn source.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("reference_serial", "reference_parallel", "record_roundtrip")
DEFAULT_SEED = 1234
DEFAULT_SECONDS = 45

#: Native thread pools, each capped at one thread so that no run uses more
#: threads than its processes (at most nproc = 2).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare() -> bool:
    """Cap thread pools and put the checkout's src/ first on the import path.

    Must run before numpy is imported; child interpreters inherit both
    through the environment. Returns False when there is no package source.
    """
    if not os.path.isfile(os.path.join(SRC, "retrodyn", "__init__.py")):
        return False
    for var in THREAD_VARS:
        os.environ[var] = "1"
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    sys.path.insert(0, SRC)
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference-seed", type=int, default=None,
                    help="master_seed of the reference runs (default: the "
                         "reference configuration's, 1234)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    if not prepare():
        print(f"refbench: no retrodyn source under {SRC}", file=sys.stderr)
        return 2
    import bench
    import retrodyn
    if not os.path.abspath(retrodyn.__file__).startswith(SRC + os.sep):
        print(f"refbench: retrodyn imported from {retrodyn.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    ref = {} if args.reference_seed is None else {"reference_seed": args.reference_seed}
    if args.trace:
        result, report = bench.measure_traced(args.seed, **ref)
    else:
        result, report = bench.measure(args.workload, args.seed, args.seconds, **ref)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
