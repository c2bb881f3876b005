"""Command-line entry points.

Subcommands: simulate, reconstruct, thermo, check-fullmodel, all. Every run
is keyed by a master seed; outputs of the ensemble pipelines are
byte-reproducible for a fixed configuration. Exit status is 0 on success and
nonzero on failure, with the failing stage named on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._io import make_out_dir
from .dynamics import simulate_trajectory, write_trajectory_csv
from .errors import RetrodynError
from .model import derive_rates
from .pipeline import (
    ExperimentConfig,
    _check_reconstruct_window,
    _Stage,
    config_from_file,
    config_from_mapping,
    run_experiment,
)

_USAGE_HINT = "see README for configuration keys and file schemas"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retrodyn",
        description="Simulate monitored-resonator trajectories, reconstruct "
                    "conditional variances from filtered records, and compute "
                    "entropy and information rates.",
        epilog=_USAGE_HINT,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "simulate": "simulate trajectories and export them as CSV",
        "reconstruct": "run the ensemble and reconstruct the conditional variance",
        "thermo": "run the ensemble and compute entropy/information rates",
        "check-fullmodel": "run the matrix-model consistency checks",
        "all": "run every pipeline and write all data products",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH",
                        help="flat key = value configuration file")
        sp.add_argument("--seed", type=int, metavar="N",
                        help="master seed (stream j is trajectory j)")
        sp.add_argument("--trajectories", type=int, metavar="N",
                        help="ensemble size")
        sp.add_argument("--dt", type=float, metavar="S",
                        help="integration step in seconds")
        sp.add_argument("--t-final", type=float, metavar="S",
                        help="horizon in seconds")
        sp.add_argument("--out", metavar="DIR", help="output directory")
        sp.add_argument("--mode", choices=("exact", "paper-approx"),
                        help="reconstruction offset handling")
    return parser


_COMMAND_PIPELINES = {
    "simulate": (),
    "reconstruct": ("reconstruct",),
    "thermo": ("thermo",),
    "check-fullmodel": ("fullmodel",),
    "all": ("reconstruct", "thermo", "fullmodel"),
}


def _load_config(args) -> ExperimentConfig:
    overrides = dict(
        master_seed=args.seed,
        n_traj=args.trajectories,
        dt=args.dt,
        t_final=args.t_final,
        out_dir=args.out,
        mode=args.mode,
    )
    overrides["pipelines"] = _COMMAND_PIPELINES[args.command]
    if args.config:
        cfg = config_from_file(args.config, **overrides)
    else:
        cfg = config_from_mapping({}, **overrides)
    _check_reconstruct_window(cfg)
    return cfg


def _cmd_simulate(cfg: ExperimentConfig) -> int:
    grid = cfg.grid()
    v0 = derive_rates(cfg.params).v_uc
    n_files = max(min(cfg.n_display, cfg.n_traj), 1)
    with _Stage("simulate"):
        make_out_dir(cfg.out_dir)
        for j in range(n_files):
            traj = simulate_trajectory(cfg.params, grid, v0, cfg.master_seed, stream=j)
            path = os.path.join(cfg.out_dir, f"trajectory_{j:03d}.csv")
            # Every node: a decimated export cannot be filtered again.
            write_trajectory_csv(traj, path)
            print(path)
    print(f"wrote {n_files} trajectories (seed {cfg.master_seed}, "
          f"dt {grid.dt:g} s, {grid.n_steps} steps)")
    return 0


def _cmd_pipelines(cfg: ExperimentConfig) -> int:
    result = run_experiment(cfg)
    for name in sorted(result.files):
        print(result.files[name])
    if result.v_ss_est is not None:
        print(f"v_ss_est = {result.v_ss_est:.6g} (mode {cfg.mode})")
    failed = [rec["name"] for group in result.checks.values() for rec in group
              if not rec["pass"]]
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except RetrodynError as exc:
        print(f"retrodyn: stage 'config': {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "simulate":
            return _cmd_simulate(cfg)
        return _cmd_pipelines(cfg)
    except RetrodynError as exc:
        msg = str(exc)
        if not msg.startswith("stage '"):
            msg = f"stage '{args.command}': {msg}"
        print(f"retrodyn: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
