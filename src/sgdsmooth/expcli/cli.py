"""Command-line harness.

Subcommands: run, ensemble, smooth, certify, bounds, figure3.
Exit codes: 0 success; 1 configuration error, a NaN or infinite config
number included; 2 numerical divergence in a required (non-ensemble)
computation, or a numerical error such as a noise or init draw whose
range overflows a double.  `bounds` prints its constants as an aligned
table, then as strict JSON, where an infinite constant is null.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from ..certifier import region_scan
from ..noise import RngStream
from ..optimizer import sgd_run, write_csv_columns
from ..theory import constants
from .config import ConfigError, ExperimentConfig
from .pipeline import (
    CERT_STREAM,
    TRIAL_STREAM_BASE,
    draw_inits,
    ensemble,
    figure3,
    smoothing_curve,
    strict_json,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2


def _load_config(args) -> ExperimentConfig:
    if args.config is None:
        cfg = ExperimentConfig()
    else:
        cfg = ExperimentConfig.load(args.config)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.trials is not None:
        updates["n_trials"] = args.trials
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    return cfg


def _require_out(cfg: ExperimentConfig) -> str:
    """The config's output directory, which the caller creates."""
    if cfg.out_dir is None:
        raise ConfigError("an output directory is required (--out or config out_dir)")
    return cfg.out_dir


def cmd_run(cfg: ExperimentConfig) -> int:
    obj = cfg.build_objective()
    x0 = draw_inits(1, obj.dimension, cfg.init_box, cfg.seed)[0]
    traj = sgd_run(obj, cfg.build_schedule(), x0, RngStream(cfg.seed, TRIAL_STREAM_BASE))
    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        traj.write_csv(os.path.join(cfg.out_dir, "trial_0.csv"))
    print(f"steps recorded: {len(traj) - 1}")
    print(f"final x: {traj.final_x}")
    last = traj.columns(-1)
    print(f"final f: {last['f'][0]:.6g}  grad norm: {last['grad_norm'][0]:.6g}")
    if traj.diverged:
        print("trajectory diverged", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_ensemble(cfg: ExperimentConfig) -> int:
    _, report = ensemble(cfg)
    for key, val in sorted(report.summary_dict().items()):
        print(f"{key:>20}: {val}")
    return EXIT_OK


def cmd_smooth(cfg: ExperimentConfig) -> int:
    if cfg.objective.kind != "spiky" or cfg.objective.dimension != 1:
        raise ConfigError("smooth needs the 1-d spiky objective")
    out = _require_out(cfg)
    os.makedirs(out, exist_ok=True)
    stage = cfg.stages[0]
    ys = np.linspace(cfg.cert_grid.lo, cfg.cert_grid.hi, cfg.cert_grid.count)
    cols = smoothing_curve(
        cfg.objective.spiky_params(), stage.eta, stage.kernel.radius, ys,
        n=10_000, seed=cfg.seed, confidence=cfg.confidence,
    )
    path = os.path.join(out, "smooth.csv")
    write_csv_columns(path, cols)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_certify(cfg: ExperimentConfig) -> int:
    obj = cfg.build_objective()
    if obj.target is None:
        raise ConfigError("certify needs an objective with a target")
    stage = cfg.stages[0]
    kernel = stage.kernel.build(obj.dimension)
    grid = [np.full(obj.dimension, g) for g in cfg.cert_grid.points()]
    report = region_scan(
        obj, kernel, stage.eta, obj.target, grid,
        c_min=0.0, n=cfg.cert_samples,
        rng=RngStream(cfg.seed, CERT_STREAM), confidence=cfg.confidence,
    )
    out = _require_out(cfg)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "certify.csv")
    certs = report.certificates
    write_csv_columns(path, {
        **{f"x_{i}": [cert.x[i] for cert in certs] for i in range(obj.dimension)},
        "inner": [cert.inner for cert in certs],
        "dist2": [cert.dist2 for cert in certs],
        "c_hat": [cert.c_hat for cert in certs],
        "ci": [cert.ci_halfwidth for cert in certs],
        "pass": [cert.passed for cert in certs],
        "degenerate": [cert.degenerate for cert in certs],
    })
    with open(path, "a", newline="\n") as fh:
        fh.write(f"# certified_c,{report.certified_c!r}\n")
    print(f"certified c: {report.certified_c:.6g} "
          f"at family-wise confidence {report.confidence:g} "
          f"(pass fraction {report.pass_fraction:.3f}, "
          f"{report.degenerate_count} degenerate)")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_bounds(cfg: ExperimentConfig) -> int:
    if cfg.theorem is None:
        raise ConfigError("bounds needs a 'theorem' section in the config")
    cons = constants(**dataclasses.asdict(cfg.theorem))
    data = cons.as_dict()
    width = max(len(k) for k in data)
    for key, val in data.items():
        print(f"{key:>{width}} : {val}")
    print(strict_json(data))
    return EXIT_OK


def cmd_figure3(cfg: ExperimentConfig) -> int:
    # figure3 checks the rest of the config before it creates the directory
    _require_out(cfg)
    report = figure3(cfg)
    print(f"noise levels: {report.noise_levels}")
    for k, med in enumerate(report.row3_medians):
        print(f"stage {k} median |final - target|: {med:.6g}")
    print(f"artifacts in {report.out_dir}")
    return EXIT_OK


COMMANDS = {
    "run": cmd_run,
    "ensemble": cmd_ensemble,
    "smooth": cmd_smooth,
    "certify": cmd_certify,
    "bounds": cmd_bounds,
    "figure3": cmd_figure3,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdsmooth",
        description="SGD-on-smoothed-landscape experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--trials", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return COMMANDS[args.command](cfg)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
