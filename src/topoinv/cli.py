"""Command line driver.

    topo <task> --config FILE [--seed N] [--workers N] [--out DIR]
    topo sweep --config FILE --param section.key --values=v1,v2,... [...]
    topo models list

A grid that starts with a negative number needs the = form: --values=-1.5,0.5.
Exit codes: 0 success, 2 computed but some realization (or grid point) fails
its task's gate, 1 operational error (a usage error included).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .errors import ConfigError, TopoError
from .harness import TASKS, ExperimentConfig, fails_gate, load_config, run_experiment, sweep
from .models import MODEL_NAMES


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        config = dataclasses.replace(config, base_seed=args.seed)
    if args.out is not None:
        config = dataclasses.replace(config, out_dir=Path(args.out))
    return config


class _Parser(argparse.ArgumentParser):
    """A usage error is a ConfigError, so it exits 1 like every operational error;
    subcommand parsers inherit the class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    parser = _Parser(prog="topo", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    for task in TASKS:
        p = sub.add_parser(task, help=f"run the {task} task")
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="run one task over a parameter grid")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True, help="dotted config path, e.g. model.m")
    p.add_argument("--values", required=True,
                   help="comma-separated grid; write --values=-1.5,0.5 when it starts below 0")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("models", help="model zoo utilities")
    p.add_argument("action", choices=["list"])

    try:
        args = parser.parse_args(argv)
        if args.command == "models":
            print("\n".join(MODEL_NAMES))
            return 0
        config = load_config(args.config)
        if args.command != "sweep" and config.task != args.command:
            # the CLI subcommand wins over the config's [task] name
            sections = {s: dict(kv) for s, kv in config.sections.items()}
            sections.setdefault("task", {})["name"] = args.command
            config = ExperimentConfig.from_sections(sections)
            config = dataclasses.replace(config, out_dir=None)
        config = _apply_overrides(config, args)
        if args.command == "sweep":
            values = [v for v in args.values.split(",") if v != ""]
            rows = sweep(config, args.param, values, workers=args.workers)
            for row in rows:
                print(f"{row[0]}={row[1]} seed={row[2]} {row[3]}={row[4]}")
            return 2 if any(fails_gate(config.task, key, val, config.quant_tol)
                            for *_, key, val in rows) else 0
        records, aggregate, quantized_ok = run_experiment(config, workers=args.workers)
        for rec in records:
            shown = {k: v for k, v in rec.values.items() if not k.startswith("_")}
            print(f"seed {rec.seed}: " + "  ".join(f"{k}={v}" for k, v in sorted(shown.items())))
        for key in sorted(aggregate):
            print(f"aggregate {key} = {aggregate[key]}")
        return 0 if quantized_ok else 2
    except TopoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
