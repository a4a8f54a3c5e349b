"""Command-line front end.

Subcommands:
  run               run an experiment; write records.csv, summary.csv and
                    fig_<X>.dat, made from the records that `run_experiment`
                    returns, and with --trace trace.txt, in one loop
  list-experiments  print the available experiments
  validate-config   parse and validate a config file
  trace             trace the experiment's first run, its scenario included;
                    `run --trace` traces that run inside `run_experiment`

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments import execute, run_experiment, run_specs
from .metrics import plot_files, records_to_csv, summarize, summary_to_csv
from .scenarios import (EXPERIMENT_SUMMARIES, EXPERIMENTS, PLANES,
                        ConfigError, ScenarioConfig, config_from_dict,
                        load_config, read_config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdnsim",
        description="Deterministic simulator comparing NDN content delivery "
                    "with an HTTP caching-proxy chain on a small CDN topology.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment")
    run.add_argument("--config", help="JSON config file")
    run.add_argument("--experiment", choices=EXPERIMENTS,
                     help="experiment to run (overrides the config)")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--seed", type=int, help="override the base seed")
    run.add_argument("--reps", type=int, help="override repetitions")
    run.add_argument("--plane", choices=PLANES,
                     help="override which plane(s) to run")
    run.add_argument("--jobs", type=int, default=1,
                     help="run the experiment's runs in parallel processes")
    run.add_argument("--trace", action="store_true",
                     help="also write an event trace of one run to the "
                          "output directory")

    sub.add_parser("list-experiments", help="describe the experiments")

    val = sub.add_parser("validate-config", help="check a config file")
    val.add_argument("config")

    trace = sub.add_parser("trace", help="run one scenario with event tracing")
    trace.add_argument("--config", help="JSON config file")
    trace.add_argument("--experiment", choices=EXPERIMENTS)
    trace.add_argument("--seed", type=int)
    trace.add_argument("--size", type=int, help="file_sizes: one size in bytes")
    trace.add_argument("--out", help="write the trace here instead of stdout")
    return parser


def _load(args) -> ScenarioConfig:
    """One raw config, the file's keys with the flags over them, parsed once."""
    flags = {"experiment": args.experiment, "base_seed": args.seed,
             "repetitions": getattr(args, "reps", None),
             "plane": getattr(args, "plane", None),
             "file_sizes": [args.size] if getattr(args, "size", None) else None}
    if args.config:
        raw = read_config(args.config)
    elif args.experiment:
        raw = {}
    else:
        raise ConfigError("either --config or --experiment is required")
    if isinstance(raw, dict):  # config_from_dict refuses any other root
        raw.update((key, v) for key, v in flags.items() if v is not None)
    return config_from_dict(raw)


def _record_key(rec):
    return (rec.experiment, rec.plane, rec.size_bytes, rec.mode, rec.seed)


def cmd_run(args) -> int:
    cfg = _load(args)
    out = run_experiment(cfg, jobs=args.jobs, trace=args.trace)
    records = sorted(out.records, key=_record_key)
    rows, warnings = summarize(records)
    # fig_C.dat lists runs, so the plot files read the records in spec order.
    files = {"records.csv": records_to_csv(records),
             "summary.csv": summary_to_csv(rows),
             **plot_files(cfg.experiment, out.records)}
    if args.trace:
        files["trace.txt"] = out.details["trace"][0]
    os.makedirs(args.out, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(args.out, name), "w") as fh:
            fh.write(text)
    failures = sum(1 for r in records if not r.success)
    print(f"experiment {cfg.experiment}: {len(records)} runs, "
          f"{failures} failed, output in {args.out}/")
    if warnings:
        print(f"warning: {warnings} group(s) had no successful runs",
              file=sys.stderr)
    return 0


def _replot(cfg: ScenarioConfig, records) -> dict:
    """The plot files of records in the order given.  bench/run.py builds
    the plot files of records it gathered itself through this name."""
    return plot_files(cfg.experiment, records)


def cmd_list(_args) -> int:
    for exp in sorted(EXPERIMENT_SUMMARIES):
        print(f"{exp}  {EXPERIMENT_SUMMARIES[exp]}")
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(f"{args.config}: valid (experiment {cfg.experiment}, "
          f"plane {cfg.plane}, {cfg.repetitions} repetition(s))")
    return 0


def cmd_trace(args) -> int:
    if args.size is not None and args.size <= 0:
        raise ConfigError("--size must be a positive number of bytes")
    cfg = _load(args)
    # cfg's first run, repetition 0's first spec, which `run --trace` traces.
    text = execute(cfg, run_specs(cfg, reps=[0])[0], trace=True)[1]["trace"]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"trace written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


COMMANDS = {
    "run": cmd_run,
    "list-experiments": cmd_list,
    "validate-config": cmd_validate,
    "trace": cmd_trace,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
