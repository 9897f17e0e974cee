"""Command-line entry point: config handling and batch experiment runs.

A config resolves in three layers: built-in defaults, then a JSON config
file, then command-line flags (`parse_config`). Its keys are the fields of
`ExperimentParams` plus `BATCH_DEFAULTS`, and each key's default, type and
flag derive from that one list (`DEFAULT_CONFIG`, `_KEY_TYPES`, `_FLAGS`).

Invariants, each explained where it is kept (`run_command`): a batch checks
everything before it writes a file, its `config.json` alone reproduces it,
its memory does not grow with its run count, and a serial batch never
imports the process pool.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from .engine import FIELD_TYPES, SNAPSHOT_ALL, ExperimentParams, run_experiment, start_run
from .errors import (
    AT_LEAST_ONE,
    AT_LEAST_ZERO,
    TYPE_RULES,
    ColourGameError,
    ConfigurationError,
    Rule,
    is_int,
    quoted,
    within,
)
from .monitors import SeriesPoint, export_aggregate, export_run

OUT_DIR_ENV_VAR = "NAMING_GAME_OUT_DIR"

# Stops a mistyped run count before the batch lists its runs: 500 times the
# paper's 20-run acceptance ensemble.
MAX_RUNS = 10_000


# Every field of ExperimentParams is a game key but the body backend, which
# code picks through the backend registry rather than a config file. The
# JSON round trip spells each default as a config file does: lists for
# tuples, so [r, g, b] for a colour.
GAME_DEFAULTS: dict = json.loads(
    json.dumps(
        {
            key: default
            for key, default in ExperimentParams._field_defaults.items()
            if key != "backend_kind"
        }
    )
)
BATCH_DEFAULTS: dict = {"runs": 1, "seed": 0, "out_dir": "out", "parallel": 1}
DEFAULT_CONFIG: dict = {**GAME_DEFAULTS, **BATCH_DEFAULTS}


def _is_palette(value: object) -> bool:
    return isinstance(value, list) and all(
        isinstance(t, list)
        and len(t) == 3
        and all(is_int(ch) and 0 <= ch <= 255 for ch in t)
        for t in value
    )


# What each config key's value must be: a game key's type is the engine's,
# but a palette's channels must be integers; a batch key's is its default's.
_KEY_TYPES: dict[str, Rule] = {
    key: FIELD_TYPES.get(key) or TYPE_RULES[type(default)]
    for key, default in DEFAULT_CONFIG.items()
}
_KEY_TYPES["palette"] = Rule(
    "a list of [r, g, b] integer triplets in [0, 255]", _is_palette
)

# What each batch key's value must be once its type holds, in the order
# `parse_config` checks them.
_BATCH_RANGES = {
    "runs": within(1, MAX_RUNS),
    "seed": AT_LEAST_ZERO,
    "parallel": AT_LEAST_ONE,
    # The OS takes no path with a null byte; Path.mkdir would raise ValueError.
    "out_dir": Rule("a path without a null byte", lambda v: "\0" not in v),
}


def parse_config(
    config_path: str | None = None, overrides: dict | None = None
) -> SimpleNamespace:
    """Resolve defaults, config file and flag overrides into one config:
    a namespace with one attribute per key of DEFAULT_CONFIG."""
    # Through JSON text, as GAME_DEFAULTS is made: the palette and
    # snapshot_points lists of a resolved config must not be the defaults' own.
    resolved = json.loads(json.dumps(DEFAULT_CONFIG))

    env_out_dir = os.environ.get(OUT_DIR_ENV_VAR)
    if env_out_dir:
        resolved["out_dir"] = env_out_dir

    file_config = {}
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"config file {config_path} is not valid JSON: {exc}"
            ) from exc
        except RecursionError as exc:
            raise ConfigurationError(
                f"config file {config_path} is not valid JSON: nested too deeply"
            ) from exc
        except UnicodeDecodeError as exc:
            raise ConfigurationError(
                f"config file {config_path} is not UTF-8 text: {exc.reason}"
            ) from exc
        except ValueError as exc:
            # int() refuses a literal past sys.get_int_max_str_digits().
            raise ConfigurationError(
                f"config file {config_path} holds an integer too long to read"
            ) from exc
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read config file {config_path}: {exc.strerror}"
            ) from exc
        if not isinstance(file_config, dict):
            raise ConfigurationError(
                f"config file {config_path} must hold a JSON object"
            )

    for key, value in [*file_config.items(), *(overrides or {}).items()]:
        if key not in _KEY_TYPES:
            raise ConfigurationError(f"unknown configuration key {key!r}")
        _KEY_TYPES[key].require(key, value)
        resolved[key] = value

    for key, rule in _BATCH_RANGES.items():
        rule.require(key, resolved[key])
    config = SimpleNamespace(**resolved)
    # The game keys take their type and range checks from the engine.
    _game_params(config).validate()
    return config


def _game_params(config: SimpleNamespace) -> ExperimentParams:
    """The config's game keys, lists as the config holds them, so an error
    quotes a value as the file spells it."""
    return ExperimentParams(**{key: getattr(config, key) for key in GAME_DEFAULTS})


def _execute_run(
    params: ExperimentParams, seed: int, run_dir: str
) -> list[SeriesPoint]:
    result = run_experiment(params, seed)
    export_run(result.series, result.snapshots, run_dir)
    return result.series


def _run_summary(run_index: int, seed: int, series: list[SeriesPoint]) -> str:
    if series:
        last = series[-1]
        success = last.success_window_avg
        ontology = last.mean_ontology_size
        forms = last.distinct_forms_population
    else:
        success, ontology, forms = 0.0, 0.0, 0
    return (
        f"run-{run_index}: seed={seed} final_windowed_success={success:.3f} "
        f"mean_ontology_size={ontology:.2f} distinct_forms={forms}"
    )


def run_command(config: SimpleNamespace) -> int:
    """Execute the configured batch and write all output files, after
    every check, a random palette that cannot be placed included. The
    resolved config goes to `<out_dir>/config.json`, which alone reproduces
    the batch bit for bit: run i plays at seed `seed + i`. The process pool
    and its modules are loaded only for more than one worker."""
    params = _game_params(config)
    if params.random_palette:
        for i in range(config.runs):
            start_run(params, config.seed + i)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "config.json").open("w") as fh:
        json.dump(vars(config), fh, indent=2, sort_keys=True)
        fh.write("\n")

    jobs = [
        (params, config.seed + i, str(out_dir / f"run-{i}"))
        for i in range(config.runs)
    ]
    summaries = []

    def finished(runs):
        # Each run's series as it ends, for the aggregate to fold and drop.
        for i, series in enumerate(runs):
            summaries.append(_run_summary(i, config.seed + i, series))
            yield series

    # The pool forks all its workers at the first submit, so ask for no more
    # than there are runs or CPUs to run them on.
    workers = min(config.parallel, config.runs, _usable_cpus())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            export_aggregate(finished(pool.map(_execute_run, *zip(*jobs))), out_dir)
    else:
        export_aggregate(finished(_execute_run(*job) for job in jobs), out_dir)
    for summary in summaries:
        print(summary)
    return 0


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _flag_reader(key: str) -> Callable[[str], object]:
    """The `type=` of the flag that sets `key`: its text read as the key's
    value. A text that does not read (a word, or an int of more digits than
    `int()` converts) is a ConfigurationError that quotes it cut short,
    where argparse would print its usage and all of the value."""
    if key == "snapshot_points":
        read = lambda text: [int(part) for part in text.split(",") if part.strip()]
    elif key == "snapshot_agent":
        read = lambda text: text if text == SNAPSHOT_ALL else int(text)
    else:
        read = type(DEFAULT_CONFIG[key])

    def parse(text: str) -> object:
        try:
            return read(text)
        except ValueError:
            raise ConfigurationError(
                f"{key} must be {_KEY_TYPES[key].words}, got {quoted(text)}"
            ) from None

    return parse


# The keys a `run` flag sets, in --help order, each with the argparse settings
# it does not derive: the flag is `--<key with dashes>` and its type
# `_flag_reader(key)`. Every other key is set in a config file only.
_FLAGS: dict[str, dict] = {
    "population_size": {},
    "objects_per_scene": {},
    "num_interactions": {},
    "runs": {},
    "seed": {},
    "noise_std": {},
    "initial_score": {},
    "inc": {},
    "inh": {},
    "dec": {},
    "shift_rate": {},
    "window": {},
    "snapshot_points": {
        "flag": "--snapshot-at",
        "metavar": "N,N,...",
        "help": "comma-separated interaction numbers to snapshot at",
    },
    "snapshot_agent": {
        "help": "agent index to snapshot, or 'all'",
    },
    "out_dir": {},
    "parallel": {"help": "run up to N experiments concurrently"},
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="colourgame",
        description="Multi-agent simulator of the grounded colour naming game",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "print-default-config",
        help="print the built-in default configuration as JSON",
    )

    run = sub.add_parser("run", help="run one or more seeded experiments")
    run.add_argument("--config", help="JSON config file")
    for key, settings in _FLAGS.items():
        options = {"dest": key, "type": _flag_reader(key), **settings}
        flag = options.pop("flag", "--" + key.replace("_", "-"))
        run.add_argument(flag, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        # A flag's value that does not read raises here.
        args = parser.parse_args(argv)
        if args.command == "print-default-config":
            print(json.dumps(DEFAULT_CONFIG, indent=2, sort_keys=True))
            return 0
        overrides = {
            key: getattr(args, key)
            for key in _FLAGS
            if getattr(args, key) is not None
        }
        config = parse_config(args.config, overrides)
        return run_command(config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ColourGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
