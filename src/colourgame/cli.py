"""Command-line entry point: config handling and batch experiment runs.

Configuration is resolved in three layers: built-in defaults, then a JSON
config file, then command-line flags. The config keys are the fields of
ExperimentParams plus the batch keys of BATCH_DEFAULTS, and each key's
default, type check and flag derive from that one list. The fully resolved
config is echoed to `<out_dir>/config.json`, and that file alone is enough to
reproduce a batch bit for bit. Batch runs use seeds seed, seed+1, ... so runs
are independent but reproducible.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

from .engine import SNAPSHOT_ALL, ExperimentParams, run_experiment
from .errors import ColourGameError, ConfigurationError
from .monitors import SeriesPoint, aggregate_runs, export_aggregate, export_run
from .world import Colour

OUT_DIR_ENV_VAR = "NAMING_GAME_OUT_DIR"


# Every field of ExperimentParams is a game key but the body backend, which
# code picks through the backend registry rather than a config file. The
# JSON round trip spells each default as a config file does: lists for
# tuples, so [r, g, b] for a colour.
GAME_DEFAULTS: dict = json.loads(
    json.dumps(
        {
            f.name: f.default
            for f in fields(ExperimentParams)
            if f.name != "backend_kind"
        }
    )
)
BATCH_DEFAULTS: dict = {"runs": 1, "seed": 0, "out_dir": "out", "parallel": 1}
DEFAULT_CONFIG: dict = {**GAME_DEFAULTS, **BATCH_DEFAULTS}


class ExperimentConfig(SimpleNamespace):
    """The resolved configuration for a batch of runs: one attribute per key
    of DEFAULT_CONFIG."""

    def to_dict(self) -> dict:
        return dict(vars(self))


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# What a config value must be, by the JSON type of its key's default.
_TYPES = {
    bool: ("a boolean", lambda value: isinstance(value, bool)),
    int: ("an integer", _is_int),
    float: ("a number", lambda value: _is_int(value) or isinstance(value, float)),
    str: ("a string", lambda value: isinstance(value, str)),
    list: (
        "a list of integers",
        lambda value: isinstance(value, list) and all(map(_is_int, value)),
    ),
}


def _check_type(key: str, value: object) -> None:
    """Type-check one config entry; raises ConfigurationError on mismatch."""
    if key not in DEFAULT_CONFIG:
        raise ConfigurationError(f"unknown configuration key {key!r}")
    if key == "palette":
        ok = isinstance(value, list) and all(
            isinstance(t, list) and len(t) == 3 and all(_is_int(ch) for ch in t)
            for t in value
        )
        if not ok:
            raise ConfigurationError(
                "palette must be a list of [r, g, b] integer triplets"
            )
    elif key == "snapshot_agent":
        if value != SNAPSHOT_ALL and not _is_int(value):
            raise ConfigurationError(
                f"snapshot_agent must be 'all' or an agent index, got {value!r}"
            )
    else:
        kind, accepts = _TYPES[type(DEFAULT_CONFIG[key])]
        if not accepts(value):
            raise ConfigurationError(f"{key} must be {kind}, got {value!r}")


def parse_config(
    config_path: str | None = None, overrides: dict | None = None
) -> ExperimentConfig:
    """Resolve defaults, config file and flag overrides into one config."""
    # A deep copy: the palette and snapshot_points lists of a resolved config
    # must not be the defaults' own.
    resolved = copy.deepcopy(DEFAULT_CONFIG)

    env_out_dir = os.environ.get(OUT_DIR_ENV_VAR)
    if env_out_dir:
        resolved["out_dir"] = env_out_dir

    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"config file {config_path} is not valid JSON: {exc}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise ConfigurationError(
                f"config file {config_path} is not UTF-8 text: {exc.reason}"
            ) from exc
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read config file {config_path}: {exc.strerror}"
            ) from exc
        if not isinstance(file_config, dict):
            raise ConfigurationError(
                f"config file {config_path} must hold a JSON object"
            )
        for key, value in file_config.items():
            _check_type(key, value)
            resolved[key] = value

    for key, value in (overrides or {}).items():
        _check_type(key, value)
        resolved[key] = value

    config = ExperimentConfig(**resolved)
    _validate_ranges(config)
    return config


def _game_params(config: ExperimentConfig) -> ExperimentParams:
    """The config's game keys as the engine takes them: colours and tuples
    where the config file has lists."""
    values = {key: getattr(config, key) for key in GAME_DEFAULTS}
    values["palette"] = tuple(Colour(*triplet) for triplet in config.palette)
    values["snapshot_points"] = tuple(config.snapshot_points)
    return ExperimentParams(**values)


def _validate_ranges(config: ExperimentConfig) -> None:
    for triplet in config.palette:
        if any(not 0 <= ch <= 255 for ch in triplet):
            raise ConfigurationError(
                f"palette channel outside [0, 255] in {triplet}"
            )
    if config.runs < 1:
        raise ConfigurationError(f"runs must be >= 1, got {config.runs}")
    if config.seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {config.seed}")
    if config.parallel < 1:
        raise ConfigurationError(f"parallel must be >= 1, got {config.parallel}")
    # Shared game parameters take their range checks from the engine.
    _game_params(config).validate()


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


def run_command(config: ExperimentConfig) -> int:
    """Execute the configured batch and write all output files."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "config.json").open("w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    params = _game_params(config)
    jobs = [
        (params, config.seed + i, str(out_dir / f"run-{i}"))
        for i in range(config.runs)
    ]
    # The pool forks all its workers at the first submit, so ask for no more
    # than there are runs or CPUs to run them on.
    workers = min(config.parallel, config.runs, _usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            series_per_run = list(pool.map(_execute_run, *zip(*jobs)))
    else:
        series_per_run = [_execute_run(*job) for job in jobs]

    export_aggregate(aggregate_runs(series_per_run), out_dir)
    for i, series in enumerate(series_per_run):
        print(_run_summary(i, config.seed + i, series))
    return 0


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parse_snapshot_points(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}"
        ) from None


def _parse_snapshot_agent(text: str) -> int | str:
    if text == SNAPSHOT_ALL:
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'all' or an agent index, got {text!r}"
        ) from None


# The keys a `run` flag sets, in --help order, each with the argparse settings
# it does not derive: the flag is `--<key with dashes>` and its type that of
# the key's default. Every other key is set in a config file only.
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
        "type": _parse_snapshot_points,
        "metavar": "N,N,...",
        "help": "comma-separated interaction numbers to snapshot at",
    },
    "snapshot_agent": {
        "type": _parse_snapshot_agent,
        "help": "agent index to snapshot, or 'all'",
    },
    "out_dir": {},
    "parallel": {"help": "run up to N experiments concurrently"},
}


def build_parser() -> argparse.ArgumentParser:
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
        options = {"dest": key, "type": type(DEFAULT_CONFIG[key]), **settings}
        flag = options.pop("flag", "--" + key.replace("_", "-"))
        run.add_argument(flag, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "print-default-config":
        print(json.dumps(DEFAULT_CONFIG, indent=2, sort_keys=True))
        return 0

    overrides = {
        key: getattr(args, key)
        for key in _FLAGS
        if getattr(args, key) is not None
    }
    try:
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
