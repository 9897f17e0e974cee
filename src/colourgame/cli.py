"""Command-line entry point: config handling and batch experiment runs.

Configuration is resolved in three layers: built-in defaults, then a JSON
config file, then command-line flags. The fully resolved config is echoed to
`<out_dir>/config.json`, and that file alone is enough to reproduce a batch
bit for bit. Batch runs use seeds seed, seed+1, ... so runs are independent
but reproducible.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

from .engine import SNAPSHOT_ALL, ExperimentParams, run_experiment
from .errors import ColourGameError, ConfigurationError
from .monitors import SeriesPoint, aggregate_runs, export_aggregate, export_run
from .world import Colour

OUT_DIR_ENV_VAR = "NAMING_GAME_OUT_DIR"

_PARAM_DEFAULTS = ExperimentParams()

DEFAULT_CONFIG: dict = {
    "population_size": _PARAM_DEFAULTS.population_size,
    "palette": [
        [int(c.r), int(c.g), int(c.b)] for c in _PARAM_DEFAULTS.palette
    ],
    "random_palette": False,
    "palette_size": _PARAM_DEFAULTS.palette_size,
    "min_separation": _PARAM_DEFAULTS.min_separation,
    "objects_per_scene": _PARAM_DEFAULTS.objects_per_scene,
    "num_interactions": _PARAM_DEFAULTS.num_interactions,
    "noise_std": _PARAM_DEFAULTS.noise_std,
    "initial_score": _PARAM_DEFAULTS.initial_score,
    "inc": _PARAM_DEFAULTS.inc,
    "inh": _PARAM_DEFAULTS.inh,
    "dec": _PARAM_DEFAULTS.dec,
    "shift_rate": _PARAM_DEFAULTS.shift_rate,
    "window": _PARAM_DEFAULTS.window,
    "series_interval": _PARAM_DEFAULTS.series_interval,
    "snapshot_points": list(_PARAM_DEFAULTS.snapshot_points),
    "snapshot_agent": SNAPSHOT_ALL,
    "runs": 1,
    "seed": 0,
    "out_dir": "out",
    "parallel": 1,
}


@dataclass
class ExperimentConfig:
    """The resolved configuration for a batch of runs."""

    population_size: int
    palette: list[list[int]]
    random_palette: bool
    palette_size: int
    min_separation: float
    objects_per_scene: int
    num_interactions: int
    noise_std: float
    initial_score: float
    inc: float
    inh: float
    dec: float
    shift_rate: float
    window: int
    series_interval: int
    snapshot_points: list[int]
    snapshot_agent: int | str
    runs: int
    seed: int
    out_dir: str
    parallel: int

    def to_params(self) -> ExperimentParams:
        return ExperimentParams(
            population_size=self.population_size,
            palette=tuple(Colour(*triplet) for triplet in self.palette),
            objects_per_scene=self.objects_per_scene,
            num_interactions=self.num_interactions,
            noise_std=self.noise_std,
            min_separation=self.min_separation,
            use_random_palette=self.random_palette,
            palette_size=self.palette_size,
            initial_score=self.initial_score,
            inc=self.inc,
            inh=self.inh,
            dec=self.dec,
            shift_rate=self.shift_rate,
            window=self.window,
            series_interval=self.series_interval,
            snapshot_points=tuple(self.snapshot_points),
            snapshot_agent=self.snapshot_agent,
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return _is_int(value) or isinstance(value, float)


def _check_type(key: str, value: object) -> None:
    """Type-check one config entry; raises ConfigurationError on mismatch."""
    int_keys = {
        "population_size", "palette_size", "objects_per_scene",
        "num_interactions", "window", "series_interval", "runs", "seed",
        "parallel",
    }
    float_keys = {
        "min_separation", "noise_std", "initial_score", "inc", "inh", "dec",
        "shift_rate",
    }
    if key in int_keys:
        if not _is_int(value):
            raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    elif key in float_keys:
        if not _is_number(value):
            raise ConfigurationError(f"{key} must be a number, got {value!r}")
    elif key == "random_palette":
        if not isinstance(value, bool):
            raise ConfigurationError(
                f"random_palette must be a boolean, got {value!r}"
            )
    elif key == "palette":
        ok = isinstance(value, list) and all(
            isinstance(t, list) and len(t) == 3 and all(_is_int(ch) for ch in t)
            for t in value
        )
        if not ok:
            raise ConfigurationError(
                "palette must be a list of [r, g, b] integer triplets"
            )
    elif key == "snapshot_points":
        if not isinstance(value, list) or not all(_is_int(p) for p in value):
            raise ConfigurationError(
                f"snapshot_points must be a list of integers, got {value!r}"
            )
    elif key == "snapshot_agent":
        if value != SNAPSHOT_ALL and not _is_int(value):
            raise ConfigurationError(
                f"snapshot_agent must be 'all' or an agent index, got {value!r}"
            )
    elif key == "out_dir":
        if not isinstance(value, str):
            raise ConfigurationError(f"out_dir must be a string, got {value!r}")
    else:
        raise ConfigurationError(f"unknown configuration key {key!r}")


def parse_config(
    config_path: str | None = None, overrides: dict | None = None
) -> ExperimentConfig:
    """Resolve defaults, config file and flag overrides into one config."""
    resolved = dict(DEFAULT_CONFIG)

    env_out_dir = os.environ.get(OUT_DIR_ENV_VAR)
    if env_out_dir:
        resolved["out_dir"] = env_out_dir

    if config_path is not None:
        try:
            with open(config_path) as fh:
                file_config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"config file {config_path} is not valid JSON: {exc}"
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
    config.to_params().validate()


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

    params = config.to_params()
    jobs = [
        (params, config.seed + i, str(out_dir / f"run-{i}"))
        for i in range(config.runs)
    ]
    if config.parallel > 1 and config.runs > 1:
        with ProcessPoolExecutor(max_workers=config.parallel) as pool:
            series_per_run = list(pool.map(_execute_run, *zip(*jobs)))
    else:
        series_per_run = [_execute_run(*job) for job in jobs]

    export_aggregate(aggregate_runs(series_per_run), out_dir)
    for i, series in enumerate(series_per_run):
        print(_run_summary(i, config.seed + i, series))
    return 0


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
    run.add_argument("--population-size", type=int, dest="population_size")
    run.add_argument("--objects-per-scene", type=int, dest="objects_per_scene")
    run.add_argument("--num-interactions", type=int, dest="num_interactions")
    run.add_argument("--runs", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--noise-std", type=float, dest="noise_std")
    run.add_argument("--initial-score", type=float, dest="initial_score")
    run.add_argument("--inc", type=float)
    run.add_argument("--inh", type=float)
    run.add_argument("--dec", type=float)
    run.add_argument("--shift-rate", type=float, dest="shift_rate")
    run.add_argument("--window", type=int)
    run.add_argument(
        "--snapshot-at",
        type=_parse_snapshot_points,
        dest="snapshot_points",
        metavar="N,N,...",
        help="comma-separated interaction numbers to snapshot at",
    )
    run.add_argument(
        "--snapshot-agent",
        type=_parse_snapshot_agent,
        dest="snapshot_agent",
        help="agent index to snapshot, or 'all'",
    )
    run.add_argument("--out-dir", dest="out_dir")
    run.add_argument(
        "--parallel", type=int, help="run up to N experiments concurrently"
    )
    return parser


_OVERRIDE_KEYS = (
    "population_size", "objects_per_scene", "num_interactions", "runs",
    "seed", "noise_std", "initial_score", "inc", "inh", "dec", "shift_rate",
    "window", "snapshot_points", "snapshot_agent", "out_dir", "parallel",
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "print-default-config":
        print(json.dumps(DEFAULT_CONFIG, indent=2, sort_keys=True))
        return 0

    overrides = {
        key: getattr(args, key)
        for key in _OVERRIDE_KEYS
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
