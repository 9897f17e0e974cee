import json

import pytest

from colourgame import cli
from colourgame.cli import (
    DEFAULT_CONFIG,
    OUT_DIR_ENV_VAR,
    main,
    parse_config,
    run_command,
)
from colourgame.errors import ConfigurationError


def small_args(out_dir, **extra):
    args = [
        "run",
        "--out-dir", str(out_dir),
        "--num-interactions", "40",
        "--runs", "1",
        "--seed", "42",
        "--snapshot-at", "10,20",
    ]
    for key, value in extra.items():
        args.extend([f"--{key.replace('_', '-')}", str(value)])
    return args


def test_print_default_config_emits_the_documented_defaults(capsys):
    assert main(["print-default-config"]) == 0
    config = json.loads(capsys.readouterr().out)
    assert config["population_size"] == 5
    assert len(config["palette"]) == 6
    assert config["objects_per_scene"] == 3
    assert config["num_interactions"] == 1000
    assert config["noise_std"] == 3.0
    assert config["runs"] == 1


def test_parse_config_defaults_match_builtins():
    config = parse_config(None, {})
    assert config.to_dict() == DEFAULT_CONFIG


def test_mutating_a_resolved_config_leaves_the_defaults_alone(capsys):
    assert main(["print-default-config"]) == 0
    printed = capsys.readouterr().out
    config = parse_config(None, {})
    config.snapshot_points.append(999)
    config.palette.append([1, 2, 3])
    config.palette[0][0] = 7
    assert parse_config(None, {}).to_dict() == json.loads(printed)
    assert main(["print-default-config"]) == 0
    assert capsys.readouterr().out == printed


def test_flag_overrides_and_file_precedence(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"population_size": 7, "noise_std": 1.5}))
    file_only = parse_config(str(config_file), {})
    assert file_only.population_size == 7
    assert file_only.noise_std == 1.5
    overridden = parse_config(str(config_file), {"population_size": 9})
    assert overridden.population_size == 9
    assert overridden.noise_std == 1.5


def test_parse_config_rejects_unknown_keys_and_bad_types(tmp_path):
    bad_key = tmp_path / "bad-key.json"
    bad_key.write_text(json.dumps({"populaton_size": 5}))
    with pytest.raises(ConfigurationError):
        parse_config(str(bad_key), {})

    bad_type = tmp_path / "bad-type.json"
    bad_type.write_text(json.dumps({"population_size": "five"}))
    with pytest.raises(ConfigurationError):
        parse_config(str(bad_type), {})

    bad_palette = tmp_path / "bad-palette.json"
    bad_palette.write_text(json.dumps({"palette": [[300, 0, 0], [0, 255, 0]]}))
    with pytest.raises(ConfigurationError):
        parse_config(str(bad_palette), {})

    not_json = tmp_path / "broken.json"
    not_json.write_text("{")
    with pytest.raises(ConfigurationError):
        parse_config(str(not_json), {})

    not_utf8 = tmp_path / "not-utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigurationError):
        parse_config(str(not_utf8), {})


def test_parse_config_range_validation():
    with pytest.raises(ConfigurationError):
        parse_config(None, {"population_size": 1})
    with pytest.raises(ConfigurationError):
        parse_config(None, {"runs": 0})
    with pytest.raises(ConfigurationError):
        parse_config(None, {"seed": -1})
    with pytest.raises(ConfigurationError):
        parse_config(None, {"parallel": 0})


@pytest.mark.parametrize(
    "flag, value",
    [("noise_std", "nan"), ("noise_std", "inf"), ("inc", "nan"),
     ("inh", "inf"), ("dec", "inf")],
)
def test_non_finite_flag_exits_2(tmp_path, capsys, flag, value):
    out_dir = tmp_path / "out"
    assert main(small_args(out_dir, **{flag: value})) == 2
    assert flag in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "text",
    ['{"noise_std": NaN}', '{"min_separation": Infinity}', '{"inc": NaN}',
     '{"inh": -Infinity}', '{"dec": Infinity}'],
)
def test_non_finite_config_value_exits_2(tmp_path, capsys, text):
    config_file = tmp_path / "config.json"
    config_file.write_text(text)
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config_file), "--out-dir", str(out_dir)])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not out_dir.exists()


def test_crowded_fixed_palette_exits_2_before_writing(tmp_path, capsys):
    config_file = tmp_path / "config.json"
    config_file.write_text(
        json.dumps(
            {
                "palette": [[0, 0, 0], [10, 0, 0], [255, 255, 255]],
                "objects_per_scene": 2,
            }
        )
    )
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config_file), "--out-dir", str(out_dir)])
    assert code == 2
    assert "separation" in capsys.readouterr().err
    assert not out_dir.exists()


def test_missing_config_file_exits_2_and_output_io_error_exits_1(
    tmp_path, capsys
):
    missing = tmp_path / "missing.json"
    code = main(["run", "--config", str(missing), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    # an output directory that cannot be created stays an i/o error
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("occupied")
    assert main(small_args(blocker / "out")) == 1
    assert "i/o error" in capsys.readouterr().err


# Every `run` flag: its value on the command line, the key it sets and the
# value (and type) config.json must echo for it.
RUN_FLAGS = [
    ("--population-size", "3", "population_size", 3),
    ("--objects-per-scene", "2", "objects_per_scene", 2),
    ("--num-interactions", "7", "num_interactions", 7),
    ("--runs", "2", "runs", 2),
    ("--seed", "5", "seed", 5),
    ("--noise-std", "2", "noise_std", 2.0),
    ("--initial-score", "0.25", "initial_score", 0.25),
    ("--inc", "0.1", "inc", 0.1),
    ("--inh", "0.02", "inh", 0.02),
    ("--dec", "0.3", "dec", 0.3),
    ("--shift-rate", "0.1", "shift_rate", 0.1),
    ("--window", "7", "window", 7),
    ("--snapshot-at", "3,5", "snapshot_points", [3, 5]),
    ("--snapshot-agent", "1", "snapshot_agent", 1),
    ("--out-dir", "chosen", "out_dir", "chosen"),
    ("--parallel", "2", "parallel", 2),
]


@pytest.mark.parametrize("flag, text, key, expected", RUN_FLAGS)
def test_each_run_flag_reaches_the_echoed_config(
    tmp_path, monkeypatch, capsys, flag, text, key, expected
):
    monkeypatch.chdir(tmp_path)
    args = ["run", "--num-interactions", "5", "--out-dir", "out", flag, text]
    assert main(args) == 0
    capsys.readouterr()
    out_dir = expected if key == "out_dir" else "out"
    echoed = json.loads((tmp_path / out_dir / "config.json").read_text())
    assert echoed == {
        **DEFAULT_CONFIG, "num_interactions": 5, "out_dir": "out", key: expected
    }
    assert type(echoed[key]) is type(expected)


def test_env_var_supplies_out_dir_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV_VAR, str(tmp_path / "from-env"))
    assert parse_config(None, {}).out_dir == str(tmp_path / "from-env")
    # an explicit flag still wins over the environment
    config = parse_config(None, {"out_dir": str(tmp_path / "flag")})
    assert config.out_dir == str(tmp_path / "flag")


def test_population_size_one_exits_nonzero(tmp_path, capsys):
    code = main(small_args(tmp_path / "out", population_size=1))
    assert code == 2
    assert "population_size" in capsys.readouterr().err


def test_run_writes_all_files_and_summaries(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(small_args(out, runs=2)) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert printed[0].startswith("run-0: seed=42 ")
    assert printed[1].startswith("run-1: seed=43 ")
    assert "final_windowed_success=" in printed[0]

    assert (out / "config.json").is_file()
    assert (out / "aggregate.csv").is_file()
    for run_dir in ("run-0", "run-1"):
        assert (out / run_dir / "series.csv").is_file()
        assert (out / run_dir / "snapshots.json").is_file()
        assert (out / run_dir / "snapshots.html").is_file()
        lines = (out / run_dir / "series.csv").read_text().splitlines()
        assert len(lines) == 41
        snapshots = json.loads((out / run_dir / "snapshots.json").read_text())
        assert {s["interaction_number"] for s in snapshots} == {10, 20}

    echoed = json.loads((out / "config.json").read_text())
    assert echoed["seed"] == 42 and echoed["runs"] == 2


def test_rerun_with_same_config_is_byte_identical(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(small_args(out_a, runs=2)) == 0
    assert main(small_args(out_b, runs=2)) == 0
    capsys.readouterr()
    for rel in ("run-0/series.csv", "run-1/series.csv", "aggregate.csv",
                "run-0/snapshots.json", "run-0/snapshots.html"):
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()


def test_echoed_config_alone_reproduces_the_run(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(small_args(out_a)) == 0
    code = main(
        ["run", "--config", str(out_a / "config.json"), "--out-dir", str(out_b)]
    )
    assert code == 0
    capsys.readouterr()
    assert (out_a / "run-0/series.csv").read_bytes() == (
        out_b / "run-0/series.csv"
    ).read_bytes()


def test_parallel_runs_match_sequential_output(tmp_path, capsys, monkeypatch):
    # Three usable CPUs whatever the host has, so three real workers run.
    monkeypatch.setattr(
        cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
    )
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main(small_args(seq, runs=3)) == 0
    assert main(small_args(par, runs=3, parallel=3)) == 0
    capsys.readouterr()
    for i in range(3):
        assert (seq / f"run-{i}" / "series.csv").read_bytes() == (
            par / f"run-{i}" / "series.csv"
        ).read_bytes()
    assert (seq / "aggregate.csv").read_bytes() == (par / "aggregate.csv").read_bytes()


def test_parallel_asks_for_no_more_workers_than_runs(tmp_path, capsys, monkeypatch):
    requested = []

    class SerialPool:
        """In-process stand-in for ProcessPoolExecutor: records the worker
        count asked for and maps serially, so no process is started."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    def cpus(n):
        monkeypatch.setattr(
            cli.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False
        )

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    seq = tmp_path / "seq"
    assert main(small_args(seq, runs=5)) == 0
    seq_printed = capsys.readouterr().out
    assert requested == []
    written = sorted(
        path.relative_to(seq) for path in seq.rglob("*") if path.is_file()
    )

    def assert_same_output(par):
        assert capsys.readouterr().out == seq_printed
        assert written == sorted(
            path.relative_to(par) for path in par.rglob("*") if path.is_file()
        )
        for path in written:
            if path.name != "config.json":  # echoes out_dir and parallel
                assert (seq / path).read_bytes() == (par / path).read_bytes(), path

    # (CPUs, --parallel) -> workers asked for: capped by runs, then by CPUs;
    # one worker runs in this process with no pool at all.
    for n_cpus, parallel, workers in ((16, 8, 5), (3, 8, 3), (1, 8, None)):
        cpus(n_cpus)
        requested.clear()
        par = tmp_path / f"par-{n_cpus}"
        assert main(small_args(par, runs=5, parallel=parallel)) == 0
        assert requested == ([] if workers is None else [workers])
        assert_same_output(par)
    # Without an affinity call the machine's CPU count caps the pool, and an
    # unknown count means one CPU.
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    for count, workers in ((4, 4), (None, None)):
        monkeypatch.setattr(cli.os, "cpu_count", lambda count=count: count)
        requested.clear()
        par = tmp_path / f"count-{count}"
        assert main(small_args(par, runs=5, parallel=8)) == 0
        assert requested == ([] if workers is None else [workers])
        assert_same_output(par)


def test_zero_interaction_run_produces_header_only_files(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(small_args(out, num_interactions=0)) == 0
    printed = capsys.readouterr().out
    assert "final_windowed_success=0.000" in printed
    assert (out / "run-0" / "series.csv").read_text().count("\n") == 1
    assert (out / "aggregate.csv").read_text().count("\n") == 1


def test_config_file_palette_round_trip(tmp_path, capsys):
    config_file = tmp_path / "conf.json"
    config_file.write_text(
        json.dumps(
            {
                "palette": [[0, 0, 0], [255, 255, 255]],
                "objects_per_scene": 2,
                "num_interactions": 10,
                "out_dir": str(tmp_path / "out"),
            }
        )
    )
    assert main(["run", "--config", str(config_file)]) == 0
    capsys.readouterr()
    echoed = json.loads((tmp_path / "out" / "config.json").read_text())
    assert echoed["palette"] == [[0, 0, 0], [255, 255, 255]]


def test_run_command_returns_zero(tmp_path):
    config = parse_config(
        None,
        {"out_dir": str(tmp_path / "direct"), "num_interactions": 5, "runs": 1},
    )
    assert run_command(config) == 0


def test_default_run_converges_in_the_summary(tmp_path, capsys):
    out = tmp_path / "defaults"
    assert main(["run", "--out-dir", str(out), "--seed", "1"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    success = float(line.split("final_windowed_success=")[1].split()[0])
    assert success >= 0.95
