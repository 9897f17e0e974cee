import concurrent.futures
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from colourgame import cli
from colourgame.cli import (
    DEFAULT_CONFIG,
    MAX_RUNS,
    OUT_DIR_ENV_VAR,
    main,
    parse_config,
    run_command,
)
from colourgame.engine import MAX_POPULATION
from colourgame.errors import ConfigurationError, ProtocolError


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
    assert vars(config) == DEFAULT_CONFIG


def test_mutating_a_resolved_config_leaves_the_defaults_alone(capsys):
    assert main(["print-default-config"]) == 0
    printed = capsys.readouterr().out
    config = parse_config(None, {})
    config.snapshot_points.append(999)
    config.palette.append([1, 2, 3])
    config.palette[0][0] = 7
    assert vars(parse_config(None, {})) == json.loads(printed)
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


def test_a_bad_config_value_is_quoted_as_the_config_holds_it():
    # The engine checks the config's own list, not a tuple made from it.
    with pytest.raises(ConfigurationError) as err:
        parse_config(None, {"snapshot_points": [0]})
    assert str(err.value) == "snapshot_points must be integers >= 1, got [0]"


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


def test_dash_value_in_equals_form_reaches_the_range_check(tmp_path, capsys):
    # argparse takes "-inf" after a space for an option ("expected one
    # argument"); written --noise-std=-inf it is a value and is range-checked.
    out_dir = tmp_path / "out"
    assert main([*small_args(out_dir), "--noise-std=-inf"]) == 2
    assert "noise_std must be finite and >= 0, got -inf" in capsys.readouterr().err
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


# A window past sys.maxsize cannot size the success window's deque.
HUGE_WINDOW = 10**20


@pytest.mark.parametrize("source", ["config-file", "flag"])
def test_window_above_sys_maxsize_exits_2_before_writing(tmp_path, capsys, source):
    out_dir = tmp_path / "out"
    if source == "flag":
        args = [*small_args(out_dir), f"--window={HUGE_WINDOW}"]
    else:
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"window": HUGE_WINDOW}))
        args = ["run", "--config", str(config_file), "--out-dir", str(out_dir)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"window must be <= {sys.maxsize}, got {HUGE_WINDOW}" in err
    assert "Traceback" not in err
    assert not out_dir.exists()
    # The largest window a deque can take is still accepted.
    assert parse_config(None, {"window": sys.maxsize}).window == sys.maxsize


def test_huge_population_exits_2_before_writing(tmp_path, capsys):
    # Without a bound, make_population would allocate until memory ran out.
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"population_size": 10**20}))
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config_file), "--out-dir", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("configuration error: population_size")
    assert not out_dir.exists()
    # The largest population the bound allows is still accepted.
    config = parse_config(None, {"population_size": MAX_POPULATION})
    assert config.population_size == MAX_POPULATION
    with pytest.raises(ConfigurationError):
        parse_config(None, {"population_size": MAX_POPULATION + 1})


def test_huge_runs_exits_2_before_writing(tmp_path, capsys):
    # Without a bound, run_command would write config.json and then list one
    # job per run until memory ran out, so the bound is checked first. The
    # largest batch the bound allows is accepted, not run.
    assert parse_config(None, {"runs": MAX_RUNS}).runs == MAX_RUNS
    with pytest.raises(ConfigurationError):
        parse_config(None, {"runs": MAX_RUNS + 1})
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"runs": 10**20, "num_interactions": 1}))
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config_file), "--out-dir", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("configuration error: runs")
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


def test_unplaceable_random_palette_exits_2_before_writing(tmp_path, capsys):
    config_file = tmp_path / "config.json"
    config_file.write_text(
        json.dumps(
            {"random_palette": True, "palette_size": 60, "num_interactions": 5}
        )
    )
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config_file), "--out-dir", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("configuration error: could not place 60 colours")
    assert not out_dir.exists()


def test_initial_score_that_rounds_to_zero_exits_2_before_writing(
    tmp_path, capsys
):
    config_file = tmp_path / "config.json"
    config_file.write_text(
        json.dumps({"initial_score": 1e-13, "num_interactions": 20})
    )
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config_file), "--out-dir", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("configuration error: initial_score")
    assert not out_dir.exists()


def test_int_initial_score_is_written_as_a_float(tmp_path, capsys):
    # Every score in snapshots.json is spelled as a float, the initial one
    # of a construction that no update has touched yet included; with no
    # inhibition, such constructions survive to the snapshots.
    config_file = tmp_path / "config.json"
    config_file.write_text(
        json.dumps({"initial_score": 1, "inh": 0, "num_interactions": 300})
    )
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config_file), "--out-dir", str(out_dir)])
    assert code == 0
    text = (out_dir / "run-0" / "snapshots.json").read_text()
    scores = re.findall(r'"score": ([^,\n]+)', text)
    assert "1.0" in scores
    assert all("." in score or "e" in score for score in scores)
    # The echoed config keeps the value as given.
    assert json.loads((out_dir / "config.json").read_text())["initial_score"] == 1


def test_out_dir_with_a_null_byte_exits_2_before_writing(
    tmp_path, capsys, monkeypatch
):
    # Only a config file can carry a null byte: neither argv nor the
    # environment can. Path.mkdir would raise a bare ValueError on it.
    monkeypatch.chdir(tmp_path)
    config_file = tmp_path / "config.json"
    config_file.write_text(
        json.dumps({"out_dir": "a\u0000b", "num_interactions": 5})
    )
    assert main(["run", "--config", str(config_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("configuration error: out_dir")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_deeply_nested_config_file_exits_2_before_writing(tmp_path, capsys):
    # json.load raises RecursionError, not JSONDecodeError, on nesting this
    # deep.
    config_file = tmp_path / "config.json"
    config_file.write_text("[" * 100_000 + "]" * 100_000)
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config_file), "--out-dir", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("configuration error: config file")
    assert "not valid JSON" in lines[0]
    assert not out_dir.exists()


# 401 digits: an int past the largest float.
BEYOND_FLOAT = 10**400

BAD_VALUES = {
    # The repr of a value this deep runs to ~1.8 kB of brackets.
    "deep_list": '{"snapshot_points": ' + "[" * 900 + "]" * 900 + "}",
    "long_string": '{"snapshot_agent": "' + "x" * 5000 + '"}',
    "channel_above": '{"palette": [[0, 0, 0], [300, 0, 0]]}',
    "channel_below": '{"palette": [[0, -1, 255]]}',
    # Each range check quotes the value it refuses, a 401-digit int included.
    **{
        key: json.dumps({key: BEYOND_FLOAT})
        for key in ("population_size", "window", "objects_per_scene", "runs")
    },
    **{
        key: json.dumps({key: -BEYOND_FLOAT})
        for key in ("seed", "parallel", "snapshot_agent")
    },
    "palette_size": json.dumps(
        {"random_palette": True, "palette_size": BEYOND_FLOAT}
    ),
    "separation": json.dumps({"min_separation": 10**300}),
}


@pytest.mark.parametrize("text", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_bad_value_exits_2_with_one_short_line_before_writing(
    tmp_path, capsys, text
):
    config_file = tmp_path / "config.json"
    config_file.write_text(text)
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config_file), "--out-dir", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("configuration error: ")
    assert len(lines[0].encode()) < 200
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "key", [key for key, value in DEFAULT_CONFIG.items() if type(value) is float]
)
def test_int_past_float_range_for_a_float_key_exits_2_before_writing(
    tmp_path, capsys, key
):
    # math.isfinite raised OverflowError on such an int, a traceback and exit 1.
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({key: BEYOND_FLOAT}))
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config_file), "--out-dir", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"configuration error: {key} must be ")
    assert len(lines[0].encode()) < 200
    assert not out_dir.exists()
    # The bound is the float range itself.
    with pytest.raises(ConfigurationError):
        parse_config(None, {key: int(sys.float_info.max) + 1})


def test_int_literal_past_the_digit_limit_exits_2_before_writing(
    tmp_path, capsys
):
    # json.load raised int()'s ValueError for the literal, a traceback and
    # exit 1; JSONDecodeError alone was caught.
    config_file = tmp_path / "config.json"
    config_file.write_text('{"seed": 1' + "0" * 5000 + "}")
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config_file), "--out-dir", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("configuration error: config file")
    assert "integer too long" in lines[0]
    assert len(lines[0].encode()) < 200
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


def test_a_game_error_exits_1_with_one_error_line(monkeypatch, tmp_path, capsys):
    def refuse(config):
        raise ProtocolError("pointed at an object outside the scene")

    monkeypatch.setattr(cli, "run_command", refuse)
    assert main(small_args(tmp_path / "out")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: pointed at an object outside the scene"
    ]


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
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


# Top-level modules a serial batch has no use for: the process pool's, and
# the ones dataclasses, the flag parser and html escaping would pull in.
UNUSED_BY_A_BATCH = (
    "argparse", "concurrent", "dataclasses", "html", "inspect", "multiprocessing",
)


def test_serial_batch_imports_no_process_pool(tmp_path):
    # A fresh interpreter, so that no other test's imports count. A batch run
    # as the benchmark runs it, through parse_config and run_command, loads
    # none of UNUSED_BY_A_BATCH. Then the flag parser is loaded, but neither a
    # default batch nor one whose --parallel exceeds its single run forks.
    batches = [
        small_args(tmp_path / "default", runs=2),
        small_args(tmp_path / "one-run", runs=1, parallel=4),
    ]
    overrides = {"out_dir": str(tmp_path / "api"), "runs": 2,
                 "num_interactions": 40}
    script = (
        "import sys\n"
        "from colourgame import cli\n"
        "def loaded(tops):\n"
        "    print('loaded:', sorted(name for name in sys.modules\n"
        "                            if name.split('.')[0] in tops))\n"
        f"assert cli.run_command(cli.parse_config(None, {overrides!r})) == 0\n"
        f"loaded({UNUSED_BY_A_BATCH!r})\n"
        f"for argv in {batches!r}:\n"
        "    assert cli.main(argv) == 0\n"
        "loaded(('concurrent', 'multiprocessing'))\n"
    )
    src_dir = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src_dir}
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    reports = [
        line for line in proc.stdout.splitlines() if line.startswith("loaded:")
    ]
    assert reports == ["loaded: []", "loaded: []"]
    for batch in ("api", "default", "one-run"):
        assert (tmp_path / batch / "aggregate.csv").is_file()


BAD_SNAPSHOT_AT = "snapshot_points must be a list of integers, got '1,x'"


@pytest.mark.parametrize(
    ("flag", "value", "message"),
    [
        pytest.param("--snapshot-at", "1,x", BAD_SNAPSHOT_AT, id="snapshot_points"),
        pytest.param(
            "--snapshot-agent", "foo",
            "snapshot_agent must be 'all' or an agent index, got 'foo'",
            id="snapshot_agent",
        ),
    ],
)
def test_bad_snapshot_flag_exits_2_with_its_message(
    tmp_path, capsys, flag, value, message
):
    assert main(["run", "--out-dir", str(tmp_path / "out"), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"configuration error: {message}"]
    assert not (tmp_path / "out").exists()


def test_python_m_colourgame_runs_and_refuses_a_bad_flag(tmp_path, monkeypatch):
    # `python -m colourgame` runs the package's __main__.py, in a fresh
    # interpreter.
    monkeypatch.delenv(OUT_DIR_ENV_VAR, raising=False)
    src_dir = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src_dir}

    def colourgame(*args):
        return subprocess.run(
            [sys.executable, "-m", "colourgame", "run", *args],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )

    proc = colourgame("--num-interactions", "20", "--out-dir", "out")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "run-0" / "series.csv").is_file()
    assert (tmp_path / "out" / "aggregate.csv").is_file()
    proc = colourgame("--snapshot-at", "1,x", "--out-dir", "bad")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"configuration error: {BAD_SNAPSHOT_AT}"]
    assert not (tmp_path / "bad").exists()


# More digits than int() reads from a string by default (4,300).
TOO_MANY_DIGITS = "1" + "0" * 5000


@pytest.mark.parametrize(
    ("flag", "value", "message"),
    [
        ("--seed", TOO_MANY_DIGITS, "seed must be an integer, got '1000"),
        ("--window", TOO_MANY_DIGITS, "window must be an integer, got '1000"),
        ("--runs", "two", "runs must be an integer, got 'two'"),
        ("--noise-std", "loud", "noise_std must be a number, got 'loud'"),
    ],
)
def test_unreadable_number_flag_exits_2_with_one_short_line(
    tmp_path, capsys, flag, value, message
):
    # argparse printed its usage and the whole value: ~5.7 kB for 5,001 digits.
    out_dir = tmp_path / "out"
    assert main(["run", "--out-dir", str(out_dir), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("configuration error: " + message)
    assert len(lines[0].encode()) < 200
    assert not out_dir.exists()


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


def test_a_batch_holds_no_run_series(tmp_path, capsys):
    # Each run's series is folded into the aggregate as the run ends and then
    # dropped, so ten times the runs peak at the same traced memory, give or
    # take the per-run job and summary line. Holding every 150-point series
    # to the end would add ~20 kB a run.
    def peak(runs: int) -> int:
        config = parse_config(
            None,
            {
                "runs": runs,
                "num_interactions": 150,
                "snapshot_points": [],
                "out_dir": str(tmp_path / f"runs-{runs}"),
            },
        )
        tracemalloc.start()
        try:
            assert run_command(config) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak(4), peak(40)
    assert len(capsys.readouterr().out.splitlines()) == 44
    assert many - few < 100_000, (few, many)
