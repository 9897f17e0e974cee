import json

import pytest

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


def test_parallel_runs_match_sequential_output(tmp_path, capsys):
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main(small_args(seq, runs=3)) == 0
    assert main(small_args(par, runs=3, parallel=3)) == 0
    capsys.readouterr()
    for i in range(3):
        assert (seq / f"run-{i}" / "series.csv").read_bytes() == (
            par / f"run-{i}" / "series.csv"
        ).read_bytes()
    assert (seq / "aggregate.csv").read_bytes() == (par / "aggregate.csv").read_bytes()


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
