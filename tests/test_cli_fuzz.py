"""Seeded fuzzing of `colourgame run`, driven in process through `cli.main`.

Each case writes a generated config file, builds a `run` command line around
it and calls `main`. The case must end with exit 0, or with exit 2, exactly
one `configuration error:` line on stderr and nothing written: bad input is
refused before the batch writes its first file. A case never exits 1 and
never raises.

A case starts from a small valid config and applies mutations of one kind
or several: wrong JSON types, NaN and infinities, huge and negative ints,
empty, oversized and unplaceable palettes, unknown keys, bad UTF-8, null
bytes, deep nesting, and flags in both the `--flag value` and `--flag=value`
forms. Fixed cases give each float key an int past the float range, the
file an int literal too long for int() to read, and each flag that reads
its text (all but `--out-dir`) such digits and a word. Accepted cases stay cheap: at most 4 games and 2 runs.
No mutation makes a valid `num_interactions` or `parallel` above that, so no
process pool starts. The one error line is short, whatever the value.

Every wrong-typed value the fuzzer draws is also given to each game key
through both doors, the config reader and `ExperimentParams.validate`, which
must agree.
"""
import json
import random
import sys

import pytest

from colourgame import cli
from colourgame.cli import GAME_DEFAULTS, MAX_RUNS, OUT_DIR_ENV_VAR, main, parse_config
from colourgame.engine import MAX_POPULATION, ExperimentParams
from colourgame.errors import ConfigurationError, quoted

SEED = 17
CASES_PER_KIND = 12
MIXED_CASES = 60

INT_KEYS = [k for k, v in cli.DEFAULT_CONFIG.items() if type(v) is int]
FLOAT_KEYS = [k for k, v in cli.DEFAULT_CONFIG.items() if type(v) is float]
# Keys whose valid values are unbounded above but cost time or processes:
# they get only small or negative values.
COSTLY_KEYS = {"num_interactions", "parallel"}
HUGE_INTS = [10**20, 2**63, sys.maxsize + 1]
JUST_ABOVE = {"population_size": MAX_POPULATION + 1, "runs": MAX_RUNS + 1}
NEGATIVE_INTS = [-1, -(10**20), -(2**63)]
# An int past the largest float, which a float key must refuse as it refuses
# inf; and more digits than int() converts from a string by default.
BEYOND_FLOAT = 10**400
TOO_MANY_DIGITS = 5000
# Values of a JSON type some key does not take.
WRONG_TYPES = ["3", [1], {"a": 1}, None, True, 1.5, [[1, 2, 3]]]


def _wrong_type(rng, config):
    key = rng.choice(sorted(cli.DEFAULT_CONFIG))
    config[key] = rng.choice(WRONG_TYPES)


def _non_finite(rng, config):
    key = rng.choice(FLOAT_KEYS + INT_KEYS)
    config[key] = rng.choice([float("nan"), float("inf"), float("-inf")])


def _huge_or_negative_int(rng, config):
    key = rng.choice(INT_KEYS)
    values = list(NEGATIVE_INTS)
    if key not in COSTLY_KEYS:
        values += HUGE_INTS + [JUST_ABOVE.get(key, 10**30)]
    config[key] = rng.choice(values)
    if rng.random() < 0.3:
        config["snapshot_points"] = [rng.choice(HUGE_INTS + NEGATIVE_INTS + [0])]


def _palette(rng, config):
    choice = rng.randrange(5)
    if choice == 0:
        config["palette"] = []
    elif choice == 1:
        config["palette"] = [
            [rng.randrange(256) for _ in range(3)] for _ in range(100)
        ]
    elif choice == 2:
        bad = [[256, 0, 0], [-1, 0, 0], [1, 2], [1, 2, 3, 4]]
        config["palette"] = [rng.choice(bad)]
    elif choice == 3:
        config.update(random_palette=True, palette_size=rng.choice([40, 60, 200]))
    else:
        config.update(random_palette=True, palette_size=rng.choice([3, 4]))


def _unknown_key(rng, config):
    config[rng.choice(["populaton_size", "Runs", "", "été", "seed "])] = 1


def _bad_utf8(rng, config):
    text = json.dumps(config).encode()
    return rng.choice([b"\xff\xfe" + text, text.replace(b"{", b'{"\xc3\x28": 1, ', 1)])


def _null_bytes(rng, config):
    choice = rng.randrange(3)
    if choice == 0:
        config["out_dir"] = "a\u0000b"
    elif choice == 1:
        config["\u0000"] = 1
    else:
        return json.dumps(config).encode().replace(b"{", b"{\x00", 1)


def _deep_nesting(rng, config):
    depth = rng.choice([100, 900, 100_000])
    nested = "[" * depth + "]" * depth
    key = rng.choice(["snapshot_points", "palette", None])
    if key is None:
        return nested.encode()
    text = json.dumps(config)
    return text.replace("{", '{"%s": %s, ' % (key, nested), 1).encode()


def _config_source(rng, config):
    # Not a JSON object, or no readable file at all.
    return rng.choice([b"[]", b"3", b"null", b"", b"{", "missing", "directory"])


MUTATIONS = [
    _wrong_type,
    _non_finite,
    _huge_or_negative_int,
    _palette,
    _unknown_key,
    _bad_utf8,
    _null_bytes,
    _deep_nesting,
    _config_source,
]

FLAG_VALUES = {
    "population_size": ["1", "2", "7", "-3", str(10**20), str(MAX_POPULATION + 1)],
    "objects_per_scene": ["0", "2", "6", "7", str(10**20)],
    "num_interactions": ["-1", "0", "3"],
    "runs": ["-1", "0", "2", str(10**20), str(MAX_RUNS + 1)],
    "seed": ["-1", "0", str(10**20)],
    "noise_std": ["nan", "inf", "-inf", "-0.5", "0", "1e308"],
    "initial_score": ["nan", "0", "1", "1e-13", "1.5", "-inf"],
    "inc": ["nan", "-inf", "0.1", "1e308"],
    "inh": ["nan", "inf", "-0.1", "0"],
    "dec": ["nan", "-1", "0.3"],
    "shift_rate": ["nan", "-0.1", "1", "1.5"],
    "window": ["0", "-1", "1", str(sys.maxsize), str(10**20)],
    "snapshot_points": ["", "0", "-3", "1,2", str(10**20)],
    "snapshot_agent": ["all", "0", "-1", "99"],
    "out_dir": ["o2", "nested/out"],
    "parallel": ["-1", "0", "1"],
}


def _flags(rng):
    argv = []
    for _ in range(rng.randrange(3)):
        key = rng.choice(sorted(FLAG_VALUES))
        flag = cli._FLAGS[key].get("flag", "--" + key.replace("_", "-"))
        value = rng.choice(FLAG_VALUES[key])
        # argparse reads a value that starts with "-" as an option, unless it
        # is a plain number; the `=` form always carries it.
        if value.startswith("-") or rng.random() < 0.5:
            argv.append(f"{flag}={value}")
        else:
            argv.extend([flag, value])
    return argv


def _small_config(rng):
    return {
        "num_interactions": rng.randrange(5),
        "runs": rng.randint(1, 2),
        "parallel": 1,
        "population_size": rng.randint(2, 6),
        "snapshot_points": [1, 3],
    }


def _case(rng, mutations):
    """A config file's bytes (or "missing"/"directory") and the flags."""
    config = _small_config(rng)
    source = None
    for mutate in mutations:
        replaced = mutate(rng, config)
        if replaced is not None:
            source = replaced
    if source is None:
        source = json.dumps(config).encode()
    return source, _flags(rng)


def _cases():
    rng = random.Random(SEED)
    # Each int key alone at a huge value first, so that a missing upper
    # bound shows whatever the draws below reach; then each float key at an
    # int no float can hold, and an int literal longer than int() reads.
    cases = [
        (json.dumps({**_small_config(rng), key: 10**20}).encode(), [])
        for key in INT_KEYS
        if key not in COSTLY_KEYS
    ]
    cases += [
        (json.dumps({**_small_config(rng), key: BEYOND_FLOAT}).encode(), [])
        for key in FLOAT_KEYS
    ]
    cases.append((b'{"seed": 1' + b"0" * TOO_MANY_DIGITS + b"}", []))
    # The same digits, and a word, as the value of each flag but out_dir,
    # which takes any text.
    for key in sorted(cli._FLAGS):
        if key != "out_dir":
            flag = cli._FLAGS[key].get("flag", "--" + key.replace("_", "-"))
            for text in ("1" + "0" * TOO_MANY_DIGITS, "x"):
                cases.append((b'{"num_interactions": 2}', [f"{flag}={text}"]))
    for mutate in MUTATIONS:
        cases.extend(_case(rng, [mutate]) for _ in range(CASES_PER_KIND))
    for _ in range(MIXED_CASES):
        cases.append(_case(rng, rng.sample(MUTATIONS, rng.randint(0, 3))))
    return cases


def test_fuzzed_run_exits_0_or_2_and_writes_nothing_on_2(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.delenv(OUT_DIR_ENV_VAR, raising=False)
    exits = []
    for index, (source, flags) in enumerate(_cases()):
        case_dir = tmp_path / f"case-{index}"
        case_dir.mkdir()
        monkeypatch.chdir(case_dir)
        config_path = case_dir / "input.json"
        if source == "directory":
            config_path.mkdir()
        elif source != "missing":
            config_path.write_bytes(source)
        argv = ["run", "--config", str(config_path), *flags]
        what = f"case {index}: argv={argv!r} config={source[:300]!r}"

        code = main(argv)

        captured = capsys.readouterr()
        exits.append(code)
        written = sorted(p.name for p in case_dir.iterdir())
        if code == 0:
            assert written != [] and written != ["input.json"], what
            continue
        assert code == 2, what
        lines = captured.err.splitlines()
        assert len(lines) == 1, what + f" stderr={captured.err!r}"
        assert lines[0].startswith("configuration error: "), what
        assert len(lines[0].encode()) < 300, what
        assert captured.out == "", what
        assert written == ([] if source == "missing" else ["input.json"]), what
    # The generator must reach both outcomes, or it tests nothing.
    assert exits.count(0) >= 10 and exits.count(2) >= 100


def _as_python(value):
    """A config value as a Python caller gives it: tuples for lists."""
    return tuple(map(_as_python, value)) if isinstance(value, list) else value


@pytest.mark.parametrize("key", sorted(GAME_DEFAULTS))
def test_validate_refuses_what_the_config_reader_refuses(key):
    # Refused by both doors with one message, the quoted value aside, or
    # accepted by both. Only the palette's words may differ: its config rule
    # takes integer channels alone.
    for value in WRONG_TYPES:
        python_value = _as_python(value)
        params = ExperimentParams(**{key: python_value})
        try:
            parse_config(None, {key: value})
        except ConfigurationError as exc:
            with pytest.raises(ConfigurationError) as err:
                params.validate()
            if key != "palette":
                expected = str(exc).replace(quoted(value), quoted(python_value))
                assert str(err.value) == expected, value
        else:
            params.validate()
