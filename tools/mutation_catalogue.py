"""Replay the mutation catalogue: every planted fault must fail its tests.

    python tools/mutation_catalogue.py               # every mutant
    python tools/mutation_catalogue.py NAME [NAME]   # the named mutants
    python tools/mutation_catalogue.py --list        # names and reasons

Several parts of the package are right only because some test catches the
faults one could plant in them: the form notes behind the series monitor,
the kind of value a run makes, the exact-sum aggregate, the inventory's
edit count and identity checks, the exact standard deviation, the colour
clamps, the config and batch checks, the unrolled random draws.
Each entry of MUTANTS names a file, an exact text in it, the text to put in
its place and the tests that must catch the change. For each mutant the
script copies `src/`, `tests/` and `pyproject.toml` to a temporary
directory, makes the edit there, runs `python -m pytest -x -q` on the
mutant's tests and requires them to fail. A mutant whose text does not
occur exactly once in its file is an error, so an entry that no longer
matches the code is noticed, not skipped. The checkout itself is never
edited. Exit status 0 means every mutant selected was caught.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
# pytest's exit status when tests ran and some failed; a collection error or
# an empty selection exits otherwise and catches nothing.
TESTS_FAILED = 1


class Mutant(NamedTuple):
    name: str
    why: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


LEXICON = "src/colourgame/lexicon.py"
MONITORS = "src/colourgame/monitors.py"
CLI = "src/colourgame/cli.py"
ENGINE = "src/colourgame/engine.py"
WORLD = "src/colourgame/world.py"
ERRORS = "src/colourgame/errors.py"
CONCEPTUAL = "src/colourgame/conceptual.py"
PARITY_TEST = (
    "tests/test_cli_fuzz.py::"
    "test_validate_refuses_what_the_config_reader_refuses"
)
DRAW_TEST = (
    "tests/test_world.py::"
    "test_draw_sample_draws_what_sample_draws"
)
DOOR_TEST = (
    "tests/test_engine.py::"
    "test_each_door_refuses_a_value_with_the_words_of_validate"
)
FOLD_TEST = (
    "tests/test_monitors.py::"
    "test_aggregate_runs_folds_runs_handed_over_one_at_a_time"
)

MUTANTS = (
    Mutant(
        "note-not-netted",
        "a form gained after it was lost keeps a +1 note, so it is counted twice",
        LEXICON,
        "            if not self.form_changes.pop(form, 0):\n"
        "                self.form_changes[form] = 1\n",
        "            self.form_changes[form] = 1\n",
        (
            "tests/test_monitors.py::"
            "test_a_form_lost_and_regained_between_rows_leaves_no_note",
        ),
    ),
    Mutant(
        "first-count-reads-notes",
        "a new monitor counts the forms held but keeps the notes left since "
        "another monitor's last drain, so its first recount counts them again",
        MONITORS,
        "            inventory.form_changes.clear()\n",
        "",
        (
            "tests/test_monitors.py::"
            "test_a_second_monitor_over_a_counted_population_equals_the_oracle",
        ),
    ),
    Mutant(
        "fold-skips-a-change",
        "the last change of each run's column is never folded",
        MONITORS,
        "            for k, (num, den) in zip(rows, ratios):\n",
        "            for k, (num, den) in zip(rows[:-1], ratios):\n",
        ("tests/test_monitors.py::test_aggregate_runs_matches_the_dict_oracle",),
    ),
    Mutant(
        "sum-down-reads-totals-only",
        "a row whose total stays put keeps the previous row's deviation even "
        "though its sum of squares moved",
        MONITORS,
        "            if d_total or d_square or stats is None:\n",
        "            if d_total or stats is None:\n",
        (FOLD_TEST,),
    ),
    Mutant(
        "batch-holds-every-run",
        "run_command keeps every run's series until the aggregate is written",
        CLI,
        "export_aggregate(finished(_execute_run(*job) for job in jobs), out_dir)",
        "export_aggregate(list(finished(_execute_run(*job) for job in jobs)), out_dir)",
        ("tests/test_cli.py::test_a_batch_holds_no_run_series",),
    ),
    Mutant(
        "remove-without-edit",
        "_remove does not bump edits, so the monitor skips a pruned agent",
        LEXICON,
        "        self.size -= 1\n        self.edits += 1\n",
        "        self.size -= 1\n",
        ("tests/test_lexicon.py", "tests/test_monitors.py"),
    ),
    Mutant(
        "add-without-edit",
        "add_construction does not bump edits, so the monitor skips an agent "
        "that grew",
        LEXICON,
        "        self.size += 1\n        self.edits += 1\n",
        "        self.size += 1\n",
        ("tests/test_lexicon.py", "tests/test_monitors.py"),
    ),
    Mutant(
        "window-by-length-only",
        "the windowed success divides by the window's length, not by the "
        "games in it, so it reads low until the window fills",
        MONITORS,
        "    games = len(monitor._recent)\n",
        "    games = monitor._recent.maxlen\n",
        ("tests/test_monitors.py",),
    ),
    Mutant(
        "zero-success-signed",
        "a windowed success of zero comes out as -0.0, which series.csv "
        "prints as -0.000000",
        MONITORS,
        "    success = monitor._successes / games if games else 0.0\n",
        "    success = monitor._successes / games or -0.0 if games else 0.0\n",
        (
            "tests/test_monitors.py::"
            "test_a_run_makes_only_the_values_the_exporters_take",
        ),
    ),
    Mutant(
        "one-run-folded",
        "export_aggregate folds a single run instead of writing it from its "
        "points: the same bytes at several times the cost",
        MONITORS,
        "    one_run = len(head) == 1\n",
        "    one_run = False\n",
        (
            "tests/test_monitors.py::"
            "test_a_single_run_aggregate_is_written_without_folding",
        ),
    ),
    Mutant(
        "read-ahead-runs-held",
        "export_aggregate keeps the two runs it read ahead until the whole "
        "batch has been folded",
        MONITORS,
        "    del head\n",
        "",
        (
            "tests/test_monitors.py::"
            "test_export_aggregate_keeps_no_run_it_has_folded",
        ),
    ),
    Mutant(
        "root-without-sticky-bit",
        "_deviation truncates an inexact root, so it can round down where "
        "the exact root rounds up",
        MONITORS,
        "    root |= root * root * bottom != top\n",
        "",
        (
            "tests/test_monitors.py::"
            "test_stdev_is_the_correctly_rounded_root_of_a_float_variance",
        ),
    ),
    Mutant(
        "clamp-keeps-negative-zero",
        "world.clipped passes -0.0 through, where min(255.0, max(0.0, v)) "
        "gives 0.0",
        WORLD,
        "        r if 0.0 < r < 255.0 else",
        "        r if 0.0 <= r < 255.0 else",
        ("tests/test_world.py::test_colour_clipped_clamps_into_range",),
    ),
    Mutant(
        "int-field-takes-float",
        "errors.is_int takes a float, so validate lets one into an int field, "
        "where it rounds or raises a bare TypeError in play",
        ERRORS,
        "    return isinstance(value, int) and not isinstance(value, bool)\n",
        "    return isinstance(value, (int, float)) and not isinstance(value, bool)\n",
        (
            "tests/test_engine.py::"
            "test_params_validation_rejects_out_of_range_values",
        ),
    ),
    Mutant(
        "construction-equal-by-value",
        "a construction equals any with the same fields, so the inventory's "
        "`in` checks let punish move a field-equal foreign construction",
        LEXICON,
        "        self.score = score\n",
        "        self.score = score\n\n"
        "    def __eq__(self, other):\n"
        "        return (self.form, self.category_id, self.score) == (\n"
        "            other.form, other.category_id, other.score\n"
        "        )\n",
        (
            "tests/test_lexicon.py::"
            "test_punish_rejects_a_field_equal_foreign_construction",
        ),
    ),
    Mutant(
        "update-takes-nan",
        "punish refuses only a negative step, so a NaN one leaves a score at "
        "NaN that is never pruned",
        LEXICON,
        "        if not 0.0 <= dec <= FLOAT_MAX:\n",
        "        if dec < 0:\n",
        (
            "tests/test_lexicon.py::"
            "test_updates_refuse_a_negative_or_non_finite_step",
        ),
    ),
    Mutant(
        "colour-takes-bool",
        "Colour takes a bool channel, so validate lets a palette through that "
        "the config reader refuses",
        WORLD,
        "        if isinstance(value, bool) or not 0.0 <= value <= 255.0:\n",
        "        if not 0.0 <= value <= 255.0:\n",
        ("tests/test_world.py::test_colour_rejects_out_of_range_channels",),
    ),
    Mutant(
        "random-palette-takes-bool",
        "random_palette takes a bool size, which places one colour",
        WORLD,
        '    AT_LEAST_ONE.require("palette_size", size)\n',
        '    AT_LEAST_ONE.require("palette_size", +size)\n',
        (
            "tests/test_world.py::"
            "test_random_palette_refuses_a_size_that_is_not_a_positive_int",
        ),
    ),
    Mutant(
        "separation-takes-nan",
        "the finite rule refuses only a negative value, so a NaN separation "
        "lets two identical colours into a world",
        ERRORS,
        "lambda v: 0.0 <= v <= FLOAT_MAX, float)",
        "lambda v: not v < 0, float)",
        (
            "tests/test_world.py::"
            "test_a_separation_that_is_negative_or_not_finite_is_refused",
        ),
    ),
    Mutant(
        "world-takes-bool",
        "World takes a bool scene size, which plays one-object scenes",
        WORLD,
        '        within(1, len(object_ids)).require("objects_per_scene", '
        "objects_per_scene)\n",
        '        within(1, len(object_ids)).require("objects_per_scene", '
        "+objects_per_scene)\n",
        ("tests/test_world.py::test_make_world_rejects_bad_scene_size",),
    ),
    Mutant(
        "range-rule-skips-type",
        "a range rule checks no type, so a door that calls it alone takes a "
        "bool as 0 or 1 and raises a bare TypeError on a string",
        ERRORS,
        "        if self.kind is not None:\n"
        "            TYPE_RULES[self.kind].require(name, value)\n",
        "",
        (DOOR_TEST,),
    ),
    Mutant(
        "palette-may-be-empty",
        "the palette rule passes an empty palette, so every door refuses it "
        "by the scene size's range [1, 0], not by the palette",
        ERRORS,
        'NON_EMPTY = Rule("non-empty", bool)',
        'NON_EMPTY = Rule("non-empty", lambda v: True)',
        (DOOR_TEST,),
    ),
    Mutant(
        "perceive-takes-nan-noise",
        "perceive refuses only a negative noise, so a NaN one reads every "
        "channel as 0 and an infinite one saturates them",
        WORLD,
        "    if not 0.0 <= noise_std <= FLOAT_MAX:\n",
        "    if noise_std < 0:\n",
        ("tests/test_world.py::test_perceive_rejects_negative_noise",),
    ),
    Mutant(
        "shift-refuses-extreme-rates",
        "shift_prototype refuses the rates 0 and 1, which validate takes, so "
        "a run at either raises in its first game that aligns",
        CONCEPTUAL,
        "        if not 0.0 <= rate <= 1.0:\n",
        "        if not 0.0 < rate < 1.0:\n",
        ("tests/test_conceptual.py::test_shift_prototype_rate_extremes",),
    ),
    Mutant(
        "initial-score-rounds-to-zero",
        "add_construction takes a positive score that rounds to 0, so the "
        "construction is stored at 0.0, the score at which one is pruned",
        LEXICON,
        "        if not (0.0 < initial_score <= 1.0 and score > 0.0):\n",
        "        if not 0.0 < initial_score <= 1.0:\n",
        (
            "tests/test_lexicon.py::"
            "test_add_construction_rejects_duplicates_and_bad_scores",
        ),
    ),
    Mutant(
        "game-params-converts",
        "_game_params hands the engine a tuple for a config's list, so an "
        "error quotes a value the config file does not hold",
        CLI,
        "    return ExperimentParams(**{key: getattr(config, key) "
        "for key in GAME_DEFAULTS})\n",
        "    values = {key: getattr(config, key) for key in GAME_DEFAULTS}\n"
        "    values[\"snapshot_points\"] = tuple(config.snapshot_points)\n"
        "    return ExperimentParams(**values)\n",
        (
            "tests/test_cli.py::"
            "test_a_bad_config_value_is_quoted_as_the_config_holds_it",
        ),
    ),
    Mutant(
        "runs-unbounded",
        "the run count has no upper bound, so a mistyped one lists a job per "
        "run until memory runs out",
        CLI,
        '"runs": within(1, MAX_RUNS),',
        '"runs": AT_LEAST_ONE,',
        ("tests/test_cli.py::test_huge_runs_exits_2_before_writing",),
    ),
    Mutant(
        "out-dir-takes-null-byte",
        "out_dir takes a null byte, on which Path.mkdir raises a bare "
        "ValueError in place of exit status 2",
        CLI,
        'lambda v: "\\0" not in v',
        "lambda v: True",
        (
            "tests/test_cli.py::"
            "test_out_dir_with_a_null_byte_exits_2_before_writing",
        ),
    ),
    Mutant(
        "precheck-checks-one-seed",
        "run_command's pre-check starts every run at the batch's seed, so a "
        "later run whose palette cannot be placed fails after earlier runs "
        "are written",
        CLI,
        "            start_run(params, config.seed + i)\n",
        "            start_run(params, config.seed)\n",
        (
            "tests/test_cli.py::"
            "test_a_later_run_that_cannot_place_its_palette_exits_2_before_writing",
        ),
    ),
    Mutant(
        "validate-skips-types",
        "validate checks no field's type, so a wrong-typed value reaches a "
        "range check and raises a bare TypeError, or plays",
        ENGINE,
        "        for name, rule in FIELD_TYPES.items():\n"
        "            rule.require(name, getattr(self, name))\n",
        "",
        (PARITY_TEST,),
    ),
    Mutant(
        "sample-without-pool-swap",
        "draw_sample leaves a drawn entry in its pool, so it can be drawn again",
        WORLD,
        "            pool[j] = pool[m - 1]\n",
        "",
        (DRAW_TEST,),
    ),
    Mutant(
        "sample-set-takes-repeats",
        "draw_sample's set branch redraws only out-of-range bits, so an index "
        "can be drawn twice",
        WORLD,
        "        while j >= n or j in selected:\n",
        "        while j >= n:\n",
        (DRAW_TEST,),
    ),
    Mutant(
        "pool-draw-redraws-once",
        "draw_sample's pool branch redraws out-of-range bits once, not until "
        "they fit, so it can pick an entry already drawn or one past the pool",
        WORLD,
        "            while j >= m:\n",
        "            if j >= m:\n",
        (DRAW_TEST,),
    ),
    Mutant(
        "perceive-drops-spare",
        "perceive does not write its spare Gaussian back to the generator, so "
        "the next draw differs from random.gauss's",
        WORLD,
        "    rng.gauss_next = spare\n",
        "",
        (
            "tests/test_world.py::test_perceive_draws_exactly_what_gauss_draws",
        ),
    ),
    Mutant(
        "json-bool-as-int",
        "snapshots.json spells a bool prototype channel as 1 or 0, where "
        "json.dump writes true or false",
        MONITORS,
        "    if value is True or value is False:\n"
        '        return "true" if value else "false"\n',
        "",
        (
            "tests/test_monitors.py::"
            "test_snapshot_writer_matches_json_dump_byte_for_byte",
        ),
    ),
)


def apply(mutant: Mutant, tree: Path) -> None:
    """Make the mutant's edit in `tree`; its text must occur exactly once."""
    path = tree / mutant.path
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(
            f"its text occurs {found} times in {mutant.path}, not once"
        )
    path.write_text(text.replace(mutant.old, mutant.new))


def caught(mutant: Mutant) -> tuple[bool, str]:
    """Run the mutant's tests on a mutated copy; (caught, pytest's tail)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = Path(scratch)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(
                    source, tree / name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
                )
            else:
                shutil.copy2(source, tree / name)
        apply(mutant, tree)
        env = {
            k: v for k, v in os.environ.items()
            if k not in ("PYTHONPATH", "NAMING_GAME_OUT_DIR")
        }
        done = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-x", "-q",
                "-p", "no:cacheprovider", *mutant.tests,
            ],
            cwd=tree, env={**env, "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True, text=True, timeout=600,
        )
    tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
    return done.returncode == TESTS_FAILED, " ".join(tail)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default all)")
    parser.add_argument("--list", action="store_true", help="list the mutants")
    args = parser.parse_args(argv)
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    if args.list:
        for mutant in MUTANTS:
            print(f"{mutant.name}: {mutant.why}")
        return 0
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"no mutant named {', '.join(unknown)}")
    failures = 0
    for mutant in [by_name[name] for name in args.names] or MUTANTS:
        try:
            ok, tail = caught(mutant)
        except ValueError as exc:
            ok, tail = False, f"STALE: {exc}"
        failures += not ok
        print(f"{'caught' if ok else 'NOT CAUGHT'} {mutant.name}: {tail}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
