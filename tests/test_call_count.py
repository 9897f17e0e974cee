"""`tools/call_count.py` counts the Python calls of two fixed runs exactly,
and the counts are pinned here: the default game (pop 5, 1,000 games) and
pop 50 x 2,000 games, each at seed 0.

There is one table for CPython 3.10 and 3.11 and one for 3.12 onwards, which
inlines list and dict comprehensions. A change that moves a count pastes the
script's new output (all but its first line) over the table, on both sides of
3.12, and names in `CHANGES.md` each function whose count moved and why."""
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "call_count.py"
CONFIGS = {
    "default": [],
    "pop50": ["--population-size", "50", "--num-interactions", "2000"],
}

DEFAULT_TO_3_11 = """\
    49010    49.010  total
     7840     7.840  world.clipped
     4000     4.000  embodiment.embody
     4000     4.000  embodiment.observe_world
     2778     2.778  conceptual.get
     2642     2.642  lexicon._rounded
     2036     2.036  embodiment.point
     2000     2.000  embodiment.hear
     2000     2.000  embodiment.speak
     2000     2.000  engine.align
     2000     2.000  world.draw_sample
     2000     2.000  world.perceive
     1840     1.840  conceptual.shift_prototype
     1840     1.840  embodiment.nod
     1840     1.840  lexicon.reward_and_inhibit
     1092     1.092  conceptual.conceptualise
     1062     1.062  engine._categorise
     1000     1.000  engine.run_interaction
     1000     1.000  lexicon.comprehend
     1000     1.000  lexicon.produce
     1000     1.000  monitors.compute_series_point
     1000     1.000  monitors.observe
     1000     1.000  world.sample_scene
      938     0.938  conceptual.interpret
      202     0.202  monitors.<lambda>
      118     0.118  monitors.<listcomp>
       98     0.098  lexicon.punish
       85     0.085  lexicon.__init__
       82     0.082  lexicon._unindex
       80     0.080  lexicon.add_construction
       72     0.072  lexicon.<genexpr>
       57     0.057  errors.require
       41     0.041  lexicon._remove
       40     0.040  lexicon.<listcomp>
       34     0.034  errors.<lambda>
       34     0.034  errors.is_int
       30     0.030  conceptual.invent_category
       25     0.025  monitors.take_snapshot
       18     0.018  lexicon.invent_word_form
       17     0.017  engine._range_rules
       12     0.012  world.Colour
        8     0.008  engine.<lambda>
        8     0.008  errors.__init__
        6     0.006  engine.<genexpr>
        5     0.005  conceptual.__init__
        5     0.005  engine.__init__
        3     0.003  errors.quoted
        3     0.003  errors.repr_int
        3     0.003  errors.within
        2     0.002  embodiment.__init__
        2     0.002  embodiment.make_body
        2     0.002  world.check_separation
        1     0.001  engine.<listcomp>
        1     0.001  engine.make_population
        1     0.001  engine.run_experiment
        1     0.001  engine.start_run
        1     0.001  engine.validate
        1     0.001  monitors.<dictcomp>
        1     0.001  monitors.__init__
        1     0.001  world.<dictcomp>
        1     0.001  world.__init__
        1     0.001  world.make_world
"""

POP50_TO_3_11 = """\
    89217    44.608  total
    12554     6.277  world.clipped
     8000     4.000  embodiment.embody
     8000     4.000  embodiment.observe_world
     5171     2.586  lexicon._rounded
     4108     2.054  embodiment.point
     4000     2.000  embodiment.hear
     4000     2.000  embodiment.speak
     4000     2.000  engine.align
     4000     2.000  world.draw_sample
     4000     2.000  world.perceive
     3968     1.984  conceptual.conceptualise
     3669     1.835  engine._categorise
     2000     1.000  engine.run_interaction
     2000     1.000  lexicon.comprehend
     2000     1.000  lexicon.produce
     2000     1.000  monitors.compute_series_point
     2000     1.000  monitors.observe
     2000     1.000  world.sample_scene
     1905     0.953  lexicon.__init__
     1855     0.927  lexicon.add_construction
     1777     0.888  lexicon.punish
      885     0.443  conceptual.get
      744     0.372  lexicon.<genexpr>
      629     0.315  monitors.<lambda>
      554     0.277  conceptual.shift_prototype
      554     0.277  embodiment.nod
      554     0.277  lexicon.reward_and_inhibit
      439     0.220  monitors.<listcomp>
      331     0.166  conceptual.interpret
      299     0.149  conceptual.invent_category
      274     0.137  lexicon._unindex
      250     0.125  monitors.take_snapshot
      186     0.093  lexicon.invent_word_form
      137     0.069  lexicon._remove
       73     0.036  lexicon.<listcomp>
       57     0.029  errors.require
       50     0.025  conceptual.__init__
       50     0.025  engine.__init__
       34     0.017  errors.<lambda>
       34     0.017  errors.is_int
       17     0.009  engine._range_rules
       12     0.006  world.Colour
        8     0.004  engine.<lambda>
        8     0.004  errors.__init__
        6     0.003  engine.<genexpr>
        3     0.002  errors.quoted
        3     0.002  errors.repr_int
        3     0.002  errors.within
        2     0.001  embodiment.__init__
        2     0.001  embodiment.make_body
        2     0.001  world.check_separation
        1     0.001  engine.<listcomp>
        1     0.001  engine.make_population
        1     0.001  engine.run_experiment
        1     0.001  engine.start_run
        1     0.001  engine.validate
        1     0.001  monitors.<dictcomp>
        1     0.001  monitors.__init__
        1     0.001  world.<dictcomp>
        1     0.001  world.__init__
        1     0.001  world.make_world
"""

DEFAULT_FROM_3_12 = """\
    48849    48.849  total
     7840     7.840  world.clipped
     4000     4.000  embodiment.embody
     4000     4.000  embodiment.observe_world
     2778     2.778  conceptual.get
     2642     2.642  lexicon._rounded
     2036     2.036  embodiment.point
     2000     2.000  embodiment.hear
     2000     2.000  embodiment.speak
     2000     2.000  engine.align
     2000     2.000  world.draw_sample
     2000     2.000  world.perceive
     1840     1.840  conceptual.shift_prototype
     1840     1.840  embodiment.nod
     1840     1.840  lexicon.reward_and_inhibit
     1092     1.092  conceptual.conceptualise
     1062     1.062  engine._categorise
     1000     1.000  engine.run_interaction
     1000     1.000  lexicon.comprehend
     1000     1.000  lexicon.produce
     1000     1.000  monitors.compute_series_point
     1000     1.000  monitors.observe
     1000     1.000  world.sample_scene
      938     0.938  conceptual.interpret
      202     0.202  monitors.<lambda>
       98     0.098  lexicon.punish
       85     0.085  lexicon.__init__
       82     0.082  lexicon._unindex
       80     0.080  lexicon.add_construction
       72     0.072  lexicon.<genexpr>
       57     0.057  errors.require
       41     0.041  lexicon._remove
       34     0.034  errors.<lambda>
       34     0.034  errors.is_int
       30     0.030  conceptual.invent_category
       25     0.025  monitors.take_snapshot
       18     0.018  lexicon.invent_word_form
       17     0.017  engine._range_rules
       12     0.012  world.Colour
        8     0.008  engine.<lambda>
        8     0.008  errors.__init__
        6     0.006  engine.<genexpr>
        5     0.005  conceptual.__init__
        5     0.005  engine.__init__
        3     0.003  errors.quoted
        3     0.003  errors.repr_int
        3     0.003  errors.within
        2     0.002  embodiment.__init__
        2     0.002  embodiment.make_body
        2     0.002  world.check_separation
        1     0.001  engine.make_population
        1     0.001  engine.run_experiment
        1     0.001  engine.start_run
        1     0.001  engine.validate
        1     0.001  monitors.__init__
        1     0.001  world.__init__
        1     0.001  world.make_world
"""

POP50_FROM_3_12 = """\
    88702    44.351  total
    12554     6.277  world.clipped
     8000     4.000  embodiment.embody
     8000     4.000  embodiment.observe_world
     5171     2.586  lexicon._rounded
     4108     2.054  embodiment.point
     4000     2.000  embodiment.hear
     4000     2.000  embodiment.speak
     4000     2.000  engine.align
     4000     2.000  world.draw_sample
     4000     2.000  world.perceive
     3968     1.984  conceptual.conceptualise
     3669     1.835  engine._categorise
     2000     1.000  engine.run_interaction
     2000     1.000  lexicon.comprehend
     2000     1.000  lexicon.produce
     2000     1.000  monitors.compute_series_point
     2000     1.000  monitors.observe
     2000     1.000  world.sample_scene
     1905     0.953  lexicon.__init__
     1855     0.927  lexicon.add_construction
     1777     0.888  lexicon.punish
      885     0.443  conceptual.get
      744     0.372  lexicon.<genexpr>
      629     0.315  monitors.<lambda>
      554     0.277  conceptual.shift_prototype
      554     0.277  embodiment.nod
      554     0.277  lexicon.reward_and_inhibit
      331     0.166  conceptual.interpret
      299     0.149  conceptual.invent_category
      274     0.137  lexicon._unindex
      250     0.125  monitors.take_snapshot
      186     0.093  lexicon.invent_word_form
      137     0.069  lexicon._remove
       57     0.029  errors.require
       50     0.025  conceptual.__init__
       50     0.025  engine.__init__
       34     0.017  errors.<lambda>
       34     0.017  errors.is_int
       17     0.009  engine._range_rules
       12     0.006  world.Colour
        8     0.004  engine.<lambda>
        8     0.004  errors.__init__
        6     0.003  engine.<genexpr>
        3     0.002  errors.quoted
        3     0.002  errors.repr_int
        3     0.002  errors.within
        2     0.001  embodiment.__init__
        2     0.001  embodiment.make_body
        2     0.001  world.check_separation
        1     0.001  engine.make_population
        1     0.001  engine.run_experiment
        1     0.001  engine.start_run
        1     0.001  engine.validate
        1     0.001  monitors.__init__
        1     0.001  world.__init__
        1     0.001  world.make_world
"""


PINS = (
    {"default": DEFAULT_TO_3_11, "pop50": POP50_TO_3_11}
    if sys.version_info < (3, 12)
    else {"default": DEFAULT_FROM_3_12, "pop50": POP50_FROM_3_12}
)


def count(args: list[str]) -> str:
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout


@pytest.mark.parametrize("config", CONFIGS)
def test_call_counts_equal_the_pin_in_two_fresh_processes(config):
    first = count(CONFIGS[config])
    assert count(CONFIGS[config]) == first
    rows = first.splitlines()[1:]
    assert rows == PINS[config].splitlines()
    calls = [int(row.split()[0]) for row in rows]
    assert calls[0] == sum(calls[1:])
