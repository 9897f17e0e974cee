"""The mutation catalogue (`tools/mutation_catalogue.py`) still applies and
still catches. Every mutant's text must occur exactly once in the tree; three
mutants of the series monitor and the aggregate are replayed here, and the
whole catalogue runs in CI."""
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "mutation_catalogue.py"
REPLAYED = ("note-not-netted", "first-count-reads-notes", "fold-skips-a-change")


def load_catalogue():
    spec = importlib.util.spec_from_file_location("mutation_catalogue", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_once():
    catalogue = load_catalogue()
    names = [mutant.name for mutant in catalogue.MUTANTS]
    assert len(set(names)) == len(names)
    assert set(REPLAYED) <= set(names)
    for mutant in catalogue.MUTANTS:
        text = (ROOT / mutant.path).read_text()
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name
        for selection in mutant.tests:
            assert (ROOT / selection.split("::")[0]).is_file(), mutant.name


def test_replayed_mutants_are_caught():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *REPLAYED],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"caught {name}" for name in REPLAYED
    ]
