"""`tools/code_lines.py` sorts every line of a file into exactly one of code,
docstring, comment and blank."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment is code

# A comment line.
X = """a string that is
not a docstring"""


class A:
    """Class docstring."""

    def f(self):
        """Method
        docstring.

        With a blank line inside."""
        return (1 +
                2)
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_line_is_counted_once_by_kind(capsys, tmp_path):
    tool = load_tool()
    counts = tool.count_source(FIXTURE)
    assert counts == tool.Counts(code=7, docstring=7, comment=1, blank=4)
    assert counts.total == len(FIXTURE.splitlines())

    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert tool.main([str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[-1].split() == ["total", "7", "7", "1", "4", "19"]
    assert rows[-2].split()[1:] == rows[-1].split()[1:]
