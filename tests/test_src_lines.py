"""tools/src_lines.py splits every line of a module into exactly one kind."""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "src_lines.py")
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SAMPLE = '''"""Module docstring,

over three lines."""
# a comment line
import os  # code with a trailing comment


def f(x):
    """One line."""
    s = """a string
    that is no docstring"""
    # another comment
    return s
'''


def test_hand_counted_sample():
    assert src_lines.split(SAMPLE) == {"code": 5, "docstring": 3, "comment": 2, "blank": 3}


def test_kinds_sum_to_each_modules_line_count():
    for name in sorted(os.listdir(src_lines.SRC)):
        if name.endswith(".py"):
            with open(os.path.join(src_lines.SRC, name), encoding="utf-8") as fh:
                source = fh.read()
            assert sum(src_lines.split(source).values()) == source.count("\n"), name


def test_total_row_sums_the_module_rows():
    out = subprocess.run([sys.executable, TOOL], capture_output=True, text=True, check=True)
    header, *rows, total = [line.split() for line in out.stdout.splitlines()]
    assert header == ["module", *src_lines.KINDS, "total"]
    assert [sum(int(row[i]) for row in rows) for i in range(1, 6)] == [int(n) for n in total[1:]]
    for row in rows + [total]:
        assert sum(int(n) for n in row[1:5]) == int(row[5])
