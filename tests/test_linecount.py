"""tools/linecount.py counts every line of the package once, by kind."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("linecount", ROOT / "tools" / "linecount.py")
linecount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecount)

SAMPLE = '''"""Module docstring,

over three lines."""

# a comment
import math  # code with a comment


class A:
    """One line."""

    def f(self):
        x = """a string
that is code"""
        return x
'''


def test_the_totals_are_the_line_counts_of_the_modules():
    counts = linecount.count_tree(str(ROOT))
    modules = sorted(path.name for path in (ROOT / "src" / "catreg").glob("*.py"))
    assert sorted(counts) == modules
    for name, c in counts.items():
        text = (ROOT / "src" / "catreg" / name).read_text(encoding="utf-8")
        assert c["total"] == text.count("\n") == len(text.splitlines()), name
        assert c["code"] + c["docstring"] + c["comment"] + c["blank"] == c["total"], name


def test_each_line_is_counted_as_its_kind():
    assert linecount.count_lines(SAMPLE) == {
        "total": 15, "code": 6, "docstring": 4, "comment": 1, "blank": 4}


def test_two_trees_report_each_module_and_the_change(tmp_path, capsys):
    for tree, source in (("old", SAMPLE), ("new", SAMPLE + "\n# one more\n")):
        package = tmp_path / tree / "src" / "catreg"
        package.mkdir(parents=True)
        (package / "m.py").write_text(source)
    (tmp_path / "new" / "src" / "catreg" / "added.py").write_text("x = 1\n")
    linecount.main([str(tmp_path / "old"), str(tmp_path / "new")])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert rows == [
        ["added.py", "1", "(+1)", "1", "(+1)", "0", "(+0)", "0", "(+0)", "0", "(+0)"],
        ["m.py", "17", "(+2)", "6", "(+0)", "4", "(+0)", "2", "(+1)", "5", "(+1)"],
        ["all", "18", "(+3)", "7", "(+1)", "4", "(+0)", "2", "(+1)", "5", "(+1)"],
    ]
