"""tools/linetrace.py finds a module's statements and the ones a run never reached."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("linetrace", ROOT / "tools" / "linetrace.py")
linetrace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linetrace)

TOY = '''"""A toy module."""

import math

LIMIT = 0


def sign(x):
    """-1 below LIMIT, else 1."""
    if x < LIMIT:
        return -1
    return int(
        math.copysign(1, x)
    )
'''


def test_the_statements_leave_out_docstrings_defs_and_imports():
    assert linetrace.statements(TOY) == {
        5: {5}, 10: {10}, 11: {11}, 12: {12, 13, 14},
    }


def test_a_run_that_takes_one_branch_leaves_the_other_statement_unrun(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)

    def load_and_call():
        spec = importlib.util.spec_from_file_location("toy", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.sign(2.0)

    result, seen = linetrace.record_lines(str(tmp_path), load_and_call)
    assert result == 1
    assert set(seen) == {str(path)}
    assert linetrace.never_ran(TOY, seen[str(path)]) == [11]
    # frames of code outside the root, this test's own among them, are not recorded
    assert linetrace.record_lines(str(tmp_path / "elsewhere"), load_and_call)[1] == {}
