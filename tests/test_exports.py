"""The package's exported names, which `__all__` derives from its imports."""

import re
import types
from pathlib import Path

import catreg

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_surface_is_exported():
    section = README.read_text(encoding="utf-8").split("## Library surface", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    names = set(re.findall(r"\w+", re.sub(r"#.*", "", block))) - {"from", "import", "catreg"}
    assert {"catreg_fit", "t_pvalue"} <= names  # the block's first and last names
    assert names <= set(catreg.__all__)


def test_every_export_resolves_and_none_is_a_module():
    assert len(set(catreg.__all__)) == len(catreg.__all__)
    for name in catreg.__all__:
        assert not name.startswith("_"), name
        assert not isinstance(getattr(catreg, name), types.ModuleType), name
