import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import entpower

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(entpower.__path__))
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", ["entpower"] + [f"entpower.{name}" for name in SUBMODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = mod.__all__
    assert len(set(exported)) == len(exported)
    missing = [name for name in exported if not hasattr(mod, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from entpower import *", namespace)
    assert set(entpower.__all__) <= set(namespace)


def test_readme_library_example_runs():
    # the Library section's code block, as a reader would paste it
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(block, {})
