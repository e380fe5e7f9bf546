import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import entpower
from entpower.ensembles import EnsembleTag

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


# the deleted single-draw layer; sample_block and PhiloxStreams draw the same samples
REMOVED = ["RandomStream", "UnitaryMatrix", "PureState", "sample_cue", "sample_coe",
           "random_state", "product_state", "_checked_dims"]


@pytest.mark.parametrize("module", ["entpower", "entpower.ensembles"])
def test_single_draw_layer_is_gone(module):
    mod = importlib.import_module(module)
    assert [name for name in REMOVED if hasattr(mod, name) or name in mod.__all__] == []


def test_ensemble_tags_are_the_two_circular_ensembles():
    assert [tag.name for tag in EnsembleTag] == ["CUE", "COE"]
