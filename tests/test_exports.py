"""``import infoeval`` exposes exactly the names in the ``__all__`` of
its five modules, in module order, plus ``__version__``.  ``analysis``
and ``ranking`` load on first access; what they export is the same."""
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import infoeval

MODULES = ("analysis", "confusion", "infocore", "measures", "ranking")


def _exports():
    """(defining module, name) for each exported name, in module order."""
    for short in MODULES:
        module = importlib.import_module(f"infoeval.{short}")
        for name in module.__all__:
            yield module, name


def test_all_is_the_modules_all_in_order():
    assert infoeval.__all__ == [name for _, name in _exports()] + ["__version__"]


def test_each_name_is_the_defining_modules_object():
    for module, name in _exports():
        assert getattr(infoeval, name) is getattr(module, name), name
    for short in MODULES:
        assert getattr(infoeval, short) is sys.modules[f"infoeval.{short}"]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from infoeval import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(infoeval, name) for name in infoeval.__all__}


def test_dir_lists_every_name_and_module():
    listed = dir(infoeval)
    assert listed == sorted(set(listed))
    assert {*infoeval.__all__, *MODULES} <= set(listed)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'infoeval' has no attribute 'rank_all'"):
        infoeval.rank_all


def test_first_access_in_a_fresh_interpreter():
    # each lazy name read before its module is loaded, then the star import
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = f"""
import sys
sys.path.insert(0, {src!r})
import infoeval
assert "infoeval.analysis" not in sys.modules and "infoeval.ranking" not in sys.modules
assert "rank_canonical" in dir(infoeval) and "MetaOrder" in dir(infoeval)
kind, rank = infoeval.CanonicalKind, infoeval.rank
assert kind is sys.modules["infoeval.analysis"].CanonicalKind
assert rank is sys.modules["infoeval.ranking"].rank
namespace = {{}}
exec("from infoeval import *", namespace)
assert sorted(namespace) == sorted(["__builtins__", *infoeval.__all__])
"""
    subprocess.run([sys.executable, "-I", "-S", "-B", "-c", probe], check=True)
