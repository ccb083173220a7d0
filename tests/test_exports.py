"""The package's export list: a stale name breaks ``from convsum import *``.

Exports load on first use, so these tests also pin that ``dir`` lists them,
that an unknown name fails as an ordinary missing attribute, and that a
star import binds the objects their home modules define.
"""

import importlib

import pytest

import convsum


def test_every_export_resolves_once():
    assert len(convsum.__all__) == len(set(convsum.__all__)) == 36
    assert [name for name in convsum.__all__ if not hasattr(convsum, name)] == []


def test_dir_lists_every_export():
    assert set(convsum.__all__) <= set(dir(convsum))


def test_unknown_name_is_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="'convsum'.*'no_such_name'"):
        convsum.no_such_name
    assert not hasattr(convsum, "no_such_name")


def test_star_import_binds_the_home_objects():
    namespace = {}
    exec("from convsum import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(convsum.__all__)
    for name in convsum.__all__:
        home = importlib.import_module(f"convsum.{convsum._HOME[name]}")
        assert namespace[name] is vars(home)[name], name
        assert getattr(namespace[name], "__module__", home.__name__) \
            == home.__name__, name
