"""The package's export list: a stale name breaks ``from convsum import *``."""

import convsum


def test_every_export_resolves_once():
    assert len(convsum.__all__) == len(set(convsum.__all__))
    assert [name for name in convsum.__all__ if not hasattr(convsum, name)] == []
