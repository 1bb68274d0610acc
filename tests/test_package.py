"""The package's export list matches what it defines, so no removed name lingers."""

import types

import grasstodd


def test_all_lists_exactly_the_public_names():
    public = {
        name for name, value in vars(grasstodd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(grasstodd.__all__) == public
    assert len(grasstodd.__all__) == len(public)
    for name in grasstodd.__all__:
        assert getattr(grasstodd, name) is not None, name
