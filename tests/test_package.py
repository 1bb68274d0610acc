"""The package's export list matches what it defines, so no removed name
lingers, and the annotations of what it exports resolve."""

import dataclasses
import types
import typing

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


def test_exported_dataclass_annotations_resolve():
    for name in grasstodd.__all__:
        value = getattr(grasstodd, name)
        if dataclasses.is_dataclass(value):
            typing.get_type_hints(value)
