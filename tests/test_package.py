"""The package's export list matches what it defines, so no removed name
lingers, and the records it exports are immutable slotted named tuples."""

import types

import pytest

import grasstodd
from grasstodd import ChowElement, GrassmannShape


def test_all_lists_exactly_the_public_names():
    public = {
        name for name, value in vars(grasstodd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(grasstodd.__all__) == public
    assert len(grasstodd.__all__) == len(public)
    for name in grasstodd.__all__:
        assert getattr(grasstodd, name) is not None, name


# one instance of every exported record, keyed by name
SHAPE = GrassmannShape(2, 4)
RECORDS = {
    "AntisymmetricMatrix": lambda: grasstodd.AntisymmetricMatrix.from_rows([[0, 1], [-1, 0]]),
    "BundleClass": lambda: grasstodd.chern_Q(SHAPE),
    "ChowElement": lambda: grasstodd.unit(SHAPE),
    "ConeChowDims": lambda: grasstodd.cone_chow_dims(SHAPE),
    "GrassmannShape": lambda: SHAPE,
    "PfaffianClassification": lambda: grasstodd.classify_B(2, 5),
    "RobertsReport": lambda: grasstodd.roberts_verdict(SHAPE, mode="verdict"),
    "TableEntry": lambda: grasstodd.verdict_table(3)[0],
    "TauRecord": lambda: grasstodd.roberts_verdict(SHAPE).records[0],
}


def test_every_exported_record_is_listed():
    exported = {name for name in grasstodd.__all__ if hasattr(getattr(grasstodd, name), "_fields")}
    assert exported == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_exported_records_are_slotted_named_tuples(name):
    cls = getattr(grasstodd, name)
    record = RECORDS[name]()
    assert type(record) is cls
    values = tuple(getattr(record, f) for f in cls._fields)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert not hasattr(record, "__dict__")
    assert repr(record) == f"{name}(" + ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, values)) + ")"
    assert cls(**dict(zip(cls._fields, values))) == record == values


def test_record_constructors_keep_their_checks_and_defaults():
    for d, n in [(3, 3), (0, 2)]:
        with pytest.raises(ValueError, match=rf"^need 1 <= d <= n-1, got d={d}, n={n}$"):
            GrassmannShape(d, n)
    with pytest.raises(ValueError, match=r"^need 1 <= d <= n-1, got d=3, n=3$"):
        GrassmannShape(n=3, d=3)
    assert GrassmannShape(n=4, d=2) == SHAPE
    assert ChowElement(SHAPE, {}).den == 1
