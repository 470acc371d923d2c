import copy
import pickle

import pytest

from shrubstat import EgfSeries, Forest, Poset, RowLabeling, Shrub, StatGF
from shrubstat.record import Record

# (class, fields, different fields, invalid fields or None, repr)
CASES = [
    (Shrub, (1, 2, 3), (1, 3, 2), (2, 1, 3), "Shrub(root=1, left=2, right=3)"),
    (
        Forest,
        ((Shrub(1, 2, 3),),),
        ((Shrub(1, 3, 2),),),
        ((),),
        "Forest(shrubs=(Shrub(root=1, left=2, right=3),))",
    ),
    (
        Poset,
        (2, frozenset({(0, 1)})),
        (2, frozenset()),
        (2, frozenset({(0, 2)})),
        "Poset(size=2, covers=frozenset({(0, 1)}))",
    ),
    (
        RowLabeling,
        ((2,), (1,), (3,)),
        ((3,), (1,), (2,)),
        ((1,), (2,), (3,)),
        "RowLabeling(top=(2,), middle=(1,), bottom=(3,))",
    ),
    (
        StatGF,
        ("ris", EgfSeries(3, {0: 1})),
        ("risT", EgfSeries(3, {0: 1})),
        None,  # no field check
        "StatGF(stat='ris', series=EgfSeries(order=3, {t^0: 1}))",
    ),
]


@pytest.mark.parametrize(
    "cls, fields, other, invalid, text", CASES, ids=[c[0].__name__ for c in CASES]
)
def test_record_class(cls, fields, other, invalid, text):
    a = cls(*fields)
    b = cls(**dict(zip(cls.__slots__, fields)))
    assert a == b and hash(a) == hash(b)
    assert a != cls(*other)
    twin = type("Twin", (Record,), {"__slots__": cls.__slots__})(*fields)
    assert a != twin and twin != a
    assert a != fields
    assert repr(a) == text
    for name in cls.__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, cls.__slots__[0])
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    if invalid is not None:
        with pytest.raises(ValueError):
            cls(*invalid)
    with pytest.raises(TypeError):
        cls(*fields, None)
    with pytest.raises(TypeError):
        cls(*fields[1:])
    with pytest.raises(TypeError):
        cls(*fields, **{cls.__slots__[0]: fields[0]})
