"""Immutable value records.

A subclass names its fields, in order, in ``__slots__`` and may check
them in ``__post_init__``.  Instances are built positionally or by
keyword: keywords fill the fields after the positional ones, and a
wrong count, a repeated field or an unknown keyword raises one
``TypeError`` that names the fields.  Instances are equal when class
and fields are equal, hash by their fields, print as
``Name(field=value, ...)`` and refuse assignment with
``AttributeError``: what ``@dataclass(frozen=True)`` gives, without
importing ``dataclasses`` (and with it ``inspect``) at every start-up.
"""


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs:
            args += tuple(kwargs.pop(f) for f in fields[len(args):] if f in kwargs)
        if kwargs or len(args) != len(fields):
            name = self.__class__.__qualname__
            raise TypeError(f"{name}() takes {', '.join(fields)}")
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return (self.__class__, self._fields())
