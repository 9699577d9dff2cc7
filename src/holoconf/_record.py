"""Base class of holoconf's record types.

A record lists its fields in ``__slots__``, in order, and its ``__init__``
sets them through ``_assign``.  Record gives the repr ``Name(field=value, ...)``,
equality by type and fields, and copies and pickles that restore the fields
without running ``__init__``.  A frozen record (``class Name(Record,
frozen=True)``) hashes by its fields and raises AttributeError on assigning
or deleting one; a mutable record is unhashable.
"""


class Record:
    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = False):
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _read_only
        else:
            cls.__hash__ = None

    def _assign(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return _restore, (type(self), self._values())


def _read_only(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen {type(self).__name__}")


def _restore(cls, values):
    record = cls.__new__(cls)
    record._assign(*values)
    return record
