"""Bases for the package's records: plain classes with field-wise
equality and repr, and, for frozen records, read-only fields and hashing.

They take the place of ``dataclasses``, which would load ``inspect``,
``ast``, ``dis`` and ``tokenize`` at import and generate and compile the
methods of every record class, a large share of a fresh process's
start-up.  Each record writes its own ``__init__``, so its constructor
signature and validation read as code.
"""


class Record:
    """A record whose fields, in order, are named by ``_fields``.

    Two records of one class are equal when their fields are.  A mutable
    record is unhashable, as a mutable dataclass is.
    """

    _fields = ()
    __hash__ = None

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """A record whose ``__init__`` sets its fields once, through
    ``vars(self)``; assigning or deleting an attribute afterwards raises
    AttributeError.  Frozen records hash by their fields."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __hash__(self):
        return hash(self._values())
