"""Base class of the package's value types.

A value type lists its fields in ``__slots__``.  ``Value``'s constructor
binds its arguments to them in that order, positionally and by keyword, and
raises TypeError on too many, unknown, repeated or missing fields; a type
that converts, validates or sets defaults does so in its own ``__init__``
and then calls this one.  Assigning or deleting a field afterwards raises
AttributeError.  Values of one class are equal when their fields are, as a
tuple; the hash is that tuple's, and the repr reads ``Class(field=...)``.
``_uncompared`` fields are left out of equality and hash, ``_unshown`` ones
out of the repr.  Copies and pickles call the class with the fields in
order, so its conversions and checks run again.

Not ``dataclasses``: importing it loads ``inspect`` and more, and each
decorated class takes about a millisecond to create, paid on every CLI call.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _uncompared: tuple[str, ...] = ()
    _unshown: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._compared = tuple(f for f in cls.__slots__ if f not in cls._uncompared)
        cls._shown = tuple(f for f in cls.__slots__ if f not in cls._unshown)

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        name = self.__class__.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected field {field!r}")
            if field in values:
                raise TypeError(f"{name}() got multiple values for field {field!r}")
            values[field] = value
        for field in fields:
            if field not in values:
                raise TypeError(f"{name}() missing field {field!r}")
            object.__setattr__(self, field, values[field])

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, f) for f in self.__slots__])
