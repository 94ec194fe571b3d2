"""Base class of the package's value types.

A value type lists its fields in ``__slots__`` in constructor order, and its
constructor hands their values to ``_fill`` once; assigning or deleting a
field afterwards raises AttributeError.  Values of one class are equal when
their fields are, as a tuple; the hash is that tuple's, and the repr reads
``Class(field=...)``.  ``_uncompared`` fields are left out of equality and
hash, ``_unshown`` ones out of the repr.  Copies and pickles call the class
with the fields in order, so its conversions and checks run again.

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

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

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
