"""The base of the immutable value types.  Each has two ways in: its public
constructor checks everything a caller can get wrong, and _of stores data
the package built itself, valid by construction, with no copy and no check.
"""

from __future__ import annotations


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def _fill(self, *values):
        """Set the slots, in declaration order, once."""
        for setter, value in zip(self._setters, values):
            setter(self, value)

    @classmethod
    def _of(cls, *values):
        """An instance over what _fill takes, all built by the package."""
        obj = object.__new__(cls)
        obj._fill(*values)
        return obj

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")
