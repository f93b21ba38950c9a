"""Records: typing.NamedTuple classes, which generate no code at import."""

from typing import NamedTuple  # noqa: F401  (the record base every module imports from here)


def checked(cls):
    """Run cls._check on every construction of the NamedTuple class cls.

    NamedTuple forbids __new__ in the class body, and its _make, which
    _replace calls, skips __new__. _check(self) raises ValueError on a
    bad field and returns None, or the field values to store instead.
    """
    new = cls.__new__

    def __new__(klass, *args, **kwargs):
        self = new(klass, *args, **kwargs)
        fields = self._check()
        return self if fields is None else tuple.__new__(klass, fields)

    cls.__new__ = __new__
    cls._make = classmethod(lambda klass, values: klass(*values))
    return cls
