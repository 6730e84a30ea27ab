"""The base class of the package's immutable records."""


class Record:
    """An immutable record whose fields are the names in ``__slots__``.

    The constructor takes one positional argument per field, in slot order.
    A record equals only a record of the same class whose fields are equal,
    and hashes as the tuple of its fields, so equal records hash alike.
    Fields are frozen: assigning or deleting one raises AttributeError. The
    repr names every field, as in ``Var(name='q1')``.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
