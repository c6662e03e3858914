"""Immutable records whose constructors validate their fields.

Plain records are typing.NamedTuples.  A record that checks its fields
subclasses Record (identity equality, like any object) or ValueRecord
(equality and hashing by field values), names its fields in __slots__ and
_fields, validates in its own __init__ and stores through _set.  Either
costs a fraction of a dataclass to build, and every command pays the
import.
"""


class Record:
    """Fields are set once, in __init__; assigning or deleting one raises
    AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        """Store the field values, in the order of _fields."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def _replace(self, **changes):
        """A copy with the given fields changed, validated like any new record."""
        return type(self)(**{**self._asdict(), **changes})

    def __reduce__(self):  # unpickling goes through __init__, not __setattr__
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class ValueRecord(Record):
    """Equal when of one class with equal fields; hashed by the fields."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())
