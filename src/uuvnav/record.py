"""The base of uuvnav's records.

A record is a plain class with ``__slots__`` and a hand-written
``__init__``, which names the attributes it compares and shows in the
tuple ``_fields``.  ``Record`` gives it value semantics:

- a ``Name(field=value, ...)`` repr over ``_fields``;
- equality by class and by the values of ``_fields``;
- a record declared ``frozen=True`` hashes those values, and assigning
  or deleting any of its attributes raises ``FrozenInstanceError``; its
  ``__init__`` sets each field through ``object.__setattr__`` or the
  field's own slot descriptor;
- any other record is mutable and unhashable.

``FrozenInstanceError`` is the standard library's own, imported only
when an assignment is refused: its module pulls in ``inspect`` and
``ast``, which no command needs at start-up.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, frozen: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # the fields' values as a tuple; attrgetter of one name gives the
        # value itself
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))
        if frozen:
            cls.__setattr__ = _refuse_assignment
            cls.__delattr__ = _refuse_deletion
        else:
            cls.__hash__ = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        values = zip(self._fields, self._values(self))
        shown = ", ".join(f"{name}={value!r}" for name, value in values)
        return f"{self.__class__.__qualname__}({shown})"


def _refuse_assignment(self: Record, name: str, value: object) -> None:
    raise _frozen(f"cannot assign to field {name!r}")


def _refuse_deletion(self: Record, name: str) -> None:
    raise _frozen(f"cannot delete field {name!r}")


def _frozen(message: str) -> Exception:
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)
