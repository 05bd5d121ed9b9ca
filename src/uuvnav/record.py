"""The base of uuvnav's records.

A record is a plain class with ``__slots__`` that names the attributes
it compares and shows in the tuple ``_fields``.  ``Record`` gives it
value semantics:

- a shared ``__init__``, installed on every record class that defines
  none of its own, which takes the fields by position or keyword in
  ``_fields`` order, fills a field left out from the class's optional
  ``_defaults`` dict of immutable values, and raises ``TypeError`` for a
  missing, unexpected or repeated argument;
- a ``Name(field=value, ...)`` repr over ``_fields``;
- equality by class and by the values of ``_fields``;
- a record declared ``frozen=True`` hashes those values, and assigning
  or deleting any of its attributes raises ``FrozenInstanceError``; an
  ``__init__`` sets each field through ``object.__setattr__`` or the
  field's own slot descriptor;
- any other record is mutable and unhashable.

A record writes its own ``__init__`` for one of two reasons.  Either it
checks its arguments or works out more than it is given, or a loop that
runs per tick, token, binding or beacon builds it.  The shared
``__init__`` binds its arguments by name, which costs four to six times
what a hand-written one costs that stores through the slots'
descriptors (about 1.1 µs against 0.2–0.3 µs a record on one 2-vCPU
host): nothing where a record is built once per file, command or plan,
but a share of the run where it is built thousands of times.

``FrozenInstanceError`` is the standard library's own, imported only
when an assignment is refused: its module pulls in ``inspect`` and
``ast``, which no command needs at start-up.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...]
    # values of fields that may be left out, by name
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, frozen: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # the fields' values as a tuple; attrgetter of one name gives the
        # value itself
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))
        if "__init__" not in cls.__dict__:
            cls.__init__ = _shared_init(cls, object.__setattr__ if frozen else setattr)
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


def _shared_init(cls: type[Record], store):
    """An ``__init__`` that binds ``cls._fields`` as a signature of
    ``(field, ..., field=default)`` would, and stores each through
    ``store``."""
    fields, defaults, name = cls._fields, cls._defaults, cls.__qualname__

    def __init__(self, *args, **kwargs) -> None:
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} positional arguments but {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
            if field in values:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
            values[field] = value
        for field in fields:
            if field in values:
                store(self, field, values[field])
            elif field in defaults:
                store(self, field, defaults[field])
            else:
                raise TypeError(f"{name}() missing required argument {field!r}")

    return __init__


def _refuse_assignment(self: Record, name: str, value: object) -> None:
    raise _frozen(f"cannot assign to field {name!r}")


def _refuse_deletion(self: Record, name: str) -> None:
    raise _frozen(f"cannot delete field {name!r}")


def _frozen(message: str) -> Exception:
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)
