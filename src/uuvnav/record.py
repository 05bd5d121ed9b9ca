"""The base of uuvnav's records.

A record is a plain class with ``__slots__`` that names the attributes
it compares and shows in the tuple ``_fields``.  ``Record`` gives it
value semantics:

- an ``__init__(self, field, ..., field=default)`` over ``_fields``,
  generated from source for each record class that writes none of its
  own, as ``collections.namedtuple`` generates its ``__new__``.  The
  class's optional ``_defaults`` dict gives immutable values to its
  last fields, and Python's own binding raises ``TypeError`` for a
  missing, unexpected or repeated argument;
- a ``Name(field=value, ...)`` repr over ``_fields``;
- equality by class and by the values of ``_fields``;
- a record declared ``frozen=True`` hashes those values, and assigning
  or deleting any of its attributes raises ``FrozenInstanceError``.  The
  generated ``__init__`` sets each field through the field's own slot
  descriptor, which the frozen ``__setattr__`` does not reach, and a
  record's own ``__init__`` through ``object.__setattr__``;
- any other record is mutable and unhashable, and its generated
  ``__init__`` assigns each field.

One rule decides who writes ``__init__``: a record writes its own only
when it checks its arguments or works out more than it is given.  The
generated one is the code a hand-written constructor that only stores
its arguments would be, so a record that a loop builds per tick, token,
binding or beacon takes it too.

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
            cls.__init__ = _generated_init(cls, frozen)
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


def _generated_init(cls: type[Record], frozen: bool):
    """The ``__init__`` of ``cls``: its source names each field as a
    parameter and stores it, through the field's slot descriptor if
    ``frozen``, and the values of ``_defaults`` close its signature."""
    fields, defaults = cls._fields, cls._defaults
    if frozen:
        namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in fields}
        body = [f"_set_{name}(self, {name})" for name in fields]
    else:
        namespace = {}
        body = [f"self.{name} = {name}" for name in fields]
    exec(f"def __init__(self, {', '.join(fields)}):\n    " + "\n    ".join(body), namespace)
    init = namespace["__init__"]
    # a field with a default follows every field without one
    init.__defaults__ = tuple(defaults[name] for name in fields[len(fields) - len(defaults) :])
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


def _refuse_assignment(self: Record, name: str, value: object) -> None:
    raise _frozen(f"cannot assign to field {name!r}")


def _refuse_deletion(self: Record, name: str) -> None:
    raise _frozen(f"cannot delete field {name!r}")


def _frozen(message: str) -> Exception:
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)
