"""Record types: slotted classes built, compared, hashed and shown by their fields.

A record lists its fields in ``__slots__``.  Unless it defines its own
``__init__``, it gets a constructor taking those fields in order, by
position or by keyword; its last ``len(_defaults)`` fields default to the
values in ``_defaults``.  Equality and ``repr`` cover the first
``_compared`` fields (all of them when None); a record puts the fields they
leave out, source locations and derived values, last.  Records compare
equal only to records of the same class.  A :class:`Frozen` record's fields
are read-only, so constructors set fields with :data:`set_field`.
"""

from __future__ import annotations

#: Sets a field of a frozen record, bypassing its read-only guard; as a
#: module global it costs less per field than looking up ``object.__setattr__``.
set_field = object.__setattr__


class Record:
    """A mutable record: compared and shown by its fields, unhashable."""

    __slots__ = ()
    _compared: int | None = None
    _defaults: tuple = ()
    __hash__ = None

    def __init_subclass__(cls) -> None:
        """Give a class without an ``__init__`` one that sets its ``__slots__``.

        The constructor is compiled once, here, as a plain function of the
        fields, as ``collections.namedtuple`` builds ``__new__``: it binds
        its arguments as fast as a hand-written one, and Python's own
        ``TypeError`` for a bad call names the class.
        """
        if "__init__" in cls.__dict__:
            return
        fields = cls.__slots__
        params = "".join(f", {name}" for name in fields)
        body = "".join(f"\n    set_field(self, {name!r}, {name})" for name in fields)
        namespace = {"set_field": set_field, "__name__": cls.__module__}
        exec(f"def __init__(self{params}):{body or ' pass'}", namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__defaults__ = cls._defaults
        cls.__init__ = init

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__[: self._compared])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        names = self.__slots__[: self._compared]
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({body})"


class Frozen(Record):
    """A record with read-only fields, hashed by the fields it is compared by."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple[None, dict]) -> None:
        """Restore the fields ``pickle`` and ``copy`` saved: ``(None, {field: value})``."""
        for name, value in state[1].items():
            set_field(self, name, value)
