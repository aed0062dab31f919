"""Immutable value objects whose methods are generated from __slots__.

The standard library's record-class decorator imports inspect, ast, dis
and tokenize and compiles each class's methods through exec, which cost
a one-shot CLI call more than its own work.  A Value subclass lists its
fields in __slots__ (with "__dict__" added when a cached_property needs
one), and optionally a mapping _defaults from trailing fields to their
default values.  Value supplies the rest of what a frozen record class
has:

* a constructor taking the fields positionally in __slots__ order or by
  keyword, which stores each through its slot descriptor; a missing
  field, an extra argument or an unknown keyword is a TypeError.
  Binding keywords runs in Python, so hot call sites pass the fields
  positionally;
* equality only between instances of the same class, comparing the
  field tuples (never equal to a tuple);
* hash(tuple of the fields in declaration order), so set and dict
  orders are what they were with generated records;
* the repr Name(field=value, ...);
* a __setattr__ and __delattr__ that refuse every write;
* pickling and copying through the constructor.

A class body that defines __eq__ or __hash__ itself keeps it.  Every
class takes the generated constructor, so building a value checks
nothing: outside values are checked once where they enter the program
(descriptor text, the twist parameter, class-data files), and the
library trusts the values it builds from them.
"""

from __future__ import annotations

from operator import attrgetter


def _bind(cls, args: tuple, kwargs: dict) -> tuple:
    """The field tuple of cls(*args, **kwargs), with Python's TypeErrors."""
    fields, name = cls._fields, cls.__qualname__
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                        f"but {len(args)} were given")
    values = dict(zip(fields, args))
    for key, value in kwargs.items():
        if key not in fields:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in values:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values[key] = value
    missing = [f for f in fields if f not in values and f not in cls._defaults]
    if missing:
        raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
    return tuple(values[f] if f in values else cls._defaults[f] for f in fields)


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(
            f for f in cls.__dict__["__slots__"] if f != "__dict__")
        n = len(fields)
        setters = tuple(cls.__dict__[f].__set__ for f in fields)
        if n == 1:
            get = attrgetter(fields[0])

            def key(self):
                return (get(self),)
        else:
            key = attrgetter(*fields)

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != n:
                args = _bind(cls, args, kwargs)
            for put, value in zip(setters, args):
                put(self, value)

        # closures over key, so the hot __eq__/__hash__ do no attribute lookup
        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        def __reduce__(self):
            return self.__class__, key(self)

        cls.__init__, cls.__reduce__ = __init__, __reduce__
        # a class body may keep its own comparison (UnitQuotient compares
        # by identity)
        for name, method in (("__eq__", __eq__), ("__hash__", __hash__)):
            if name not in cls.__dict__:
                setattr(cls, name, method)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
